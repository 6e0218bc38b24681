package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed layer call. Start and End are nanoseconds since the
// tracer's epoch; Parent is 0 for a root; Req groups the spans of one op.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. Recording is on only
// during traced timed passes; the harness flips on between passes, while
// no workload goroutine runs.
type tracer struct {
	epoch  time.Time
	on     bool
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id reserves a span id, so children can name a parent that is recorded
// after them. It returns 0 when tracing is off.
func (t *tracer) id() int64 {
	if !t.on {
		return 0
	}
	return t.nextID.Add(1)
}

// add records a span under a reserved id; it does nothing for id 0.
func (t *tracer) add(id, parent, req int64, name string, start, end time.Time) {
	if id == 0 {
		return
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// sum totals the duration of every span with the given name.
func (t *tracer) sum(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// sumPrefix totals the duration of every span whose name starts with prefix.
func (t *tracer) sumPrefix(prefix string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, prefix) {
			d += s.dur()
		}
	}
	return d
}

// write saves the spans under .bench_build/traces/ with the host stamp.
func (t *tracer) write(workload string, seed int64) (string, error) {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	doc := struct {
		NProc      int    `json:"nproc"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		GoVersion  string `json:"go_version"`
		Workload   string `json:"workload"`
		Seed       int64  `json:"seed"`
		Spans      []span `json:"spans"`
	}{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), workload, seed, t.spans}
	buf, err := json.Marshal(&doc)
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return "", err
	}
	return path, nil
}
