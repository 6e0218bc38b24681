// Command perfbench is the repository's benchmark. It times calls
// into the public entry points of each layer — core.Compile, sim.Cycle,
// sarad's /v1/run on an in-process cluster, and tune.Run — on one of four
// workloads, checks every output outside the timed region, and prints one
// JSON result line last on standard output.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload compile-solver|sim-cycle|serve-mix|tune-search \
//	                      --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics of BENCHMARK.json;
// with --trace 1 a span is recorded around every layer call of the timed
// passes, the spans are written to .bench_build/traces/, and the result
// carries the per-layer metrics derived from them. README.md explains the
// workloads, the metrics and what each optimisation is predicted to move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// setupReps is how many times a workload's set-up runs; setup_s is the
// median, so one slow set-up does not move it.
const setupReps = 5

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// spec is the part of BENCHMARK.json perfbench reads: the workload names
// and the metric names and units it must report.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// bench is the state one run shares between the harness and a workload.
type bench struct {
	seconds time.Duration
	rng     *rand.Rand
	trace   bool
	tr      *tracer

	setups []time.Duration

	// Timed-loop accounting. lat holds the op latencies (ms) of each op kind
	// over every pass; busy and ops split by whether the pass was traced.
	lat           map[string][]float64
	kinds         []string
	light, heavy  string
	attempted     int
	failed        int
	failures      []string
	passes        [2]int           // [untraced, traced]
	ops           [2]int           // [untraced, traced]
	busy          [2]time.Duration // [untraced, traced]
	allocBytes    uint64
	designCycles  int64
	designPUs     int64
	layer         map[string]float64
	residualFails []string
	// passPeak is the largest live heap the GC marked during the current
	// timed pass; passPeaks collects it per pass (MB).
	passPeak  atomic.Uint64
	passPeaks []float64
}

// pass is what one timed pass reports back to the harness.
type pass struct {
	ops  int
	busy time.Duration
}

func newBench(seconds int, seed int64, trace bool) *bench {
	return &bench{
		seconds: time.Duration(seconds) * time.Second,
		rng:     rand.New(rand.NewSource(seed)),
		trace:   trace,
		tr:      newTracer(),
		lat:     map[string][]float64{},
		layer:   map[string]float64{},
	}
}

// opKinds declares a workload's op kinds in report order, and which of them
// light_p50_ms and heavy_p50_ms follow.
func (b *bench) opKinds(light, heavy string, kinds ...string) {
	b.kinds, b.light, b.heavy = kinds, light, heavy
}

// setup runs f setupReps times, each after a GC, and records each duration.
// f must leave the workload's state as its last run built it.
func (b *bench) setup(f func() error) error {
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := f(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		b.setups = append(b.setups, time.Since(t0))
	}
	return nil
}

// record adds one op's latency to its kind's distribution.
func (b *bench) record(kind string, d time.Duration) {
	b.lat[kind] = append(b.lat[kind], float64(d.Nanoseconds())/1e6)
}

// fail counts a failed op or check; the first few reasons go to stderr.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.failures) < 10 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// designs sets design_cycles and design_pus, the sums over the designs the
// workload produced. They must be the same on every run.
func (b *bench) designs(cycles, pus int64) {
	b.designCycles, b.designPUs = cycles, pus
}

// measure runs passes until their timed work adds up to b.seconds. A GC
// runs before each pass so one pass's garbage is not collected on the
// next pass's clock. With tracing, passes alternate between traced and
// untraced; the ratio of their op rates is the tracing overhead.
func (b *bench) measure(run func() (pass, error)) error {
	stop := make(chan struct{})
	done := make(chan struct{})
	go b.sampleLiveHeap(stop, done)
	defer func() {
		close(stop)
		<-done
	}()
	var total time.Duration
	var ms runtime.MemStats
	for i := 0; total < b.seconds; i++ {
		traced := b.trace && i%2 == 0
		runtime.GC()
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		b.passPeak.Store(0)
		b.tr.on = traced
		p, err := run()
		b.tr.on = false
		if err != nil {
			return err
		}
		b.passPeaks = append(b.passPeaks, float64(b.passPeak.Load())/(1<<20))
		runtime.ReadMemStats(&ms)
		b.allocBytes += ms.TotalAlloc - alloc0
		t := 0
		if traced {
			t = 1
		}
		b.passes[t]++
		b.ops[t] += p.ops
		b.busy[t] += p.busy
		total += p.busy
	}
	return nil
}

// sampleLiveHeap keeps b.passPeak at the largest live heap the GC reports
// until stop closes. The live heap changes only when a GC ends, and a GC
// ends every few milliseconds at most, so a 1 ms poll sees nearly every
// value.
func (b *bench) sampleLiveHeap(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			metrics.Read(sample)
			v := sample[0].Value.Uint64()
			for cur := b.passPeak.Load(); v > cur && !b.passPeak.CompareAndSwap(cur, v); cur = b.passPeak.Load() {
			}
		}
	}
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), as Python's statistics.median does.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tail returns the highest of p99 and p90 that has at least ten samples
// beyond it, or ok=false when neither has.
func tail(xs []float64) (name string, v float64, ok bool) {
	for _, p := range []int{99, 90} {
		if float64(len(xs))*float64(100-p)/100 >= 10 {
			return fmt.Sprintf("p%d", p), quantile(xs, float64(p)/100), true
		}
	}
	return "", 0, false
}

// endToEnd derives the end-to-end metrics from the untraced run.
func (b *bench) endToEnd() (map[string]float64, error) {
	m := map[string]float64{}
	setups := make([]float64, len(b.setups))
	for i, d := range b.setups {
		setups[i] = d.Seconds()
	}
	m["setup_s"] = median(setups)
	ops := b.ops[0] + b.ops[1]
	busy := b.busy[0] + b.busy[1]
	m["ops_per_s"] = float64(ops) / busy.Seconds()
	logSum := 0.0
	for _, k := range b.kinds {
		if len(b.lat[k]) == 0 {
			return nil, fmt.Errorf("op kind %s has no samples", k)
		}
		logSum += math.Log(median(b.lat[k]))
	}
	m["latency_p50_ms"] = math.Exp(logSum / float64(len(b.kinds)))
	m["light_p50_ms"] = median(b.lat[b.light])
	m["heavy_p50_ms"] = median(b.lat[b.heavy])
	if b.designCycles == 0 || b.designPUs == 0 {
		return nil, errors.New("workload did not report its designs")
	}
	m["design_cycles"] = float64(b.designCycles)
	m["design_pus"] = float64(b.designPUs)
	m["peak_heap_mb"] = median(b.passPeaks)
	return m, nil
}

// perLayer adds the harness-level per-layer metrics to the ones the
// workload derived from its spans.
func (b *bench) perLayer() map[string]float64 {
	m := b.layer
	ops := b.ops[0] + b.ops[1]
	m["go.alloc_mb_per_op"] = float64(b.allocBytes) / (1 << 20) / float64(ops)
	if b.ops[0] > 0 && b.ops[1] > 0 {
		untraced := float64(b.ops[0]) / b.busy[0].Seconds()
		traced := float64(b.ops[1]) / b.busy[1].Seconds()
		m["trace.overhead_pct"] = (untraced/traced - 1) * 100
	}
	m["trace.spans_per_op"] = float64(len(b.tr.spans)) / float64(b.ops[1])
	return m
}

// checkResidual compares a layer sum against the total it should explain
// and counts a failure when the unexplained share exceeds tol.
func (b *bench) checkResidual(name string, total, parts time.Duration, tol float64) {
	if total <= 0 {
		return
	}
	pct := 100 * float64(total-parts) / float64(total)
	b.layer[name] = pct
	if math.Abs(pct) > tol {
		b.residualFails = append(b.residualFails, fmt.Sprintf("%s: %.2f%% of %v unexplained (tolerance %.1f%%)", name, pct, total, tol))
	}
}

// summary prints the per-kind latency distributions with their sample
// counts and supported tails, for a reader of the run's log.
func (b *bench) summary() {
	for _, k := range b.kinds {
		xs := b.lat[k]
		line := fmt.Sprintf("# kind %-22s n=%-5d p50=%9.3fms", k, len(xs), median(xs))
		if name, v, ok := tail(xs); ok {
			line += fmt.Sprintf(" %s=%9.3fms", name, v)
		}
		fmt.Println(line)
	}
	fmt.Printf("# passes untraced=%d traced=%d ops=%d attempted=%d failed=%d error_rate=%.4f\n",
		b.passes[0], b.passes[1], b.ops[0]+b.ops[1], b.attempted, b.failed, float64(b.failed)/float64(max(b.attempted, 1)))
	for _, f := range b.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", f)
	}
	for _, f := range b.residualFails {
		fmt.Fprintln(os.Stderr, "perfbench: layer-sum check:", f)
	}
}

func loadSpec(path string) (*spec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// emit fills the result's metrics from got in the order and units the
// spec lists. An end-to-end metric the workload did not produce is an
// error; a per-layer metric of a layer the workload does not exercise in
// its timed passes reads 0.
func emit(want []specMetric, got map[string]float64, required bool) (map[string]metric, error) {
	known := map[string]bool{}
	out := map[string]metric{}
	for _, sm := range want {
		known[sm.Name] = true
		v, ok := got[sm.Name]
		if !ok && required {
			return nil, fmt.Errorf("metric %s was not measured", sm.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", sm.Name, v)
		}
		out[sm.Name] = metric{Value: v, Unit: sm.Unit}
	}
	for name := range got {
		if !known[name] {
			return nil, fmt.Errorf("metric %s is not listed in BENCHMARK.json", name)
		}
	}
	return out, nil
}

var workloadFuncs = map[string]func(*bench) error{
	"compile-solver": runCompileSolver,
	"sim-cycle":      runSimCycle,
	"serve-mix":      runServeMix,
	"tune-search":    runTuneSearch,
}

func run() error {
	var (
		workload = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are made from")
		seconds  = flag.Int("seconds", 20, "timed seconds to measure")
		trace    = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	)
	flag.Parse()
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	listed := false
	for _, w := range sp.Workloads {
		listed = listed || w.Name == *workload
	}
	f, ok := workloadFuncs[*workload]
	if !ok || !listed {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	fmt.Printf("# host nproc=%d gomaxprocs=%d go=%s workload=%s seed=%d seconds=%d trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *workload, *seed, *seconds, *trace)

	b := newBench(*seconds, *seed, *trace == 1)
	if err := f(b); err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	b.summary()

	rep := report{Attempted: b.attempted, Failed: b.failed}
	if b.trace {
		path, err := b.tr.write(*workload, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("# spans %d written to %s\n", len(b.tr.spans), path)
		b.failed += len(b.residualFails)
		rep.Failed = b.failed
		if rep.Metrics, err = emit(sp.PerLayer, b.perLayer(), false); err != nil {
			return err
		}
	} else {
		m, err := b.endToEnd()
		if err != nil {
			return err
		}
		if rep.Metrics, err = emit(sp.EndToEnd, m, true); err != nil {
			return err
		}
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", strings.TrimSpace(err.Error()))
		os.Exit(1)
	}
}
