package main

import (
	"fmt"
	"strings"
	"time"

	"sara/internal/core"
	"sara/internal/ir"
	"sara/internal/tune"
)

// tuneSearches are the committed autotuner spaces of `sarabench -mode tune`:
// an rf chip-sizing sweep where the fit check prunes most points and
// identical designs share one simulation, and a DRAM-bound ms sweep where
// the analytic roofline proves most points dominated.
func tuneSearches() []tune.Options {
	return []tune.Options{
		{
			Workload: "rf", Scale: 32,
			Space: tune.Space{
				Pars:   []int{16, 32, 64, 128, 256},
				NumPCU: []int{12, 24, 48, 96, 200},
				NumPMU: []int{32, 200},
				NumAG:  []int{8, 20},
			},
		},
		{
			Workload: "ms", Scale: 16,
			Space: tune.Space{
				Pars:         []int{4, 8, 16, 32, 64, 96, 192},
				Opts:         []tune.OptSet{tune.NamedOptSets[0], tune.NamedOptSets[len(tune.NamedOptSets)-1]},
				DRAMChannels: []int{4, 8, 16},
			},
		},
	}
}

// frontSignature renders what a search must repeat exactly: its point
// counts and every front point's configuration, cycles and size.
func frontSignature(r *tune.Result) string {
	var sb strings.Builder
	st := r.Stats
	fmt.Fprintf(&sb, "explored=%d unfit=%d pruned=%d validated=%d errors=%d sims=%d shared=%d baseline=%d",
		st.Explored, st.Unfit, st.PrunedDominated, st.Validated, st.Errors, st.CycleSims, st.SharedSims, r.Baseline.Cycles)
	for _, id := range r.Front {
		p := &r.Points[id]
		fmt.Fprintf(&sb, "; %d %s cycles=%d total=%d", id, p.Point.Label(), p.Cycles, p.Total)
	}
	return sb.String()
}

// checkSearch applies the claims `sarabench -mode tune` enforces on the
// committed spaces: most of the space pruned without a cycle simulation,
// and a best seed-arch point no slower than the hand-picked baseline.
func checkSearch(r *tune.Result) error {
	if r.Stats.Errors > 0 {
		return fmt.Errorf("tune %s: %d points failed", r.Workload, r.Stats.Errors)
	}
	if f := r.Stats.PrunedFraction(); f <= 0.5 {
		return fmt.Errorf("tune %s: pruned fraction %.2f, want more than half", r.Workload, f)
	}
	best := r.BestAtBaseArch()
	if best == nil || best.Cycles > r.Baseline.Cycles {
		return fmt.Errorf("tune %s: best seed-arch point does not match the hand-picked baseline (%v vs %d cycles)", r.Workload, best, r.Baseline.Cycles)
	}
	return nil
}

// runTuneSearch is the tune-search workload: repeated tune.Run searches,
// each with a fresh in-memory design store, in a seeded order per pass.
func runTuneSearch(b *bench) error {
	searches := tuneSearches()
	b.opKinds("ms", "rf", "rf", "ms")

	// compileHook is the search's compile path, core.Compile as tune.Run
	// uses by default, with a span per call when the op is traced.
	var parent, req int64
	compileHook := func(_ tune.Point, prog *ir.Program, cfg core.Config) (*core.Compiled, error) {
		t0 := time.Now()
		c, err := core.Compile(prog, cfg)
		if err == nil {
			traceCompile(b.tr, parent, req, c, t0, time.Now())
		}
		return c, err
	}
	search := func(i int) (*tune.Result, error) {
		o := searches[i]
		o.Compile = compileHook
		return tune.Run(o)
	}

	want := make([]string, len(searches))
	err := b.setup(func() error {
		// The warm-up op: each search once, whose front every timed
		// search must repeat.
		for i := range searches {
			r, err := search(i)
			if err != nil {
				return err
			}
			if err := checkSearch(r); err != nil {
				return err
			}
			want[i] = frontSignature(r)
		}
		return nil
	})
	if err != nil {
		return err
	}

	fronts := make([]*tune.Result, len(searches))
	var explored, pruned, sims, shared int
	var tracedExplored int
	var hitRate float64
	searchesDone := 0
	err = b.measure(func() (pass, error) {
		var p pass
		explored, pruned, sims, shared = 0, 0, 0, 0
		for _, i := range b.rng.Perm(len(searches)) {
			req++
			parent = b.tr.id()
			t0 := time.Now()
			r, err := search(i)
			t1 := time.Now()
			b.attempted++
			p.ops++
			p.busy += t1.Sub(t0)
			if err != nil {
				b.fail("tune %s: %v", searches[i].Workload, err)
				continue
			}
			b.tr.add(parent, 0, req, "tune.Run", t0, t1)
			b.record(searches[i].Workload, t1.Sub(t0))
			if err := checkSearch(r); err != nil {
				b.fail("%v", err)
				continue
			}
			if got := frontSignature(r); got != want[i] {
				b.fail("tune %s: search did not repeat:\n got %s\nwant %s", r.Workload, got, want[i])
				continue
			}
			fronts[i] = r
			st := r.Stats
			explored += st.Explored
			pruned += st.PrunedDominated + st.Unfit
			sims += st.CycleSims
			shared += st.SharedSims
			hitRate += st.StageHitRate
			searchesDone++
			if b.tr.on {
				tracedExplored += st.Explored
			}
		}
		return p, nil
	})
	if err != nil {
		return err
	}

	var cycles, pus int64
	for i, r := range fronts {
		if r == nil {
			return fmt.Errorf("tune %s: no search succeeded", searches[i].Workload)
		}
		for _, id := range r.Front {
			cycles += r.Points[id].Cycles
			pus += int64(r.Points[id].Total)
		}
	}
	b.designs(cycles, pus)

	b.layer["tune.explored"] = float64(explored)
	b.layer["tune.cycle_sims"] = float64(sims)
	b.layer["tune.shared_sims"] = float64(shared)
	if explored > 0 {
		b.layer["tune.pruned_ratio"] = float64(pruned) / float64(explored)
	}
	if searchesDone > 0 {
		b.layer["store.stage_hit_rate"] = hitRate / float64(searchesDone)
	}
	if n := b.ops[1]; n > 0 {
		run := b.tr.sum("tune.Run")
		b.layer["tune.search_ms"] = float64(run.Nanoseconds()) / 1e6 / float64(n)
		b.layer["tune.ms_per_point"] = float64(run.Nanoseconds()) / 1e6 / float64(tracedExplored)
		b.layer["core.compile_ms"] = float64(b.tr.sum("core.Compile").Nanoseconds()) / 1e6 / float64(n)
		phases := b.tr.sumPrefix("phase.")
		// Reported, not held to compileResidualTol: an incremental compile
		// spends about a third of its time content-addressing stage inputs
		// and encoding snapshots into the store, which Compiled.PhaseTimes
		// does not attribute to any phase.
		if compile := b.tr.sum("core.Compile"); compile > 0 {
			b.layer["check.compile_residual_pct"] = 100 * float64(compile-phases) / float64(compile)
		}
	}
	return nil
}
