package main

import (
	"fmt"
	"maps"
	"time"

	"sara/internal/core"
	"sara/internal/sim"
)

// simDesign is one design of the sim-cycle workload, compiled at set-up.
type simDesign struct {
	workload   string
	par, scale int
}

// simDesigns mixes the regimes the auto engine choice separates: rf and pr
// are token-heavy graphs the event engine runs, sort and ms are DRAM-bound,
// and ms and bs are small token-free graphs auto routes to the dense scan.
var simDesigns = []simDesign{
	{"rf", 16, 32},
	{"rf", 64, 64},
	{"pr", 128, 64},
	{"sort", 16, 16},
	{"ms", 16, 4},
	{"bs", 4, 16},
}

func (d simDesign) label() string { return fmt.Sprintf("%s/p%ds%d", d.workload, d.par, d.scale) }

// sameResult compares every simulated statistic two cycle-level runs must
// agree on.
func sameResult(a, b *sim.Result) bool {
	return a.Cycles == b.Cycles && a.FiredTotal == b.FiredTotal && a.DRAM == b.DRAM && maps.Equal(a.Stalls, b.Stalls)
}

func stallTotal(r *sim.Result) int64 {
	var n int64
	for _, v := range r.Stalls {
		n += v
	}
	return n
}

// runSimCycle is the sim-cycle workload: sim.Cycle with auto engine choice
// over designs compiled at set-up, in a seeded order per pass. No compile,
// solver or server work happens in the timed passes.
func runSimCycle(b *bench) error {
	var labels []string
	for _, d := range simDesigns {
		labels = append(labels, d.label())
	}
	b.opKinds("ms/p16s4", "rf/p16s32", labels...)

	designs := make([]*sim.Design, len(simDesigns))
	want := make([]*sim.Result, len(simDesigns))
	dense := make([]bool, len(simDesigns))
	var pus int64
	err := b.setup(func() error {
		pus = 0
		for i, sd := range simDesigns {
			prog, err := buildProgram(sd.workload, sd.par, sd.scale)
			if err != nil {
				return err
			}
			c, err := core.Compile(prog, traversalConfig())
			if err != nil {
				return fmt.Errorf("%s: %w", sd.label(), err)
			}
			d := c.Design()
			got, err := sim.Cycle(d, 0)
			if err != nil {
				return fmt.Errorf("%s: %w", sd.label(), err)
			}
			oracle, err := sim.CycleEngine(d, 0, sim.EngineDense)
			if err != nil {
				return fmt.Errorf("%s dense oracle: %w", sd.label(), err)
			}
			if !sameResult(got, oracle) {
				return fmt.Errorf("%s: %s engine disagrees with the dense oracle (cycles %d vs %d, fired %d vs %d)",
					sd.label(), got.Engine, got.Cycles, oracle.Cycles, got.FiredTotal, oracle.FiredTotal)
			}
			designs[i], want[i] = d, oracle
			dense[i] = sim.ChooseEngine(d) == sim.EngineDense
			pus += int64(c.Resources().Total)
		}
		return nil
	})
	if err != nil {
		return err
	}

	var req int64
	var tracedCycles, tracedFired int64
	var firings, stalls, dramBytes int64
	denseOps, ops := 0, 0
	err = b.measure(func() (pass, error) {
		var p pass
		firings, stalls, dramBytes = 0, 0, 0
		for _, i := range b.rng.Perm(len(designs)) {
			t0 := time.Now()
			r, err := sim.Cycle(designs[i], 0)
			t1 := time.Now()
			b.attempted++
			p.ops++
			p.busy += t1.Sub(t0)
			if err != nil {
				b.fail("%s: %v", simDesigns[i].label(), err)
				continue
			}
			req++
			b.tr.add(b.tr.id(), 0, req, "sim.Cycle", t0, t1)
			b.record(simDesigns[i].label(), t1.Sub(t0))
			if !sameResult(r, want[i]) {
				b.fail("%s: result differs from the set-up oracle (cycles %d vs %d)", simDesigns[i].label(), r.Cycles, want[i].Cycles)
				continue
			}
			if b.tr.on {
				tracedCycles += r.Cycles
				tracedFired += r.FiredTotal
			}
			firings += r.FiredTotal
			stalls += stallTotal(r)
			dramBytes += r.DRAM.TotalBytes
			ops++
			if dense[i] {
				denseOps++
			}
		}
		return p, nil
	})
	if err != nil {
		return err
	}

	var cycles int64
	for _, r := range want {
		cycles += r.Cycles
	}
	b.designs(cycles, pus)

	host := b.tr.sum("sim.Cycle")
	if n := b.ops[1]; n > 0 {
		b.layer["sim.host_ms"] = float64(host.Nanoseconds()) / 1e6 / float64(n)
		b.layer["sim.mcycles_per_s"] = float64(tracedCycles) / host.Seconds() / 1e6
		b.layer["sim.ns_per_firing"] = float64(host.Nanoseconds()) / float64(tracedFired)
	}
	b.layer["sim.firings"] = float64(firings)
	b.layer["sim.stall_unit_cycles"] = float64(stalls)
	b.layer["dram.bytes"] = float64(dramBytes)
	if ops > 0 {
		b.layer["sim.dense_share"] = float64(denseOps) / float64(ops)
	}
	return nil
}
