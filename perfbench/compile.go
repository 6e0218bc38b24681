package main

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"sara/internal/core"
	"sara/internal/ir"
	"sara/internal/partition"
	"sara/internal/sim"
	"sara/internal/workloads"
)

// solverInstance is one cold MIP-solver compile of the compile-solver
// workload. Every instance ends on its node cap or its gap, never on the
// clock, so its node count — and with it the design and the compile time —
// does not depend on how fast the host is. With the library default limits
// (20000 nodes, 10 s) ms par16 stops on the 10 s clock after a
// host-dependent 1466–1974 nodes, which made an earlier benchmark's
// compile times and designs differ from run to run.
type solverInstance struct {
	workload   string
	par, scale int
	// nodes is the pinned branch-and-bound node count under solverConfig.
	nodes int
}

// solverInstances spans the two instance shapes: rf explores many cheap LP
// nodes and ms fewer, costlier ones. ms par32 (562 nodes, about 3–4 s) is
// left out so that a pass stays near 3 s and each run holds several passes.
var solverInstances = []solverInstance{
	{"rf", 16, 16, 254},
	{"rf", 32, 16, 566},
	{"ms", 16, 16, 281},
}

const (
	solverNodeCap = 250
	solverGap     = 0.15
	// solverTimeLimit is far above any pinned instance's search time, so a
	// compile that reaches it has stopped on the clock.
	solverTimeLimit = 2 * time.Minute
)

func (in solverInstance) label() string { return fmt.Sprintf("%s/p%d", in.workload, in.par) }

func buildProgram(workload string, par, scale int) (*ir.Program, error) {
	w, err := workloads.ByName(workload)
	if err != nil {
		return nil, err
	}
	return w.Build(workloads.Params{Par: par, Scale: scale}), nil
}

// traversalConfig is the default compile without placement.
func traversalConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.SkipPlace = true
	return cfg
}

// solverConfig selects MIP partitioning and merging with a node cap and a
// generous clock limit, at the default solver worker count.
func solverConfig() core.Config {
	cfg := traversalConfig()
	cfg.Partition.Algo = partition.AlgoSolver
	cfg.Merge.Algo = partition.AlgoSolver
	cfg.Partition.Gap = solverGap
	cfg.Merge.Gap = solverGap
	cfg.Partition.MaxNodes = solverNodeCap
	cfg.Merge.MaxNodes = solverNodeCap
	cfg.Partition.TimeLimit = solverTimeLimit
	cfg.Merge.TimeLimit = solverTimeLimit
	return cfg
}

// checkSolver holds a solver compile to its instance's pins: it did not run
// into the clock, explored exactly the pinned node count, and produced a
// design no larger than the traversal design of the same program.
func checkSolver(in solverInstance, c *core.Compiled, took time.Duration, travPUs int) error {
	if took >= solverTimeLimit {
		return fmt.Errorf("%s: compile took %v, at or over the %v time limit: an instance may have stopped on the clock", in.label(), took, solverTimeLimit)
	}
	if n := c.MIPNodes(); n != in.nodes {
		return fmt.Errorf("%s: explored %d branch-and-bound nodes, pinned %d", in.label(), n, in.nodes)
	}
	if pus := c.Resources().Total; pus > travPUs {
		return fmt.Errorf("%s: solver design has %d PUs, traversal design %d", in.label(), pus, travPUs)
	}
	return nil
}

// phaseOrder is the order core.Compile runs its phases in; an incremental
// compile starts with "restore".
var phaseOrder = []string{"restore", "consistency", "lower", "opt-early", "membank", "partition", "opt-late", "merge", "place"}

// traceCompile records a core.Compile span and, as its children, one span
// per Compiled.PhaseTimes entry laid end to end from the compile's start:
// the phases run one after another and only their durations are measured.
func traceCompile(t *tracer, parent, req int64, c *core.Compiled, start, end time.Time) {
	id := t.id()
	if id == 0 {
		return
	}
	t.add(id, parent, req, "core.Compile", start, end)
	var extra []string
	for ph := range c.PhaseTimes {
		if !slices.Contains(phaseOrder, ph) {
			extra = append(extra, ph)
		}
	}
	sort.Strings(extra)
	at := start
	for _, ph := range append(slices.Clone(phaseOrder), extra...) {
		d, ok := c.PhaseTimes[ph]
		if !ok {
			continue
		}
		t.add(t.id(), id, req, "phase."+ph, at, at.Add(d))
		at = at.Add(d)
	}
}

// compileLayers derives the compile-layer metrics from the core.Compile
// spans and their phase children, per op of the workload, and checks that
// the phases add up to the compile spans.
func compileLayers(b *bench, ops int, nodes int) {
	if ops == 0 {
		return
	}
	compile, phases := b.tr.sum("core.Compile"), b.tr.sumPrefix("phase.")
	part, merge := b.tr.sum("phase.partition"), b.tr.sum("phase.merge")
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 / float64(ops) }
	b.layer["core.compile_ms"] = per(compile)
	b.layer["partition.solve_ms"] = per(part)
	b.layer["merge.solve_ms"] = per(merge)
	b.layer["core.passes_ms"] = per(phases - part - merge)
	if nodes > 0 {
		b.layer["mip.us_per_node"] = float64((part + merge).Nanoseconds()) / 1e3 / float64(nodes)
	}
	b.checkResidual("check.compile_residual_pct", compile, phases, compileResidualTol)
}

// compileResidualTol is the share of core.Compile time (percent) that may
// fall outside its phases: program validation and the bounds check.
const compileResidualTol = 2.0

// runCompileSolver is the compile-solver workload: repeated cold solver
// compiles of the pinned instances, with no design store, in a seeded order
// per pass.
func runCompileSolver(b *bench) error {
	var labels []string
	for _, in := range solverInstances {
		labels = append(labels, in.label())
	}
	b.opKinds("rf/p16", "ms/p16", labels...)

	travPUs := make([]int, len(solverInstances))
	err := b.setup(func() error {
		for i, in := range solverInstances {
			prog, err := buildProgram(in.workload, in.par, in.scale)
			if err != nil {
				return err
			}
			c, err := core.Compile(prog, traversalConfig())
			if err != nil {
				return fmt.Errorf("%s traversal: %w", in.label(), err)
			}
			travPUs[i] = c.Resources().Total
		}
		// The warm-up op: one solver compile of the smallest instance.
		in := solverInstances[0]
		prog, err := buildProgram(in.workload, in.par, in.scale)
		if err != nil {
			return err
		}
		t0 := time.Now()
		c, err := core.Compile(prog, solverConfig())
		if err != nil {
			return fmt.Errorf("%s: %w", in.label(), err)
		}
		return checkSolver(in, c, time.Since(t0), travPUs[0])
	})
	if err != nil {
		return err
	}

	designs := make([]*core.Compiled, len(solverInstances))
	var req int64
	tracedOps, tracedNodes := 0, 0
	err = b.measure(func() (pass, error) {
		var p pass
		for _, i := range b.rng.Perm(len(solverInstances)) {
			in := solverInstances[i]
			prog, err := buildProgram(in.workload, in.par, in.scale)
			if err != nil {
				return p, err
			}
			cfg := solverConfig()
			t0 := time.Now()
			c, err := core.Compile(prog, cfg)
			t1 := time.Now()
			b.attempted++
			p.ops++
			p.busy += t1.Sub(t0)
			if err != nil {
				b.fail("%s: %v", in.label(), err)
				continue
			}
			req++
			if b.tr.on {
				traceCompile(b.tr, 0, req, c, t0, t1)
				tracedOps++
				tracedNodes += c.MIPNodes()
			}
			b.record(in.label(), t1.Sub(t0))
			if err := checkSolver(in, c, t1.Sub(t0), travPUs[i]); err != nil {
				b.fail("%v", err)
				continue
			}
			if prev := designs[i]; prev != nil && prev.Resources() != c.Resources() {
				b.fail("%s: design changed between compiles: %+v vs %+v", in.label(), c.Resources(), prev.Resources())
			}
			designs[i] = c
		}
		return p, nil
	})
	if err != nil {
		return err
	}

	var cycles, pus int64
	for i, c := range designs {
		if c == nil {
			return fmt.Errorf("%s: no compile succeeded", solverInstances[i].label())
		}
		r, err := sim.Cycle(c.Design(), 0)
		if err != nil {
			return fmt.Errorf("%s: simulating the solver design: %w", solverInstances[i].label(), err)
		}
		cycles += r.Cycles
		pus += int64(c.Resources().Total)
	}
	b.designs(cycles, pus)
	if b.passes[1] > 0 {
		b.layer["mip.nodes"] = float64(tracedNodes) / float64(b.passes[1])
	}
	compileLayers(b, tracedOps, tracedNodes)
	return nil
}
