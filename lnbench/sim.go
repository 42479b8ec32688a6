package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/cpu"
	"repro/internal/exp"
	"repro/internal/hier"
	"repro/internal/stats"
	"repro/internal/workload"
)

// suite is the class-balanced benchmark subset of the Fig. 4/5 quick
// benchmarks: two INT and two FP workloads, one of each memory-bound.
var suite = []string{"403.gcc", "429.mcf", "434.zeusmp", "482.sphinx3"}

// simMode is the window every sim-* cell runs: exp's quick mode, the
// window the figure-shape tests and the in-repo Go benchmarks use.
var simMode = exp.Quick

// cell is one spec x benchmark point of a simulator matrix.
type cell struct {
	spec exp.Spec
	prof workload.Profile
}

func (c cell) name() string { return c.spec.Label() + "/" + c.prof.Name }

// simCells expands the workload's spec set over the suite, spec-major
// like exp.Matrix.
func simCells(workloadName string) ([]cell, error) {
	var specs []exp.Spec
	switch workloadName {
	case "sim-fig5":
		specs = exp.DNUCASpecs()
	case "sim-fig4":
		specs = exp.ConventionalSpecs()
	default:
		return nil, fmt.Errorf("not a simulator workload: %s", workloadName)
	}
	var out []cell
	for _, s := range specs {
		for _, n := range suite {
			p, ok := workload.ByName(n)
			if !ok {
				return nil, fmt.Errorf("benchmark %s missing from the catalog", n)
			}
			out = append(out, cell{spec: s, prof: p})
		}
	}
	return out, nil
}

func newGenerator(c cell, seed uint64) (cpu.Stream, error) {
	g, err := workload.NewGenerator(c.prof, seed)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.name(), err)
	}
	return g, nil
}

// buildCell builds a cell with the options exp.RunOneCtx uses; stream,
// when non-nil, replaces the core's generator.
func buildCell(c cell, seed uint64, stream cpu.Stream) (*hier.System, error) {
	return hier.Build(c.spec.Kind, c.prof, hier.Options{
		LNUCALevels: c.spec.Levels,
		Seed:        seed,
		MaxInstr:    simMode.Warmup + simMode.Measure,
		Stream:      stream,
	})
}

// cellOutcome is what the output check compares for one cell.
type cellOutcome struct {
	Cell   string  `json:"cell"`
	IPC    float64 `json:"ipc"`
	Cycles uint64  `json:"cycles"`
	Digest string  `json:"digest"`
}

func outcomeOf(name string, ipc float64, cycles uint64, st *stats.Set) cellOutcome {
	return cellOutcome{Cell: name, IPC: ipc, Cycles: cycles, Digest: statsDigest(st)}
}

// matrixRun is one serial pass over a simulator matrix.
type matrixRun struct {
	wall   time.Duration
	cellMs []float64
	// cellMeasureS is each cell's measured-window wall time.
	cellMeasureS []float64
	instr        uint64 // committed in the measured windows
	outcomes     []cellOutcome
	stats        []*stats.Set
	flits, msgs  uint64 // D-NUCA mesh traffic (dn.net_*)
}

// settle collects the previous cell's garbage before the next cell
// starts, outside every timed interval, so that the process's peak
// resident set is the largest single cell's rather than a function of
// when the collector happened to run.
func settle() { runtime.GC() }

// runMatrix runs every cell through exp.RunOneCtx, serially.
func runMatrix(ctx context.Context, cells []cell, seed uint64) (matrixRun, error) {
	var m matrixRun
	start := time.Now()
	for _, c := range cells {
		settle()
		t0 := time.Now()
		r := exp.RunOneCtx(ctx, c.spec, c.prof, simMode, seed, nil)
		m.cellMs = append(m.cellMs, msSince(t0))
		if r.Err != nil {
			return m, fmt.Errorf("%s: %w", c.name(), r.Err)
		}
		m.instr += r.Phases.Instructions
		m.cellMeasureS = append(m.cellMeasureS, r.Phases.MeasureSeconds)
		m.flits += r.Stats.Counter("dn.net_flit_hops")
		m.msgs += r.Stats.Counter("dn.net_msgs")
		m.outcomes = append(m.outcomes, outcomeOf(c.name(), r.IPC, r.Cycles, r.Stats))
		m.stats = append(m.stats, r.Stats)
	}
	m.wall = time.Since(start)
	return m, nil
}

// setupPass times hier.Build plus System.Prewarm over every cell — the
// set-up cost each point of a sweep pays — and checks the prewarmed
// systems' structural invariants.
func setupPass(cells []cell, seed uint64) (time.Duration, error) {
	var total time.Duration
	for _, c := range cells {
		settle()
		t0 := time.Now()
		sys, err := buildCell(c, seed, nil)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", c.name(), err)
		}
		sys.Prewarm()
		total += time.Since(t0)
		if err := sys.CheckInvariants(); err != nil {
			return 0, fmt.Errorf("%s after prewarm: %w", c.name(), err)
		}
	}
	return total, nil
}

// measureSystem replays exp's measurement sequence on a prewarmed
// system through its public methods: the warmup window in
// commit-clamped chunks, then the measured window, with statistics
// taken as the delta from the warmup boundary.
// It also returns the wall time spent inside System.Run.
func measureSystem(ctx context.Context, sys *hier.System) (*stats.Set, float64, uint64, float64, error) {
	const chunk = 2048
	var runS float64
	run := func(cycles uint64) {
		t0 := time.Now()
		sys.Run(cycles)
		runS += time.Since(t0).Seconds()
	}
	for sys.Core.Committed < simMode.Warmup && !sys.Kernel.Stopped() {
		if err := ctx.Err(); err != nil {
			return nil, 0, 0, 0, err
		}
		run(clampChunk(chunk, simMode.Warmup-sys.Core.Committed, sys.Core.MaxCommitPerCycle()))
	}
	start := sys.Collect()
	startCycles := sys.Core.Cycles
	for !sys.Kernel.Stopped() {
		if err := ctx.Err(); err != nil {
			return nil, 0, 0, 0, err
		}
		run(chunk)
	}
	d := stats.Delta(sys.Collect(), start)
	cycles := sys.Core.Cycles - startCycles
	ipc := 0.0
	if cycles > 0 {
		ipc = float64(d.Counter("core.committed")) / float64(cycles)
	}
	return d, ipc, cycles, runS, nil
}

// clampChunk is exp's window-boundary rule: never run more cycles than
// the remaining budget could commit at full width, and at least one.
func clampChunk(chunk, rem uint64, commitWidth int) uint64 {
	if commitWidth < 1 {
		commitWidth = 1
	}
	bound := rem / uint64(commitWidth)
	if bound < 1 {
		bound = 1
	}
	if bound < chunk {
		return bound
	}
	return chunk
}

// runtimeSample reads the GC CPU and allocation counters the traced run
// reports as deltas.
func runtimeSample() (gcCPU, allocBytes float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		allocBytes = float64(s[1].Value.Uint64())
	}
	return gcCPU, allocBytes
}
