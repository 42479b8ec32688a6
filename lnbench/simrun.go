package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"time"
)

// setupPasses is how many times a sim-* run times the matrix's set-up;
// setup_s is their median.
const setupPasses = 15

// minMatrixReps is the fewest matrix passes a sim-* run measures, even
// when one pass outlasts the time budget.
const minMatrixReps = 2

// profileSeconds is the least untraced time a traced sim-* run profiles.
const profileSeconds = 3 * time.Second

// runSim runs sim-fig5 or sim-fig4: the untraced run measures
// repeated serial matrix passes; the traced run profiles untraced
// passes and times one pass through the timing wrappers.
func runSim(ctx context.Context, o options, res *result, rep *report) error {
	cells, err := simCells(o.workload)
	if err != nil {
		return err
	}
	pins, err := loadPins()
	if err != nil {
		return err
	}
	want, pinned := pins.lookup(o.workload, o.seed)
	check := outputCheck{want: want, pinned: pinned}
	rep.add("%s seed=%d cells=%d window=%s(%d+%d) pinned=%v", o.workload, o.seed, len(cells),
		simMode.Name, simMode.Warmup, simMode.Measure, pinned)
	if o.trace {
		err = simTraced(ctx, o, cells, &check, res, rep)
	} else {
		err = simUntraced(ctx, o, cells, &check, res, rep)
	}
	if err != nil {
		return err
	}
	res.Attempted, res.Failed = check.attempted, check.failed
	res.Correct = check.failed == 0
	for _, e := range check.errors {
		rep.add("  CHECK FAILED: %s", e)
	}
	failFrac(rep, res)
	return nil
}

func simUntraced(ctx context.Context, o options, cells []cell, check *outputCheck, res *result, rep *report) error {
	var setups []float64
	for i := 0; i < setupPasses; i++ {
		d, err := setupPass(cells, o.seed)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}

	// Each cell's wall and measure-window times are kept per pass; the
	// matrix's figures sum the cells' medians across passes, so a burst
	// of host noise that slows one pass's cells does not move them.
	cellWall := make([][]float64, len(cells))
	cellMeasure := make([][]float64, len(cells))
	var cellMs []float64
	var instr uint64
	passes := 0
	budget := time.Duration(o.seconds) * time.Second
	start := time.Now()
	for passes < minMatrixReps || time.Since(start) < budget {
		m, err := runMatrix(ctx, cells, o.seed)
		if err != nil {
			return err
		}
		check.matrix(m.outcomes)
		for i := range cells {
			cellWall[i] = append(cellWall[i], m.cellMs[i]/1e3)
			cellMeasure[i] = append(cellMeasure[i], m.cellMeasureS[i])
		}
		cellMs = append(cellMs, m.cellMs...)
		instr = m.instr
		passes++
	}
	var matrixS, measureS float64
	for i := range cells {
		matrixS += median(cellWall[i])
		measureS += median(cellMeasure[i])
	}
	rss, err := vmHWM("self")
	if err != nil {
		return err
	}
	res.Metrics["mips"] = metric{float64(instr) / measureS / 1e6, "Minstr/s"}
	res.Metrics["matrix_s"] = metric{matrixS, "s"}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["peak_rss_mb"] = metric{rss, "MiB"}
	res.Metrics["job_ms_mean"] = metric{1e3 * matrixS / float64(len(cells)), "ms"}
	res.Metrics["job_ms_p50"] = metric{median(cellMs), "ms"}
	res.Metrics["sweep_jobs_per_s"] = metric{float64(len(cells)) / matrixS, "jobs/s"}
	rep.add("  matrix passes=%d setup passes=%d", passes, len(setups))
	tailMetric(rep, res, "job_ms_tail", cellMs)
	return nil
}

func simTraced(ctx context.Context, o options, cells []cell, check *outputCheck, res *result, rep *report) error {
	profPath := filepath.Join(o.workDir, "cpu.pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return err
	}
	// The profile covers whole untraced passes, at least profileSeconds
	// of them, so that sim-fig4's short matrix still gets enough samples.
	gc0, alloc0 := runtimeSample()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	var plain matrixRun
	var cellMs []float64
	passes := 0
	start := time.Now()
	for err == nil && (passes == 0 || time.Since(start) < profileSeconds) {
		plain, err = runMatrix(ctx, cells, o.seed)
		if err == nil {
			check.matrix(plain.outcomes)
			cellMs = append(cellMs, plain.cellMs...)
			passes++
		}
	}
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	gc1, alloc1 := runtimeSample()

	t0 := time.Now()
	traced, err := tracedMatrix(ctx, cells, o.seed)
	if err != nil {
		return err
	}
	tracedWall := time.Since(t0)
	if err := sameOutcomes(plain.outcomes, traced.outcomes); err != nil {
		check.fail(len(cells), "traced run differs from the untraced run: %v", err)
	} else {
		check.attempted += len(cells)
	}

	top, err := exec.CommandContext(ctx, "go", "tool", "pprof", "-top", "-nodecount=1000000", profPath).Output()
	if err != nil {
		return fmt.Errorf("go tool pprof -top: %w", err)
	}
	shares, err := packageShares(string(top))
	if err != nil {
		return err
	}
	for _, pkg := range []string{"noc", "cpu", "cache", "lnuca", "dnuca", "sim", "mem", "workload", "runtime"} {
		res.Metrics[pkg+".cpu_share"] = metric{shares[pkg], "ratio"}
	}
	traced.layerMetrics(res.Metrics)
	res.Metrics["noc.flit_hops"] = metric{float64(plain.flits), "count"}
	res.Metrics["noc.msgs"] = metric{float64(plain.msgs), "count"}
	res.Metrics["runtime.gc_cpu_s"] = metric{(gc1 - gc0) / float64(passes), "s"}
	instr := float64(passes*len(cells)) * float64(simMode.Warmup+simMode.Measure)
	res.Metrics["runtime.alloc_bytes_per_kinstr"] = metric{(alloc1 - alloc0) / (instr / 1000), "B/kinstr"}
	res.Metrics["trace.overhead"] = metric{tracedWall.Seconds() / plain.wall.Seconds(), "ratio"}
	tailMetric(rep, res, "job_ms_tail", cellMs)
	res.Metrics["job_ms_p50"] = metric{median(cellMs), "ms"}
	rep.add("  profiled untraced passes=%d, last matrix_s %.3fs; traced matrix_s %.3fs",
		passes, plain.wall.Seconds(), tracedWall.Seconds())
	return nil
}
