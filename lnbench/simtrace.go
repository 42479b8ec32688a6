package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cpu"
	"repro/internal/hier"
	"repro/internal/sim"
)

// timingStride is the traced run's sampling rule: calls made on one
// kernel cycle in timingStride are timed, every call is counted, and a
// layer's time is its sampled time scaled by calls over sampled calls.
// Timing every call would cost two clock reads per Eval/Commit/poll,
// more than the conventional hierarchy's whole cycle.
const timingStride = 8

// clockCost is the calibrated cost of timing: inner is what an empty
// timed interval measures (the bias in every sample), pair what one
// begin/end pair costs its caller (the bias a timed call nested inside
// another timed call adds to the outer one). Both in nanoseconds.
type clockCost struct{ inner, pair float64 }

// calibrateClock measures clockCost by timing empty intervals, in
// batches, keeping the median batch so that a burst of host noise
// during calibration does not skew every estimate.
func calibrateClock() clockCost {
	const batches, n = 9, 20000
	var inner, pair []float64
	for b := 0; b < batches; b++ {
		var t callTimer
		start := time.Now()
		for i := 0; i < n; i++ {
			t0, timed := t.begin(0)
			t.end(t0, timed)
		}
		pair = append(pair, float64(time.Since(start))/n)
		inner = append(inner, float64(t.ns)/n)
	}
	return clockCost{inner: median(inner), pair: median(pair)}
}

// callTimer counts the calls into one method of one layer and times the
// sampled ones.
type callTimer struct {
	calls, sampled uint64
	ns             int64
}

func (t *callTimer) begin(cycle sim.Cycle) (time.Time, bool) {
	t.calls++
	if cycle%timingStride != 0 {
		return time.Time{}, false
	}
	return time.Now(), true
}

func (t *callTimer) end(t0 time.Time, timed bool) {
	if timed {
		t.ns += int64(time.Since(t0))
		t.sampled++
	}
}

// seconds estimates the layer's total time from the sampled calls,
// less the clock's own bias in each sample and less nestedNs, the
// sampled time that belongs to calls nested inside this one. Calls
// cheaper than the clock's bias (some Commits) can read 0.
func (t *callTimer) seconds(cc clockCost, nestedNs float64) float64 {
	if t.sampled == 0 {
		return 0
	}
	ns := float64(t.ns) - float64(t.sampled)*cc.inner - nestedNs
	if ns < 0 {
		ns = 0
	}
	return ns / 1e9 * float64(t.calls) / float64(t.sampled)
}

// nestedNs is the sampled time t's calls take from an enclosing timed
// call: their measured time plus the rest of their timing cost.
func (t *callTimer) nestedNs(cc clockCost) float64 {
	return float64(t.ns) + float64(t.sampled)*(cc.pair-cc.inner)
}

func (t *callTimer) add(o callTimer) {
	t.calls += o.calls
	t.sampled += o.sampled
	t.ns += o.ns
}

// timedComp wraps one simulated component. It delegates the two-phase
// clock (Eval, Commit) and the quiescence protocol (NextEvent, SkipTo)
// unchanged, so the kernel sees the same component and gates the same
// way, and it times the calls on the sampling stride.
type timedComp struct {
	inner              sim.Quiescent
	eval, commit, poll callTimer
}

func (t *timedComp) Name() string { return t.inner.Name() }

func (t *timedComp) Eval(k *sim.Kernel) {
	t0, timed := t.eval.begin(k.Cycle())
	t.inner.Eval(k)
	t.eval.end(t0, timed)
}

func (t *timedComp) Commit(k *sim.Kernel) {
	t0, timed := t.commit.begin(k.Cycle())
	t.inner.Commit(k)
	t.commit.end(t0, timed)
}

func (t *timedComp) NextEvent(now sim.Cycle) (sim.Cycle, bool) {
	t0, timed := t.poll.begin(now)
	w, idle := t.inner.NextEvent(now)
	t.poll.end(t0, timed)
	return w, idle
}

func (t *timedComp) SkipTo(now, target sim.Cycle) {
	t0, timed := t.poll.begin(now)
	t.inner.SkipTo(now, target)
	t.poll.end(t0, timed)
}

// timedStream wraps the core's op generator; its calls happen inside
// the core's Eval and are sampled on the same cycles.
type timedStream struct {
	inner cpu.Stream
	k     *sim.Kernel
	next  callTimer
}

func (s *timedStream) Next() (cpu.Op, bool) {
	var cycle sim.Cycle
	if s.k != nil {
		cycle = s.k.Cycle()
	}
	t0, timed := s.next.begin(cycle)
	op, ok := s.inner.Next()
	s.next.end(t0, timed)
	return op, ok
}

// layerNames are the traced components, in hier.Build's registration
// order, under the metric prefix of the package that implements each.
var layerNames = []string{"cpu.core", "cache.l1", "cache.l2", "cache.l3", "lnuca.fabric", "dnuca.dn", "mem.dram"}

// layerTimes accumulates one traced matrix.
type layerTimes struct {
	comps    map[string]*[3]callTimer // eval, commit, poll
	next     callTimer
	runS     float64
	buildS   float64
	prewarmS float64
	kernel   sim.KernelStats
	outcomes []cellOutcome
	clock    clockCost
}

// tracedMatrix runs every cell with timing wrappers: after hier.Build
// the system's kernel is replaced by a fresh one holding a wrapper of
// each component, and the core reads its ops through a timed generator.
// The run then follows exp's prewarm / warmup / measure sequence.
func tracedMatrix(ctx context.Context, cells []cell, seed uint64) (layerTimes, error) {
	lt := layerTimes{comps: map[string]*[3]callTimer{}, clock: calibrateClock()}
	for _, name := range layerNames {
		lt.comps[name] = &[3]callTimer{}
	}
	for _, c := range cells {
		gen, err := newGenerator(c, seed)
		if err != nil {
			return lt, err
		}
		stream := &timedStream{inner: gen}
		settle()
		t0 := time.Now()
		sys, err := buildCell(c, seed, stream)
		lt.buildS += time.Since(t0).Seconds()
		if err != nil {
			return lt, fmt.Errorf("%s: %w", c.name(), err)
		}
		wrapped, err := rewire(sys)
		if err != nil {
			return lt, fmt.Errorf("%s: %w", c.name(), err)
		}
		stream.k = sys.Kernel
		t0 = time.Now()
		sys.Prewarm()
		lt.prewarmS += time.Since(t0).Seconds()
		st, ipc, cycles, runS, err := measureSystem(ctx, sys)
		if err != nil {
			return lt, fmt.Errorf("%s: %w", c.name(), err)
		}
		if err := sys.CheckInvariants(); err != nil {
			return lt, fmt.Errorf("%s after the run: %w", c.name(), err)
		}
		lt.runS += runS
		for name, w := range wrapped {
			acc := lt.comps[name]
			acc[0].add(w.eval)
			acc[1].add(w.commit)
			acc[2].add(w.poll)
		}
		lt.next.add(stream.next)
		ks := sys.Kernel.Stats()
		lt.kernel.Stepped += ks.Stepped
		lt.kernel.SkippedCycles += ks.SkippedCycles
		lt.kernel.ActiveEvals += ks.ActiveEvals
		lt.outcomes = append(lt.outcomes, outcomeOf(c.name(), ipc, cycles, st))
	}
	return lt, nil
}

// rewire replaces sys.Kernel with a fresh gated kernel whose components
// are timing wrappers of sys's own, registered in hier.Build's order.
func rewire(sys *hier.System) (map[string]*timedComp, error) {
	parts := []struct {
		name string
		comp sim.Quiescent
		ok   bool
	}{
		{"cpu.core", sys.Core, sys.Core != nil},
		{"cache.l1", sys.L1, sys.L1 != nil},
		{"cache.l2", sys.L2, sys.L2 != nil},
		{"lnuca.fabric", sys.Fabric, sys.Fabric != nil},
		{"cache.l3", sys.L3, sys.L3 != nil},
		{"dnuca.dn", sys.DN, sys.DN != nil},
		{"mem.dram", sys.Memory, sys.Memory != nil},
	}
	k := sim.NewKernel()
	out := map[string]*timedComp{}
	for _, p := range parts {
		if !p.ok {
			continue
		}
		w := &timedComp{inner: p.comp}
		if err := k.Register(w); err != nil {
			return nil, err
		}
		out[p.name] = w
	}
	if k.NumComponents() != sys.Kernel.NumComponents() {
		return nil, fmt.Errorf("rewired %d components, the built kernel holds %d", k.NumComponents(), sys.Kernel.NumComponents())
	}
	k.SetGating(sys.Kernel.Gating())
	sys.Kernel = k
	return out, nil
}

// layerMetrics turns a traced matrix into the per-layer metrics. The
// core's Eval time is its self time: the op generator runs inside it.
// Kernel self time is the time inside System.Run that no component
// call accounts for, tracing cost included.
func (lt layerTimes) layerMetrics(m map[string]metric) {
	cc := lt.clock
	next := lt.next.seconds(cc, 0)
	compS := next
	var polls uint64
	var pollS float64
	for _, name := range layerNames {
		acc := lt.comps[name]
		nested := 0.0
		if name == "cpu.core" {
			nested = lt.next.nestedNs(cc)
		}
		eval, commit, poll := acc[0].seconds(cc, nested), acc[1].seconds(cc, 0), acc[2].seconds(cc, 0)
		m[name+".eval_s"] = metric{eval, "s"}
		m[name+".commit_s"] = metric{commit, "s"}
		m[name+".evals"] = metric{float64(acc[0].calls), "count"}
		compS += eval + commit + poll
		polls += acc[2].calls
		pollS += poll
	}
	m["sim.kernel_self_s"] = metric{lt.runS - compS, "s"}
	m["sim.poll_s"] = metric{pollS, "s"}
	m["sim.polls"] = metric{float64(polls), "count"}
	m["sim.stepped_cycles"] = metric{float64(lt.kernel.Stepped), "count"}
	m["sim.ff_cycles"] = metric{float64(lt.kernel.SkippedCycles), "count"}
	m["sim.skip_ratio"] = metric{lt.kernel.SkipRatio(), "ratio"}
	m["sim.avg_active"] = metric{lt.kernel.AvgActive(), "count"}
	m["workload.next_s"] = metric{next, "s"}
	m["workload.ops"] = metric{float64(lt.next.calls), "count"}
	m["hier.build_s"] = metric{lt.buildS, "s"}
	m["hier.prewarm_s"] = metric{lt.prewarmS, "s"}
}

// sameOutcomes reports the first cell whose outcome differs between
// two runs of the same matrix.
func sameOutcomes(a, b []cellOutcome) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d cells against %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("%s: %+v against %+v", a[i].Cell, a[i], b[i])
		}
	}
	return nil
}
