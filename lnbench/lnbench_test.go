package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{0, 1, 10} {
		if _, _, ok := tail(make([]float64, n)); ok {
			t.Errorf("n=%d: got a tail, want none (needs more than ten samples)", n)
		}
	}
	for _, tc := range []struct {
		n       int
		wantPct float64
	}{{11, 100.0 / 11}, {20, 50}, {100, 90}, {1000, 99}} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // descending: tail must sort
		}
		pct, v, ok := tail(xs)
		if !ok {
			t.Fatalf("n=%d: no tail", tc.n)
		}
		if math.Abs(pct-tc.wantPct) > 1e-9 {
			t.Errorf("n=%d: percentile %v, want %v", tc.n, pct, tc.wantPct)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != 10 {
			t.Errorf("n=%d: %d samples beyond the tail value %v, want 10", tc.n, beyond, v)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{0, 100}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 40}}, 80},
		{"overlapping count once", []interval{{10, 30}, {20, 50}, {25, 35}}, 60},
		{"nested", []interval{{10, 60}, {20, 30}}, 50},
		{"clipped to the parent", []interval{{-50, 10}, {90, 200}}, 80},
		{"outside the parent", []interval{{-30, -10}, {100, 120}}, 100},
		{"covering the parent", []interval{{-1, 101}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestAnalyzeTree(t *testing.T) {
	spans := []span{
		mkSpan("a", "", "lnuca.client.submit", 0, 10),
		mkSpan("b", "a", "lnuca.orch.submit", 2, 8),
		mkSpan("c", "b", "lnuca.orch.job", 5, 100),
		mkSpan("d", "c", "lnuca.orch.queue", 5, 20),
		mkSpan("e", "c", "lnuca.orch.run", 20, 99),
		mkSpan("f", "e", "lnuca.fleet.dispatch", 21, 98),
		mkSpan("g", "f", "lnuca.worker.execute", 60, 90),
		mkSpan("h", "g", "lnuca.worker.leasewait", 0, 60),
	}
	tr := analyzeTree(spans)
	if tr.roots != 1 || !tr.hasExecute {
		t.Fatalf("roots=%d hasExecute=%v, want one root and an execute span", tr.roots, tr.hasExecute)
	}
	for name, want := range map[string]float64{
		"lnuca.client.submit":  4,  // 10 minus orch.submit's 6
		"lnuca.orch.submit":    3,  // 6 minus the 3 ms orch.job overlaps
		"lnuca.fleet.dispatch": 47, // 77 minus execute's 30
		"lnuca.worker.execute": 30, // leasewait ends as execute starts
	} {
		if got := tr.self[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("self(%s) = %v ms, want %v", name, got, want)
		}
	}
	orphan := append(spans[:len(spans):len(spans)], mkSpan("x", "missing", "lnuca.orch.cachehit", 0, 1))
	if tr := analyzeTree(orphan); tr.roots != 2 {
		t.Errorf("a span whose parent is missing is a second root: roots=%d", tr.roots)
	}
}

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func mkSpan(id, parent, name string, startMs, endMs int64) span {
	return span{SpanID: id, Parent: parent, Name: name,
		Start: epoch.Add(time.Duration(startMs) * time.Millisecond),
		End:   epoch.Add(time.Duration(endMs) * time.Millisecond)}
}

const pprofTop = `File: lnbench
Type: cpu
Time: Oct 17, 2026 at 7:01am (UTC)
Duration: 3.01s, Total samples = 2.50s (83.06%)
Showing nodes accounting for 2.50s, 100% of 2.50s total
      flat  flat%   sum%        cum   cum%
     1.50s 60.00% 60.00%      1.60s 64.00%  repro/internal/noc.(*Mesh).Step
     500ms 20.00% 80.00%      500ms 20.00%  repro/internal/cpu.(*Core).Eval
     200ms  8.00% 88.00%      200ms  8.00%  repro/internal/sim.(*Queue[go.shape.struct { repro/internal/mem.Addr }]).Push (inline)
     0.20s  8.00% 96.00%      0.20s  8.00%  runtime.mallocgc
     100ms  4.00%   100%      100ms  4.00%  repro/internal/noc.route
         0     0%   100%      2.40s 96.00%  main.main
`

func TestPackageShares(t *testing.T) {
	shares, err := packageShares(pprofTop)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"noc": 0.64, "cpu": 0.2, "sim": 0.08, "runtime": 0.08, "main": 0}
	for pkg, w := range want {
		if math.Abs(shares[pkg]-w) > 1e-9 {
			t.Errorf("share of %s = %v, want %v", pkg, shares[pkg], w)
		}
	}
	var total float64
	for _, v := range shares {
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", total)
	}
	if _, err := packageShares("no table here\n"); err == nil {
		t.Error("output without a -top table: want an error")
	}
	if _, err := packageShares(strings.Replace(pprofTop, "500ms", "500parsecs", 1)); err == nil {
		t.Error("unknown unit: want an error")
	}
}

func TestParseProm(t *testing.T) {
	m, err := parseProm(strings.NewReader(`# HELP x y
# TYPE lnuca_http_requests_total counter
lnuca_http_requests_total{code="204",method="POST",route="/fleet/v1/lease"} 7
lnuca_http_requests_total{code="200",method="POST",route="/fleet/v1/lease"} 3
lnuca_http_requests_total{code="200",method="GET",route="/metrics"} 11
lnuca_fleet_workers_active 2
`))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.sum("lnuca_http_requests_total", `route="/fleet/v1/lease"`); got != 10 {
		t.Errorf("lease polls %v, want 10", got)
	}
	if got := m.sum("lnuca_fleet_workers_active", ""); got != 2 {
		t.Errorf("workers %v, want 2", got)
	}
}

// TestOutputCheckCatchesOneCounter runs the first sim-fig4 cell at the
// pinned seed, confirms it matches its pin, and then shows that moving
// any single statistics counter by one fails the check.
func TestOutputCheckCatchesOneCounter(t *testing.T) {
	cells, err := simCells("sim-fig4")
	if err != nil {
		t.Fatal(err)
	}
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	want, ok := pins.lookup("sim-fig4", 1)
	if !ok {
		t.Fatal("sim-fig4 seed 1 is not pinned")
	}
	m, err := runMatrix(context.Background(), cells[:1], 1)
	if err != nil {
		t.Fatal(err)
	}
	check := outputCheck{want: want[:1], pinned: true}
	check.matrix(m.outcomes)
	if check.failed != 0 || check.attempted != 1 {
		t.Fatalf("unperturbed cell: %d failed of %d (%v)", check.failed, check.attempted, check.errors)
	}

	st := m.stats[0]
	names := st.Names()
	sort.Strings(names)
	for _, n := range []string{names[0], names[len(names)/2], names[len(names)-1]} {
		bumped := st.Clone()
		bumped.Add(n, 1)
		got := outcomeOf(m.outcomes[0].Cell, m.outcomes[0].IPC, m.outcomes[0].Cycles, bumped)
		c := outputCheck{want: want[:1], pinned: true}
		c.matrix([]cellOutcome{got})
		if c.failed != 1 {
			t.Errorf("counter %s moved by one: check passed", n)
		}
	}
	// A pass that disagrees with the run's first pass fails even when
	// the seed is not pinned.
	c := outputCheck{}
	c.matrix(m.outcomes)
	bad := m.outcomes[0]
	bad.Cycles++
	c.matrix([]cellOutcome{bad})
	if c.failed != 1 {
		t.Errorf("second pass with one more cycle: %d failed, want 1", c.failed)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program in step: the
// same workloads, end-to-end metrics and per-layer metrics, with the
// same units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	var e2e, layers []named
	for _, e := range b.EndToEnd {
		e2e = append(e2e, named{e.Name, e.Unit})
	}
	for _, e := range b.PerLayer {
		layers = append(layers, named{e.Name, e.Unit})
	}
	sameNamed(t, "end_to_end", e2e, e2eMetrics)
	sameNamed(t, "per_layer", layers, layerMetricNames())
}

func sameNamed(t *testing.T, what string, a, b []named) {
	t.Helper()
	if len(a) != len(b) {
		t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", what, len(a), len(b))
		return
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("%s[%d]: BENCHMARK.json %v, program %v", what, i, a[i], b[i])
		}
	}
}
