package lightnuca_test

import (
	"context"
	"strings"
	"testing"

	lightnuca "repro"
)

// run executes one request on an in-process runner with default
// settings, the quickstart path.
func run(req lightnuca.Request) (lightnuca.Result, error) {
	return (&lightnuca.Local{}).Run(context.Background(), req)
}

func TestRunQuickstartPath(t *testing.T) {
	res, err := run(lightnuca.Request{Hierarchy: lightnuca.HierarchyName(lightnuca.LNUCAPlusL3), Benchmark: "453.povray"})
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 || res.Cycles == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.Config != "LN3-144KB" {
		t.Fatalf("Config = %q, want LN3-144KB", res.Config)
	}
	if res.Energy.Total() <= 0 {
		t.Fatal("no energy accounted")
	}
	if res.Stats.Counter("core.committed") == 0 {
		t.Fatal("stats not populated")
	}
}

func TestRunUnknownBenchmark(t *testing.T) {
	if _, err := run(lightnuca.Request{Hierarchy: "conventional", Benchmark: "999.bogus"}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestBenchmarksList(t *testing.T) {
	names := lightnuca.Benchmarks()
	if len(names) != 28 {
		t.Fatalf("got %d benchmarks, want 28", len(names))
	}
}

// TestBenchmarksDefensiveCopy: the returned slice is the caller's;
// scribbling on it must not corrupt the workload catalog another caller
// (or a later Run) reads.
func TestBenchmarksDefensiveCopy(t *testing.T) {
	names := lightnuca.Benchmarks()
	orig := names[0]
	for i := range names {
		names[i] = "666.mutated"
	}
	fresh := lightnuca.Benchmarks()
	if fresh[0] != orig {
		t.Fatalf("catalog mutated through the returned slice: %q", fresh[0])
	}
	if _, err := run(lightnuca.Request{Hierarchy: "conventional", Benchmark: orig}); err != nil {
		t.Fatalf("catalog lookup broken after mutation: %v", err)
	}
}

// TestRunRejectsHalfSpecifiedWindow: a warmup without a measured window
// used to be silently ignored; it must now be an error.
func TestRunRejectsHalfSpecifiedWindow(t *testing.T) {
	_, err := run(lightnuca.Request{Hierarchy: "conventional", Benchmark: "403.gcc", Warmup: 1000})
	if err == nil {
		t.Fatal("warmup-only window accepted")
	}
	if !strings.Contains(err.Error(), "measured window") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestTopology(t *testing.T) {
	out, err := lightnuca.Topology(3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "14 tiles") || !strings.Contains(out, "144 KB") {
		t.Fatalf("topology summary wrong:\n%s", out)
	}
	if _, err := lightnuca.Topology(1); err == nil {
		t.Fatal("1-level topology accepted")
	}
}

func TestTileTimingReport(t *testing.T) {
	out := lightnuca.TileTimingReport()
	if !strings.Contains(out, "FITS") {
		t.Fatalf("8KB tile should fit the cycle:\n%s", out)
	}
}

func TestAreaTable(t *testing.T) {
	if !strings.Contains(lightnuca.AreaTable(), "LN3-144KB") {
		t.Fatal("area table missing LN3 row")
	}
}

func TestCustomWindow(t *testing.T) {
	res, err := run(lightnuca.Request{
		Hierarchy: "conventional",
		Benchmark: "403.gcc",
		Warmup:    1000,
		Measure:   5000,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Stats.Counter("core.committed")
	if got < 4000 || got > 6000 {
		t.Fatalf("measured %d instructions, want ~5000", got)
	}
}
