package exp

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/hier"
)

// resultFingerprint reduces a run to the byte string equivalence is
// asserted on: the full statistics set plus the headline numbers.
func resultFingerprint(t *testing.T, stats json.Marshaler, cycles uint64, ipc float64) string {
	t.Helper()
	b, err := json.Marshal(stats)
	if err != nil {
		t.Fatalf("marshal stats: %v", err)
	}
	return fmt.Sprintf("cycles=%d ipc=%.17g stats=%s", cycles, ipc, b)
}

// TestGatingShuffleEquivalence runs the {gated, ungated} x {registration
// order, shuffled registration} cross-product for all four Fig. 1
// hierarchies and asserts byte-identical statistics: the quiescence
// fast-forward must not change a single counter, under any component
// registration order.
func TestGatingShuffleEquivalence(t *testing.T) {
	bench := mustProfile(t, "429.mcf") // memory-bound: maximal stall/skip coverage
	for _, kind := range []hier.Kind{hier.Conventional, hier.LNUCAL3, hier.DNUCAOnly, hier.LNUCADNUCA} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			base := RunOne(Spec{Kind: kind, Levels: 3}, bench, Quick, 7)
			if base.Err != nil {
				t.Fatal(base.Err)
			}
			want := resultFingerprint(t, base.Stats, base.Cycles, base.IPC)
			for _, ungated := range []bool{false, true} {
				for _, shuffle := range []uint64{0, 0xBADC0FFEE} {
					if !ungated && shuffle == 0 {
						continue // the baseline itself
					}
					r := RunOne(Spec{Kind: kind, Levels: 3, Ungated: ungated, ShuffleRegistration: shuffle},
						bench, Quick, 7)
					if r.Err != nil {
						t.Fatalf("ungated=%v shuffle=%#x: %v", ungated, shuffle, r.Err)
					}
					got := resultFingerprint(t, r.Stats, r.Cycles, r.IPC)
					if got != want {
						t.Errorf("ungated=%v shuffle=%#x diverged from gated in-order run:\n got %.200s...\nwant %.200s...",
							ungated, shuffle, got, want)
					}
				}
			}
		})
	}
}

// TestGatingShuffleEquivalenceCMPMix is the multi-programmed leg of the
// cross-product: a 4-core mix over the shared LLC, gated vs ungated,
// in-order vs shuffled registration, must agree bit for bit.
func TestGatingShuffleEquivalenceCMPMix(t *testing.T) {
	mix := MixSpec{
		Kind:       hier.LNUCAL3,
		Levels:     3,
		Benchmarks: []string{"403.gcc", "429.mcf", "470.lbm", "482.sphinx3"},
	}
	base := RunMix(mix, Quick, 11)
	if base.Err != nil {
		t.Fatal(base.Err)
	}
	want := resultFingerprint(t, base.Stats, base.Cycles, base.Throughput)
	for _, ungated := range []bool{false, true} {
		for _, shuffle := range []uint64{0, 0x5EEDED} {
			if !ungated && shuffle == 0 {
				continue
			}
			m := mix
			m.Ungated = ungated
			m.ShuffleRegistration = shuffle
			r := RunMix(m, Quick, 11)
			if r.Err != nil {
				t.Fatalf("ungated=%v shuffle=%#x: %v", ungated, shuffle, r.Err)
			}
			got := resultFingerprint(t, r.Stats, r.Cycles, r.Throughput)
			if got != want {
				t.Errorf("ungated=%v shuffle=%#x diverged:\n got %.200s...\nwant %.200s...",
					ungated, shuffle, got, want)
			}
		}
	}
}

// TestGatingSkipsWork pins how much simulation work activity gating
// saves on the Fig. 5 quick suite (the D-NUCA specs x the four
// benchmarks the throughput benchmarks use): the component Evals an
// ungated run executes, over those of the gated run, must stay >= 5.
// Evals are SteppedCycles x AvgActiveComponents from each run's Phases.
// The count is deterministic, unlike a wall-clock ratio, and it drops
// if any component stops reporting itself idle.
func TestGatingSkipsWork(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Fig. 5 quick suite twice")
	}
	var evals [2]float64 // gated, ungated
	for i, ungated := range []bool{false, true} {
		for _, s := range DNUCASpecs() {
			s.Ungated = ungated
			for _, name := range []string{"403.gcc", "429.mcf", "434.zeusmp", "482.sphinx3"} {
				r := RunOne(s, mustProfile(t, name), Quick, 1)
				if r.Err != nil {
					t.Fatalf("%s %s ungated=%v: %v", s.Label(), name, ungated, r.Err)
				}
				evals[i] += float64(r.Phases.SteppedCycles) * r.Phases.AvgActiveComponents
			}
		}
	}
	ratio := evals[1] / evals[0]
	t.Logf("component Evals: gated %.0f, ungated %.0f, ratio %.2f", evals[0], evals[1], ratio)
	if ratio < 5.0 {
		t.Fatalf("ungated/gated component Evals = %.2f, want >= 5.0", ratio)
	}
}
