package noc

// Steady-state mesh benchmarks: one op = one Step of a DN-4x8-shaped
// mesh (8x5 routers, 4 VCs, 4-flit buffers) plus the injection and
// ejection traffic around it, so ns/cycle and allocs/op read per
// simulated cycle. Messages come from a preallocated pool and return to
// it on ejection; after warmup a Step must allocate nothing.

import (
	"testing"

	"repro/internal/sim"
)

// meshLoad drives a mesh with seeded traffic from a fixed message pool.
type meshLoad struct {
	m    *Mesh
	rng  *sim.Rand
	free []*Message
	// rate is the per-node injection probability per cycle; hotspot
	// sends every message to the controller node (0,0).
	rate    float64
	hotspot bool
	now     sim.Cycle
}

func newMeshLoad(rate float64, hotspot bool) *meshLoad {
	l := &meshLoad{
		m:       NewMesh(MeshConfig{Width: 8, Height: 5, VCs: 4, VCDepth: 4}),
		rng:     sim.NewRand(1),
		rate:    rate,
		hotspot: hotspot,
	}
	for i := 0; i < 4096; i++ {
		l.free = append(l.free, &Message{ID: uint64(i)})
	}
	return l
}

func (l *meshLoad) cycle() {
	cfg := l.m.Config()
	if l.rate > 0 {
		for y := 0; y < cfg.Height; y++ {
			for x := 0; x < cfg.Width; x++ {
				if len(l.free) == 0 || !l.rng.Bool(l.rate) {
					continue
				}
				msg := l.free[len(l.free)-1]
				msg.Src = Coord{x, y}
				msg.Dst = Coord{l.rng.Intn(cfg.Width), l.rng.Intn(cfg.Height)}
				if l.hotspot {
					msg.Dst = Coord{}
				}
				msg.Flits = 1 + l.rng.Intn(5)
				if l.m.Inject(msg, l.now) {
					l.free = l.free[:len(l.free)-1]
				}
			}
		}
	}
	l.m.Step(l.now)
	if l.m.Ejected() > 0 {
		for y := 0; y < cfg.Height; y++ {
			for x := 0; x < cfg.Width; x++ {
				for {
					msg, ok := l.m.EjectOne(Coord{x, y})
					if !ok {
						break
					}
					l.free = append(l.free, msg)
				}
			}
		}
	}
	l.now++
}

// BenchmarkMeshStepAllocs pins the mesh's own per-cycle cost and
// allocation rate when idle, under light uniform traffic, and saturated
// by every node sending to one hotspot.
func BenchmarkMeshStepAllocs(b *testing.B) {
	for _, bc := range []struct {
		name    string
		rate    float64
		hotspot bool
	}{
		{"idle", 0, false},
		{"light", 0.02, false},
		{"saturated-hotspot", 1, true},
	} {
		bc := bc
		b.Run(bc.name, func(b *testing.B) {
			l := newMeshLoad(bc.rate, bc.hotspot)
			for i := 0; i < 20_000; i++ {
				l.cycle() // reach buffer and queue high-water marks
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.cycle()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/cycle")
			b.ReportMetric(float64(l.m.FlitHops)/float64(l.now), "flit-hops/cycle")
		})
	}
}
