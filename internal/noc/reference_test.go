package noc

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// refMesh is the original full-scan wormhole mesh, kept verbatim as the
// reference the active-set Mesh is checked against: every cycle it
// walks every router's every (dir, vc) input slot in round-robin order,
// and every router keeps its own round-robin pointer. Only the type
// names differ from the code it preserves, and its comments are
// dropped.
type refMesh struct {
	cfg     MeshConfig
	routers []*refRouter

	injectQ [][]*Message

	moves    []refMove
	takenAll []refOutTaken

	ejected int

	MsgsInjected, MsgsDelivered uint64
	FlitHops                    uint64
	TotalLatency                uint64
	TotalHops                   uint64
}

type refVCState struct {
	buf     []flit
	routed  bool
	outDir  Dir
	outVC   int
	credits int // unused on Local ejection
}

type refOutOwner struct {
	active bool
	inDir  Dir
	inVC   int
}

type refRouter struct {
	pos    Coord
	in     [NumDirs][]refVCState
	owner  [NumDirs][]refOutOwner
	ejectQ sim.Queue[*Message]
	rrNext int
}

type refOutTaken struct{ taken [NumDirs]bool }

type refMove struct {
	from     *refRouter
	fromDir  Dir
	fromVC   int
	to       *refRouter // nil for ejection
	toDir    Dir
	toVC     int
	f        flit
	lastFlit bool
}

func newRefMesh(cfg MeshConfig) *refMesh {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &refMesh{cfg: cfg}
	n := cfg.Width * cfg.Height
	m.routers = make([]*refRouter, n)
	m.injectQ = make([][]*Message, n)
	m.takenAll = make([]refOutTaken, n)
	for i := range m.routers {
		r := &refRouter{pos: Coord{i % cfg.Width, i / cfg.Width}}
		for d := 0; d < NumDirs; d++ {
			r.in[d] = make([]refVCState, cfg.VCs)
			r.owner[d] = make([]refOutOwner, cfg.VCs)
		}
		m.routers[i] = r
	}
	return m
}

func (m *refMesh) at(c Coord) *refRouter {
	return m.routers[c.Y*m.cfg.Width+c.X]
}

func (m *refMesh) InBounds(c Coord) bool {
	return c.X >= 0 && c.X < m.cfg.Width && c.Y >= 0 && c.Y < m.cfg.Height
}

func (m *refMesh) Inject(msg *Message, now sim.Cycle) bool {
	if !m.InBounds(msg.Src) || !m.InBounds(msg.Dst) {
		panic(fmt.Sprintf("noc: inject out of bounds: %v -> %v", msg.Src, msg.Dst))
	}
	if msg.Flits <= 0 {
		msg.Flits = 1
	}
	idx := msg.Src.Y*m.cfg.Width + msg.Src.X
	if len(m.injectQ[idx]) >= m.cfg.VCDepth {
		return false
	}
	msg.Injected = now
	m.injectQ[idx] = append(m.injectQ[idx], msg)
	m.MsgsInjected++
	return true
}

func (m *refMesh) EjectOne(c Coord) (*Message, bool) {
	msg, ok := m.at(c).ejectQ.Pop()
	if ok {
		m.ejected--
	}
	return msg, ok
}

func (m *refMesh) Step(now sim.Cycle) {
	for idx, q := range m.injectQ {
		if len(q) == 0 {
			continue
		}
		r := m.routers[idx]
		for vc := 0; vc < m.cfg.VCs; vc++ {
			st := &r.in[Local][vc]
			if len(st.buf) == 0 && !st.routed {
				msg := q[0]
				m.injectQ[idx] = q[1:]
				for i := 0; i < msg.Flits; i++ {
					st.buf = append(st.buf, flit{
						msg:  msg,
						head: i == 0,
						tail: i == msg.Flits-1,
					})
				}
				break
			}
		}
	}

	moves := m.moves[:0]
	takenAll := m.takenAll
	for i := range takenAll {
		takenAll[i] = refOutTaken{}
	}

	for ri, r := range m.routers {
		total := NumDirs * m.cfg.VCs
		for k := 0; k < total; k++ {
			slot := (r.rrNext + k) % total
			inDir := Dir(slot / m.cfg.VCs)
			inVC := slot % m.cfg.VCs
			st := &r.in[inDir][inVC]
			if len(st.buf) == 0 {
				continue
			}
			f := st.buf[0]
			if f.head && !st.routed {
				st.outDir = XYRoute(r.pos, f.msg.Dst)
				st.outVC = -1
				st.routed = true
			}
			if !st.routed {
				continue
			}
			out := st.outDir
			if takenAll[ri].taken[out] {
				continue
			}
			if out == Local {
				moves = append(moves, refMove{
					from: r, fromDir: inDir, fromVC: inVC,
					to: nil, f: f, lastFlit: f.tail,
				})
				takenAll[ri].taken[out] = true
				continue
			}
			next := m.at(r.pos.Step(out))
			inPortAtNext := out.Opposite()
			if st.outVC < 0 {
				for vc := 0; vc < m.cfg.VCs; vc++ {
					own := &next.in[inPortAtNext][vc]
					owner := &r.owner[out][vc]
					if !owner.active && len(own.buf) == 0 && !own.routed {
						st.outVC = vc
						owner.active = true
						owner.inDir = inDir
						owner.inVC = inVC
						break
					}
				}
				if st.outVC < 0 {
					continue
				}
			}
			dstBuf := &next.in[inPortAtNext][st.outVC]
			if len(dstBuf.buf) >= m.cfg.VCDepth {
				continue
			}
			moves = append(moves, refMove{
				from: r, fromDir: inDir, fromVC: inVC,
				to: next, toDir: inPortAtNext, toVC: st.outVC,
				f: f, lastFlit: f.tail,
			})
			takenAll[ri].taken[out] = true
		}
		r.rrNext = (r.rrNext + 1) % total
	}

	for _, mv := range moves {
		src := &mv.from.in[mv.fromDir][mv.fromVC]
		copy(src.buf, src.buf[1:])
		src.buf = src.buf[:len(src.buf)-1]
		m.FlitHops++
		if mv.to == nil {
			if mv.f.tail {
				mv.f.msg.Delivered = now
				m.MsgsDelivered++
				lat := uint64(now - mv.f.msg.Injected)
				m.TotalLatency += lat
				m.TotalHops += uint64(Manhattan(mv.f.msg.Src, mv.f.msg.Dst))
				m.at(mv.f.msg.Dst).ejectQ.Push(mv.f.msg)
				m.ejected++
			}
		} else {
			dst := &mv.to.in[mv.toDir][mv.toVC]
			dst.buf = append(dst.buf, mv.f)
		}
		if mv.lastFlit {
			if src.routed && src.outDir != Local && src.outVC >= 0 {
				mv.from.owner[src.outDir][src.outVC] = refOutOwner{}
			}
			src.routed = false
			src.outVC = 0
			src.outDir = 0
		}
	}
	m.moves = moves[:0]
}

func (m *refMesh) Quiet() bool {
	return int(m.MsgsInjected-m.MsgsDelivered) == 0 && m.ejected == 0
}

func (m *refMesh) SkipIdle(delta uint64) {
	total := NumDirs * m.cfg.VCs
	for _, r := range m.routers {
		r.rrNext = (r.rrNext + int(delta%uint64(total))) % total
	}
}

// diffTraffic generates the seeded message stream both meshes see.
type diffTraffic struct {
	rng     *sim.Rand
	cfg     MeshConfig
	hotspot bool
	nextID  uint64
}

func (g *diffTraffic) node() Coord {
	return Coord{g.rng.Intn(g.cfg.Width), g.rng.Intn(g.cfg.Height)}
}

// next returns twin copies of one fresh message: uniform traffic picks
// both ends at random; hotspot traffic mostly runs into or out of
// (0,0), the D-NUCA controller's node.
func (g *diffTraffic) next() (*Message, *Message) {
	src, dst := g.node(), g.node()
	if g.hotspot {
		switch g.rng.Intn(4) {
		case 0, 1:
			dst = Coord{}
		case 2:
			src = Coord{}
		}
	}
	g.nextID++
	flits := 1 + g.rng.Intn(5)
	return &Message{ID: g.nextID, Src: src, Dst: dst, Flits: flits},
		&Message{ID: g.nextID, Src: src, Dst: dst, Flits: flits}
}

// TestMeshMatchesReference drives the active-set Mesh and the full-scan
// refMesh with identical seeded traffic — bursts at several injection
// rates, separated by quiet stretches that both fast-forward with
// SkipIdle — and asserts after every cycle that both accept the same
// injections, deliver every message on the same cycle, eject in the
// same per-node order and keep identical statistics.
func TestMeshMatchesReference(t *testing.T) {
	shapes := []MeshConfig{
		{Width: 8, Height: 5, VCs: 4, VCDepth: 4}, // DN-4x8 plus the controller row
		{Width: 4, Height: 4, VCs: 2, VCDepth: 2},
		{Width: 5, Height: 3, VCs: 1, VCDepth: 1},
		{Width: 3, Height: 3, VCs: 12, VCDepth: 4}, // 60 input slots per router
	}
	for _, cfg := range shapes {
		for _, hotspot := range []bool{false, true} {
			for _, seed := range []uint64{1, 2} {
				cfg, hotspot, seed := cfg, hotspot, seed
				name := fmt.Sprintf("%dx%d-vc%d-d%d/hotspot=%v/seed=%d",
					cfg.Width, cfg.Height, cfg.VCs, cfg.VCDepth, hotspot, seed)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					diffMeshes(t, cfg, hotspot, seed)
				})
			}
		}
	}
}

func diffMeshes(t *testing.T, cfg MeshConfig, hotspot bool, seed uint64) {
	t.Helper()
	m, ref := NewMesh(cfg), newRefMesh(cfg)
	g := &diffTraffic{rng: sim.NewRand(seed), cfg: cfg, hotspot: hotspot}
	rng := sim.NewRand(seed ^ 0xD1FF)
	type twin struct{ got, want *Message }
	var live []twin
	var now sim.Cycle
	const bursts = 12
	for burst := 0; burst < bursts; burst++ {
		rate := []float64{0.01, 0.05, 0.2, 0.8}[rng.Intn(4)]
		length := 50 + rng.Intn(400)
		// Inject for length cycles, then run until both meshes drain.
		for cyc := 0; cyc < length || !m.Quiet() || !ref.Quiet(); cyc++ {
			if cyc >= 20000 {
				t.Fatalf("burst %d did not drain by cycle %d", burst, now)
			}
			if cyc < length {
				for n := cfg.Width * cfg.Height; n > 0; n-- {
					if !rng.Bool(rate) {
						continue
					}
					got, want := g.next()
					okGot, okWant := m.Inject(got, now), ref.Inject(want, now)
					if okGot != okWant {
						t.Fatalf("cycle %d: msg %d Inject = %v, reference %v", now, got.ID, okGot, okWant)
					}
					if okGot {
						live = append(live, twin{got, want})
					}
				}
			}
			m.Step(now)
			ref.Step(now)
			// Drain most nodes every cycle; leaving some queued covers
			// ejected-but-unpicked messages in Quiet.
			for y := 0; y < cfg.Height; y++ {
				for x := 0; x < cfg.Width; x++ {
					if !rng.Bool(0.8) {
						continue
					}
					c := Coord{x, y}
					for {
						got, okGot := m.EjectOne(c)
						want, okWant := ref.EjectOne(c)
						if okGot != okWant || (okGot && got.ID != want.ID) {
							t.Fatalf("cycle %d node %v: ejected (%v, %v), reference (%v, %v)",
								now, c, got, okGot, want, okWant)
						}
						if !okGot {
							break
						}
					}
				}
			}
			kept := live[:0]
			for _, tw := range live {
				if tw.got.Delivered != tw.want.Delivered {
					t.Fatalf("cycle %d: msg %d delivered at %d, reference %d",
						now, tw.got.ID, tw.got.Delivered, tw.want.Delivered)
				}
				if tw.got.Delivered == 0 {
					kept = append(kept, tw)
				}
			}
			live = kept
			if m.FlitHops != ref.FlitHops || m.TotalLatency != ref.TotalLatency ||
				m.TotalHops != ref.TotalHops || m.MsgsDelivered != ref.MsgsDelivered {
				t.Fatalf("cycle %d: stats (hops %d, latency %d, manhattan %d, delivered %d), reference (%d, %d, %d, %d)",
					now, m.FlitHops, m.TotalLatency, m.TotalHops, m.MsgsDelivered,
					ref.FlitHops, ref.TotalLatency, ref.TotalHops, ref.MsgsDelivered)
			}
			checkOccupancy(t, m, now)
			if m.Quiet() != ref.Quiet() {
				t.Fatalf("cycle %d: Quiet = %v, reference %v", now, m.Quiet(), ref.Quiet())
			}
			now++
		}
		// Quiet stretch: fast-forward both meshes by the same amount.
		// Deltas that are not multiples of the slot count shift the
		// round-robin phase the next burst starts from.
		delta := uint64(1 + rng.Intn(1000))
		m.SkipIdle(delta)
		ref.SkipIdle(delta)
		now += sim.Cycle(delta)
	}
	if m.MsgsDelivered == 0 {
		t.Fatal("no traffic delivered")
	}
}

// checkOccupancy asserts the mesh's occupancy invariant: a router's mask
// bit is set exactly while its input slot buffers a flit.
func checkOccupancy(t *testing.T, m *Mesh, now sim.Cycle) {
	t.Helper()
	for i := range m.routers {
		r := &m.routers[i]
		for slot := range r.in {
			if got, want := r.occ>>slot&1 == 1, len(r.in[slot].buf) > 0; got != want {
				t.Fatalf("cycle %d router %v slot %d: occupancy bit %v, buffer holds %d flits",
					now, r.pos, slot, got, len(r.in[slot].buf))
			}
		}
	}
}
