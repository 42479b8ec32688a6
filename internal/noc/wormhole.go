package noc

import (
	"fmt"
	"math/bits"

	"repro/internal/sim"
)

// Message is a multi-flit packet traveling through a wormhole mesh.
type Message struct {
	ID      uint64
	Src     Coord
	Dst     Coord
	Flits   int
	Payload interface{}
	// Injected is stamped by the mesh when the head flit enters the
	// network; Delivered when the tail flit ejects.
	Injected, Delivered sim.Cycle
}

// flit is the wormhole flow-control unit.
type flit struct {
	msg  *Message
	head bool
	tail bool
}

// vcState tracks an input virtual channel's wormhole reservation.
type vcState struct {
	buf []flit
	// routed is set once the head flit has picked an output.
	routed bool
	outDir Dir
	outVC  int
}

type router struct {
	pos Coord
	// nbr[dir] is the router one hop away in dir (nil past the mesh
	// edge and for Local).
	nbr [NumDirs]*router
	// in[dir*VCs+vc] holds the input-buffered virtual channels.
	in []vcState
	// occ has bit dir*VCs+vc set exactly while in[dir*VCs+vc] buffers
	// a flit, so a router with occ == 0 has nothing to allocate.
	occ uint64
	// owned[dir*VCs+vc] is set while an input VC holds output VC
	// (dir, vc), from head until tail (the wormhole invariant).
	owned []bool
	// ejected messages awaiting pickup by the local node.
	ejectQ sim.Queue[*Message]
}

// MeshConfig parameterizes a wormhole mesh.
type MeshConfig struct {
	Width, Height int
	VCs           int // virtual channels per physical link (Table I: 4)
	VCDepth       int // flit buffer depth per VC (Table I: 4)
}

// maxSlots is the widest router the occupancy mask covers: one bit per
// input (direction, VC) pair.
const maxSlots = 64

// Validate reports configuration errors.
func (c MeshConfig) Validate() error {
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("noc: mesh %dx%d has non-positive dimension", c.Width, c.Height)
	}
	if c.VCs <= 0 || c.VCDepth <= 0 {
		return fmt.Errorf("noc: VCs=%d depth=%d must be positive", c.VCs, c.VCDepth)
	}
	if NumDirs*c.VCs > maxSlots {
		return fmt.Errorf("noc: %d ports x %d VCs exceeds %d input slots per router", NumDirs, c.VCs, maxSlots)
	}
	return nil
}

// Mesh is a cycle-stepped 2-D wormhole mesh with input-buffered virtual
// channels, XY routing, and round-robin switch allocation. It is driven by
// a single owning component via Step, which keeps it deterministic.
//
// XY routing plus guaranteed ejection (unbounded eject queues drained by
// the owner) makes the network provably deadlock-free, the same argument
// the paper invokes for L-NUCA's acyclic networks.
//
// A Step costs work proportional to the flits in the network: routers
// whose occupancy mask is empty are skipped, and a busy router visits
// only its occupied input slots.
type Mesh struct {
	cfg     MeshConfig
	routers []router
	// slots is NumDirs*VCs; full masks a router's occupancy to it.
	slots int
	full  uint64
	// rrNext rotates switch-allocation priority for fairness. Every
	// router rotates in lockstep, so one counter serves them all.
	rrNext int

	// injectQ holds messages not yet converted to flits, per node;
	// staging counts the non-empty queues.
	injectQ []sim.Queue[*Message]
	staging int

	// moves is per-Step scratch, hoisted out of the cycle loop so
	// steady-state stepping allocates nothing.
	moves []move

	// ejected counts messages delivered but not yet picked up, so Quiet
	// is O(1).
	ejected int

	// Stats
	MsgsInjected, MsgsDelivered uint64
	FlitHops                    uint64
	TotalLatency                uint64
	TotalHops                   uint64
}

// NewMesh builds a mesh; it panics on invalid configuration (wiring bug).
func NewMesh(cfg MeshConfig) *Mesh {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.Width * cfg.Height
	slots := NumDirs * cfg.VCs
	m := &Mesh{
		cfg:     cfg,
		routers: make([]router, n),
		slots:   slots,
		full:    ^uint64(0) >> (maxSlots - slots),
		injectQ: make([]sim.Queue[*Message], n),
	}
	for i := range m.routers {
		r := &m.routers[i]
		r.pos = Coord{i % cfg.Width, i / cfg.Width}
		r.in = make([]vcState, slots)
		r.owned = make([]bool, slots)
	}
	for i := range m.routers {
		r := &m.routers[i]
		for d := North; d < Local; d++ {
			if c := r.pos.Step(d); m.InBounds(c) {
				r.nbr[d] = m.at(c)
			}
		}
	}
	return m
}

// Config returns the mesh configuration.
func (m *Mesh) Config() MeshConfig { return m.cfg }

func (m *Mesh) at(c Coord) *router {
	return &m.routers[c.Y*m.cfg.Width+c.X]
}

// InBounds reports whether c is a valid node.
func (m *Mesh) InBounds(c Coord) bool {
	return c.X >= 0 && c.X < m.cfg.Width && c.Y >= 0 && c.Y < m.cfg.Height
}

// Inject queues msg for injection at its source node. It returns false
// when the source-local injection staging is saturated (more than VCDepth
// messages waiting), modeling finite injection bandwidth.
func (m *Mesh) Inject(msg *Message, now sim.Cycle) bool {
	if !m.InBounds(msg.Src) || !m.InBounds(msg.Dst) {
		panic(fmt.Sprintf("noc: inject out of bounds: %v -> %v", msg.Src, msg.Dst))
	}
	if msg.Flits <= 0 {
		msg.Flits = 1
	}
	q := &m.injectQ[msg.Src.Y*m.cfg.Width+msg.Src.X]
	if q.Len() >= m.cfg.VCDepth {
		return false
	}
	if q.Len() == 0 {
		m.staging++
	}
	msg.Injected = now
	q.Push(msg)
	m.MsgsInjected++
	return true
}

// EjectOne pops a single delivered message at node c, if any. The
// queue's ring storage is reused, so draining allocates nothing.
func (m *Mesh) EjectOne(c Coord) (*Message, bool) {
	msg, ok := m.at(c).ejectQ.Pop()
	if ok {
		m.ejected--
	}
	return msg, ok
}

// Ejected returns the number of delivered messages not yet picked up
// with EjectOne, over all nodes.
func (m *Mesh) Ejected() int { return m.ejected }

// move is a staged flit transfer computed during the allocation pass and
// applied afterwards, giving single-cycle-per-hop semantics without
// order dependence between routers.
type move struct {
	from     *router
	fromSlot int
	to       *router // nil for ejection
	toSlot   int
}

// Step advances the mesh by one cycle.
func (m *Mesh) Step(now sim.Cycle) {
	if m.staging > 0 {
		m.stage()
	}

	// Allocation pass: each router picks at most one flit per output
	// direction, reading only current buffer state.
	moves := m.moves[:0]
	vcs, rr := m.cfg.VCs, m.rrNext
	for ri := range m.routers {
		r := &m.routers[ri]
		if r.occ == 0 {
			continue
		}
		var taken [NumDirs]bool
		// Round-robin over input slots for fairness: rotate the mask so
		// bit k is slot rrNext+k (mod slots), then walk its set bits.
		// Go defines a shift by 64 as 0, so rrNext == 0 needs no case.
		pending := (r.occ>>rr | r.occ<<(m.slots-rr)) & m.full
		for pending != 0 {
			slot := rr + bits.TrailingZeros64(pending)
			pending &= pending - 1
			if slot >= m.slots {
				slot -= m.slots
			}
			st := &r.in[slot]
			// Route computation on head flit. A routed VC's front flit
			// is not read until it moves.
			if !st.routed {
				f := st.buf[0]
				if !f.head {
					continue // body flit of a stream whose head is gone: impossible, but safe
				}
				st.outDir = XYRoute(r.pos, f.msg.Dst)
				st.outVC = -1
				st.routed = true
			}
			out := st.outDir
			if taken[out] {
				continue // output port already granted this cycle
			}
			if out == Local {
				// Ejection consumes the flit immediately (guaranteed
				// consumption keeps the network deadlock-free).
				moves = append(moves, move{from: r, fromSlot: slot})
				taken[out] = true
				continue
			}
			next := r.nbr[out]
			base := int(out.Opposite()) * vcs
			// Virtual-channel allocation on head flits.
			if st.outVC < 0 {
				owned := r.owned[int(out)*vcs:][:vcs]
				for vc := range owned {
					own := &next.in[base+vc]
					if !owned[vc] && len(own.buf) == 0 && !own.routed {
						st.outVC = vc
						owned[vc] = true
						break
					}
				}
				if st.outVC < 0 {
					continue // no VC available this cycle
				}
			}
			// Buffer space check (credit-equivalent, conservative: flits
			// leaving downstream this cycle do not free space until next).
			toSlot := base + st.outVC
			if len(next.in[toSlot].buf) >= m.cfg.VCDepth {
				continue
			}
			moves = append(moves, move{from: r, fromSlot: slot, to: next, toSlot: toSlot})
			taken[out] = true
		}
	}
	if m.rrNext++; m.rrNext == m.slots {
		m.rrNext = 0
	}

	// Apply pass. A buffer can lose its front flit and gain a new last
	// flit in the same pass; the occupancy bit tracks the final length
	// either way round, and the front flit is the one allocated.
	for _, mv := range moves {
		src := &mv.from.in[mv.fromSlot]
		f := src.buf[0]
		copy(src.buf, src.buf[1:])
		src.buf = src.buf[:len(src.buf)-1]
		if len(src.buf) == 0 {
			mv.from.occ &^= 1 << mv.fromSlot
		}
		m.FlitHops++
		if mv.to == nil {
			// Ejection.
			if f.tail {
				f.msg.Delivered = now
				m.MsgsDelivered++
				lat := uint64(now - f.msg.Injected)
				m.TotalLatency += lat
				m.TotalHops += uint64(Manhattan(f.msg.Src, f.msg.Dst))
				mv.from.ejectQ.Push(f.msg)
				m.ejected++
			}
		} else {
			dst := &mv.to.in[mv.toSlot]
			dst.buf = append(dst.buf, f)
			mv.to.occ |= 1 << mv.toSlot
		}
		if f.tail {
			// Tail passed: release the wormhole reservations.
			if src.routed && src.outDir != Local && src.outVC >= 0 {
				mv.from.owned[int(src.outDir)*vcs+src.outVC] = false
			}
			src.routed = false
			src.outVC = 0
			src.outDir = 0
		}
	}
	m.moves = moves[:0]
}

// stage converts one queued message per node into flits on the node's
// first free Local input VC.
func (m *Mesh) stage() {
	base := int(Local) * m.cfg.VCs
	for idx := range m.injectQ {
		q := &m.injectQ[idx]
		if q.Len() == 0 {
			continue
		}
		r := &m.routers[idx]
		for slot := base; slot < m.slots; slot++ {
			st := &r.in[slot]
			if len(st.buf) == 0 && !st.routed {
				msg, _ := q.Pop()
				if q.Len() == 0 {
					m.staging--
				}
				for i := 0; i < msg.Flits; i++ {
					st.buf = append(st.buf, flit{
						msg:  msg,
						head: i == 0,
						tail: i == msg.Flits-1,
					})
				}
				r.occ |= 1 << slot
				break
			}
		}
	}
}

// Quiet reports whether the mesh holds no traffic at all: nothing
// staged for injection, no flit buffered in any router, and no ejected
// message awaiting pickup. A Quiet mesh's Step is a no-op except for
// the round-robin pointer rotation, which SkipIdle replays.
func (m *Mesh) Quiet() bool {
	return m.InFlight() == 0 && m.ejected == 0
}

// SkipIdle advances the round-robin pointer by delta cycles, exactly
// what delta no-op Steps of a Quiet mesh would have done. The owner of
// the mesh calls it when it fast-forwards the clock.
func (m *Mesh) SkipIdle(delta uint64) {
	m.rrNext = int((uint64(m.rrNext) + delta) % uint64(m.slots))
}

// InFlight returns the number of injected-but-undelivered messages.
func (m *Mesh) InFlight() int {
	return int(m.MsgsInjected - m.MsgsDelivered)
}

// AvgLatency returns the mean injection-to-delivery latency in cycles.
func (m *Mesh) AvgLatency() float64 {
	if m.MsgsDelivered == 0 {
		return 0
	}
	return float64(m.TotalLatency) / float64(m.MsgsDelivered)
}

// NumLinks returns the number of unidirectional inter-router links, the
// quantity the paper compares against its specialized topologies.
func (m *Mesh) NumLinks() int {
	w, h := m.cfg.Width, m.cfg.Height
	return 2 * (w*(h-1) + h*(w-1))
}
