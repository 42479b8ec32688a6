package noc

import (
	"testing"

	"repro/internal/sim"
)

func dnucaMesh() *Mesh {
	// Table I: 4 VCs, 4-flit buffers; an 8x4 mesh like DN-4x8.
	return NewMesh(MeshConfig{Width: 8, Height: 4, VCs: 4, VCDepth: 4})
}

// drain pops every delivered message at node c and returns how many.
func drain(m *Mesh, c Coord) int {
	n := 0
	for {
		if _, ok := m.EjectOne(c); !ok {
			return n
		}
		n++
	}
}

func TestMeshConfigValidate(t *testing.T) {
	bad := []MeshConfig{
		{Width: 0, Height: 4, VCs: 4, VCDepth: 4},
		{Width: 8, Height: 0, VCs: 4, VCDepth: 4},
		{Width: 8, Height: 4, VCs: 0, VCDepth: 4},
		{Width: 8, Height: 4, VCs: 4, VCDepth: 0},
		{Width: 8, Height: 4, VCs: -1, VCDepth: 4},
		// 5 ports x 13 VCs = 65 input slots: wider than the occupancy mask.
		{Width: 8, Height: 4, VCs: 13, VCDepth: 4},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("invalid config accepted: %+v", c)
		}
	}
	for _, c := range []MeshConfig{
		{Width: 2, Height: 2, VCs: 1, VCDepth: 1},
		{Width: 8, Height: 5, VCs: 12, VCDepth: 4}, // 60 slots, the widest below the mask limit
	} {
		if err := c.Validate(); err != nil {
			t.Errorf("valid config %+v rejected: %v", c, err)
		}
	}
}

func TestMeshSingleMessageLatency(t *testing.T) {
	m := dnucaMesh()
	msg := &Message{ID: 1, Src: Coord{0, 0}, Dst: Coord{3, 2}, Flits: 1}
	if !m.Inject(msg, 0) {
		t.Fatal("inject failed")
	}
	var now sim.Cycle
	for now = 0; now < 100; now++ {
		m.Step(now)
		if got, ok := m.EjectOne(Coord{3, 2}); ok {
			if got.ID != 1 {
				t.Fatalf("wrong message ejected: %d", got.ID)
			}
			// 5 hops + injection/ejection pipeline: roughly hops+2.
			hops := Manhattan(msg.Src, msg.Dst)
			if int(got.Delivered-got.Injected) < hops {
				t.Fatalf("latency %d below hop count %d", got.Delivered-got.Injected, hops)
			}
			if int(got.Delivered-got.Injected) > hops+6 {
				t.Fatalf("uncontended latency %d way above hop count %d",
					got.Delivered-got.Injected, hops)
			}
			return
		}
	}
	t.Fatal("message never delivered")
}

func TestMeshMultiFlitWormhole(t *testing.T) {
	m := dnucaMesh()
	// A 5-flit message (Table I: 1-5 flits per message).
	msg := &Message{ID: 1, Src: Coord{0, 0}, Dst: Coord{7, 3}, Flits: 5}
	m.Inject(msg, 0)
	for now := sim.Cycle(0); now < 200; now++ {
		m.Step(now)
		if got, ok := m.EjectOne(Coord{7, 3}); ok {
			hops := Manhattan(msg.Src, msg.Dst)
			// Tail trails the head by Flits-1 cycles under wormhole.
			if int(got.Delivered-got.Injected) < hops+msg.Flits-1 {
				t.Fatalf("latency %d too small for %d-flit wormhole over %d hops",
					got.Delivered-got.Injected, msg.Flits, hops)
			}
			return
		}
	}
	t.Fatal("message never delivered")
}

func TestMeshAllMessagesDelivered(t *testing.T) {
	m := dnucaMesh()
	rng := sim.NewRand(7)
	want := 0
	delivered := 0
	var pendingInject []*Message
	for i := 0; i < 200; i++ {
		pendingInject = append(pendingInject, &Message{
			ID:    uint64(i + 1),
			Src:   Coord{rng.Intn(8), rng.Intn(4)},
			Dst:   Coord{rng.Intn(8), rng.Intn(4)},
			Flits: 1 + rng.Intn(5),
		})
		want++
	}
	for now := sim.Cycle(0); now < 20000 && delivered < want; now++ {
		// Trickle injections as staging space allows.
		for len(pendingInject) > 0 && m.Inject(pendingInject[0], now) {
			pendingInject = pendingInject[1:]
		}
		m.Step(now)
		for x := 0; x < 8; x++ {
			for y := 0; y < 4; y++ {
				delivered += drain(m, Coord{x, y})
			}
		}
	}
	if delivered != want {
		t.Fatalf("delivered %d of %d messages (in flight: %d)", delivered, want, m.InFlight())
	}
	if m.MsgsDelivered != uint64(want) {
		t.Fatalf("stats mismatch: MsgsDelivered=%d want %d", m.MsgsDelivered, want)
	}
}

func TestMeshHeavyContentionSingleSink(t *testing.T) {
	// All nodes hammer one sink: the network must not deadlock or drop.
	m := NewMesh(MeshConfig{Width: 4, Height: 4, VCs: 2, VCDepth: 2})
	sink := Coord{0, 0}
	var queued []*Message
	id := uint64(0)
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			if (Coord{x, y}) == sink {
				continue
			}
			for k := 0; k < 6; k++ {
				id++
				queued = append(queued, &Message{ID: id, Src: Coord{x, y}, Dst: sink, Flits: 3})
			}
		}
	}
	want := len(queued)
	got := 0
	for now := sim.Cycle(0); now < 50000 && got < want; now++ {
		for len(queued) > 0 && m.Inject(queued[0], now) {
			queued = queued[1:]
		}
		m.Step(now)
		got += drain(m, sink)
	}
	if got != want {
		t.Fatalf("delivered %d of %d under contention", got, want)
	}
}

func TestMeshContentionIncreasesLatency(t *testing.T) {
	// One message alone vs the same message with background traffic.
	solo := dnucaMesh()
	msg := &Message{ID: 1, Src: Coord{0, 0}, Dst: Coord{7, 0}, Flits: 3}
	solo.Inject(msg, 0)
	for now := sim.Cycle(0); now < 200 && solo.MsgsDelivered == 0; now++ {
		solo.Step(now)
		drain(solo, Coord{7, 0})
	}
	soloLat := solo.TotalLatency

	busy := dnucaMesh()
	// Background: many same-row messages fighting for the same links.
	for i := 0; i < 12; i++ {
		busy.Inject(&Message{ID: uint64(100 + i), Src: Coord{i % 4, 0}, Dst: Coord{7, 0}, Flits: 5}, 0)
	}
	probe := &Message{ID: 1, Src: Coord{0, 0}, Dst: Coord{7, 0}, Flits: 3}
	busy.Inject(probe, 0)
	for now := sim.Cycle(0); now < 5000 && probe.Delivered == 0; now++ {
		busy.Step(now)
		drain(busy, Coord{7, 0})
	}
	if probe.Delivered == 0 {
		t.Fatal("probe never delivered under load")
	}
	if uint64(probe.Delivered-probe.Injected) <= soloLat {
		t.Fatalf("contention did not increase latency: solo=%d busy=%d",
			soloLat, probe.Delivered-probe.Injected)
	}
}

func TestMeshNumLinks(t *testing.T) {
	m := dnucaMesh() // 8x4
	// Unidirectional: 2*(8*3 + 4*7) = 2*52 = 104.
	if got := m.NumLinks(); got != 104 {
		t.Fatalf("NumLinks = %d, want 104", got)
	}
}

func TestMeshInjectBounds(t *testing.T) {
	m := dnucaMesh()
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds inject should panic")
		}
	}()
	m.Inject(&Message{Src: Coord{99, 0}, Dst: Coord{0, 0}, Flits: 1}, 0)
}

func TestMeshZeroFlitClamped(t *testing.T) {
	m := dnucaMesh()
	msg := &Message{ID: 1, Src: Coord{0, 0}, Dst: Coord{1, 0}, Flits: 0}
	m.Inject(msg, 0)
	if msg.Flits != 1 {
		t.Fatal("zero-flit message should clamp to 1")
	}
}

func TestMeshLocalDelivery(t *testing.T) {
	// Src == Dst must still work (loopback through the local port).
	m := dnucaMesh()
	msg := &Message{ID: 1, Src: Coord{2, 2}, Dst: Coord{2, 2}, Flits: 2}
	m.Inject(msg, 0)
	for now := sim.Cycle(0); now < 50; now++ {
		m.Step(now)
		if got, ok := m.EjectOne(Coord{2, 2}); ok {
			if got.ID != 1 {
				t.Fatal("wrong message")
			}
			return
		}
	}
	t.Fatal("loopback message never delivered")
}

func TestMeshAvgLatencyStat(t *testing.T) {
	m := dnucaMesh()
	if m.AvgLatency() != 0 {
		t.Fatal("AvgLatency of idle mesh should be 0")
	}
	m.Inject(&Message{ID: 1, Src: Coord{0, 0}, Dst: Coord{1, 0}, Flits: 1}, 0)
	for now := sim.Cycle(0); now < 50 && m.MsgsDelivered == 0; now++ {
		m.Step(now)
	}
	if m.AvgLatency() <= 0 {
		t.Fatalf("AvgLatency = %v, want positive", m.AvgLatency())
	}
}
