// Package dnuca implements the paper's D-NUCA baseline: an 8MB dynamic
// NUCA of 32 banks (4 rows x 8 columns, Table I) behind a wormhole mesh
// with virtual channels, modeled after the SS-performance configuration
// of Kim et al. [1]: simple (column) mapping, multicast search across the
// bank set, gradual one-hop promotion on hits, and tail insertion.
//
// The controller is a single injection point at the bottom edge of the
// mesh — exactly the property Section I of the paper criticizes and
// L-NUCA's three specialized networks are designed to avoid.
package dnuca

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Config parameterizes the D-NUCA (Table I: DN-4x8).
type Config struct {
	Name string
	// Rows x Cols banks; column = bank set ("8 sparse sets, 4 rows").
	Rows, Cols int
	// Bank geometry: 256KB, 2-way, 128B blocks.
	Bank cache.BankConfig
	// BankCompletion / BankInitiation: 3-cycle completion and initiation.
	BankCompletion, BankInitiation int
	// VCs / VCDepth: 4 virtual channels, 4-flit buffers.
	VCs, VCDepth int
	// FlitBytes: 32B flits on 256-bit links.
	FlitBytes int
	// MSHREntries / MSHRSecondary: 16 / 4.
	MSHREntries, MSHRSecondary int
	// WriteBufEntries buffers stores and writebacks at the controller.
	WriteBufEntries int
	// Promote enables gradual migration toward the controller on hits.
	Promote bool
	Seed    uint64
}

// DefaultConfig returns the Table I DN-4x8 configuration.
func DefaultConfig() Config {
	return Config{
		Name: "DN-4x8",
		Rows: 4, Cols: 8,
		Bank:           cache.BankConfig{SizeBytes: 256 << 10, Ways: 2, BlockBytes: 128},
		BankCompletion: 3, BankInitiation: 3,
		VCs: 4, VCDepth: 4,
		FlitBytes:       32,
		MSHREntries:     16,
		MSHRSecondary:   4,
		WriteBufEntries: 32,
		Promote:         true,
		Seed:            1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Rows <= 0 || c.Cols <= 0 {
		return fmt.Errorf("dnuca: %dx%d banks invalid", c.Rows, c.Cols)
	}
	if err := c.Bank.Validate(); err != nil {
		return fmt.Errorf("dnuca: bank: %w", err)
	}
	if err := c.meshConfig().Validate(); err != nil {
		return fmt.Errorf("dnuca: mesh: %w", err)
	}
	return nil
}

// meshConfig returns the network geometry: one router per bank plus the
// controller row.
func (c Config) meshConfig() noc.MeshConfig {
	return noc.MeshConfig{
		Width:  c.Cols,
		Height: c.Rows + 1, // row 0 hosts the controller
		VCs:    c.VCs, VCDepth: c.VCDepth,
	}
}

// msgKind discriminates D-NUCA network payloads.
type msgKind uint8

const (
	mSearch  msgKind = iota // controller -> bank: look up a line
	mHit                    // bank -> controller: data response
	mNack                   // bank -> controller: bank missed
	mFill                   // controller -> tail bank: insert block
	mPromote                // bank -> closer bank: migrate block
	mDemote                 // bank -> farther bank: displaced swap partner
	mWrite                  // controller -> bank: store update
	mWB                     // bank -> controller: dirty victim writeback
)

// payload rides noc.Message.Payload.
type payload struct {
	kind  msgKind
	line  mem.Addr
	dirty bool
	row   int // originating bank row (for stats/promotion)
}

// bank is one 256KB node with a busy-until occupancy model.
type bank struct {
	arr       *cache.Bank
	pos       noc.Coord
	busyUntil sim.Cycle
	jobs      sim.Queue[bankJob]
}

type bankJob struct {
	p       payload
	arrived sim.Cycle
}

// pendingSearch tracks a multicast in flight.
type pendingSearch struct {
	line  mem.Addr
	nacks int
	hit   bool
	write bool
}

// DNUCA is the banked cache component. Like the L-NUCA fabric it sits
// between an upstream port (the L1 or L-NUCA) and a downstream port (main
// memory).
type DNUCA struct {
	cfg  Config
	mesh *noc.Mesh
	rng  *sim.Rand
	up   *mem.Port
	down *mem.Port
	ids  *mem.IDSource

	banks    []*bank // index = row*Cols + col
	ctrl     noc.Coord
	mshr     *cache.MSHRFile
	wbuf     *cache.WriteBuffer
	searches map[mem.Addr]*pendingSearch
	injectQ  []*noc.Message
	memQ     sim.Queue[*mem.Req]
	msgID    uint64

	pendingResp sim.Queue[*mem.Resp]

	// Quiescence bookkeeping: per-cycle counter increments of blocked
	// idle states, recorded by NextEvent and applied by SkipTo.
	skipMergeRejects, skipWBufRejects, skipBlockedReads uint64

	// Counters.
	Reads, ReadHits, ReadMisses uint64
	Writes                      uint64
	HitsByRow                   []uint64
	Promotions, Demotions       uint64
	Fills, Writebacks           uint64
	BankAccesses                uint64
	GlobalMisses                uint64
	SearchLatencySum            uint64
	SearchesResolved            uint64
}

// New builds the D-NUCA between up (processor side) and down (memory).
func New(cfg Config, up, down *mem.Port, ids *mem.IDSource) (*DNUCA, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &DNUCA{
		cfg:      cfg,
		mesh:     noc.NewMesh(cfg.meshConfig()),
		rng:      sim.NewRand(cfg.Seed),
		up:       up,
		down:     down,
		ids:      ids,
		ctrl:     noc.Coord{X: 0, Y: 0},
		mshr:     cache.NewMSHRFile(cfg.MSHREntries, cfg.MSHRSecondary),
		wbuf:     cache.NewWriteBuffer(cfg.WriteBufEntries),
		searches: make(map[mem.Addr]*pendingSearch),
	}
	d.banks = make([]*bank, cfg.Rows*cfg.Cols)
	for r := 0; r < cfg.Rows; r++ {
		for c := 0; c < cfg.Cols; c++ {
			d.banks[r*cfg.Cols+c] = &bank{
				arr: cache.NewBank(cfg.Bank),
				pos: noc.Coord{X: c, Y: r + 1},
			}
		}
	}
	d.HitsByRow = make([]uint64, cfg.Rows)
	return d, nil
}

// Name implements sim.Component.
func (d *DNUCA) Name() string { return d.cfg.Name }

// column returns the bank set of a line (simple mapping).
func (d *DNUCA) column(line mem.Addr) int {
	return int((uint64(line) / uint64(d.cfg.Bank.BlockBytes)) % uint64(d.cfg.Cols))
}

func (d *DNUCA) bankAt(col, row int) *bank { return d.banks[row*d.cfg.Cols+col] }

// send queues a message for mesh injection.
func (d *DNUCA) send(now sim.Cycle, src, dst noc.Coord, flits int, p payload) {
	d.msgID++
	//lnuca:allow(hotalloc) per-transaction message, not per-cycle; hier.BenchmarkStepAllocs pins steady state at 0 allocs/cycle
	d.injectQ = append(d.injectQ, &noc.Message{
		ID:      d.msgID,
		Src:     src,
		Dst:     dst,
		Flits:   flits,
		Payload: p,
	})
}

// dataFlits returns the flit count of a block-carrying message: the block
// plus a head flit, capped to the paper's 1-5 flit range.
func (d *DNUCA) dataFlits() int {
	n := d.cfg.Bank.BlockBytes/d.cfg.FlitBytes + 1
	if n < 1 {
		n = 1
	}
	if n > 5 {
		n = 5
	}
	return n
}

// Eval implements sim.Component.
func (d *DNUCA) Eval(k *sim.Kernel) {
	now := k.Cycle()
	// Drain injection queue into the mesh as staging allows.
	rest := d.injectQ[:0]
	for _, m := range d.injectQ {
		if !d.mesh.Inject(m, now) {
			//lnuca:allow(hotalloc) in-place filter into the slice's own backing array; no growth
			rest = append(rest, m)
		}
	}
	d.injectQ = rest

	d.mesh.Step(now)

	d.ejectController(now)
	d.ejectBanks(now)
	d.runBanks(now)
	d.acceptUpstream(now)
	d.consumeMemory(now)
	d.drainDown(now)
	d.deliverResponses(now)
}

// Commit implements sim.Component.
func (d *DNUCA) Commit(k *sim.Kernel) {
	d.up.Up.Tick()
	d.down.Down.Tick()
}

// ejectController handles messages arriving at the controller node.
func (d *DNUCA) ejectController(now sim.Cycle) {
	for {
		m, ok := d.mesh.EjectOne(d.ctrl)
		if !ok {
			break
		}
		p := m.Payload.(payload)
		switch p.kind {
		case mHit:
			s := d.searches[p.line]
			if s == nil || s.hit {
				break // duplicate or stale
			}
			s.hit = true
			d.HitsByRow[p.row]++
			d.SearchLatencySum += uint64(now) - uint64(m.Injected)
			d.SearchesResolved++
			d.finishLine(now, p.line)
		case mNack:
			s := d.searches[p.line]
			if s == nil || s.hit {
				break
			}
			s.nacks++
			if s.nacks >= d.cfg.Rows {
				// Global miss: fetch from memory.
				d.GlobalMisses++
				delete(d.searches, p.line)
				d.toMemory(now, p.line)
			}
		case mWB:
			// A tail-bank dirty victim leaves the cache entirely: it goes
			// straight to memory, not through the store path (which would
			// re-allocate it).
			//lnuca:allow(hotalloc) per-transaction message, not per-cycle; hier.BenchmarkStepAllocs pins steady state at 0 allocs/cycle
			d.memQ.Push(&mem.Req{
				ID: d.ids.Next(), Addr: p.line, Kind: mem.Writeback, Issued: now,
			})
			d.Writebacks++
		}
	}
}

// finishLine retires the MSHR for line and queues responses.
func (d *DNUCA) finishLine(now sim.Cycle, line mem.Addr) {
	delete(d.searches, line)
	for _, t := range d.mshr.Free(line) {
		if t.Kind == mem.Read {
			//lnuca:allow(hotalloc) per-transaction message, not per-cycle; hier.BenchmarkStepAllocs pins steady state at 0 allocs/cycle
			d.pendingResp.Push(&mem.Resp{ID: t.ReqID, Addr: t.Addr})
		}
	}
}

// toMemory issues a block fetch downstream (via a small queue in fetchQ
// semantics: the drainDown step pushes it).
func (d *DNUCA) toMemory(now sim.Cycle, line mem.Addr) {
	m := d.mshr.Lookup(line)
	if m != nil {
		m.SentDown = true
	}
	//lnuca:allow(hotalloc) per-transaction message, not per-cycle; hier.BenchmarkStepAllocs pins steady state at 0 allocs/cycle
	d.memQ.Push(&mem.Req{ID: d.ids.Next(), Addr: line, Kind: mem.Read, Issued: now})
}

// ejectBanks enqueues arriving work at each bank, stopping once the
// mesh holds no undelivered message.
func (d *DNUCA) ejectBanks(now sim.Cycle) {
	for _, b := range d.banks {
		if d.mesh.Ejected() == 0 {
			return
		}
		for {
			m, ok := d.mesh.EjectOne(b.pos)
			if !ok {
				break
			}
			b.jobs.Push(bankJob{p: m.Payload.(payload), arrived: now})
		}
	}
}

// runBanks starts one job per free bank and emits its outcome.
func (d *DNUCA) runBanks(now sim.Cycle) {
	for _, b := range d.banks {
		if b.jobs.Len() == 0 || b.busyUntil > now {
			continue
		}
		job, _ := b.jobs.Pop()
		b.busyUntil = now + sim.Cycle(d.cfg.BankInitiation)
		d.BankAccesses++
		row := b.pos.Y - 1
		p := job.p
		switch p.kind {
		case mSearch:
			if b.arr.Access(p.line, false) {
				d.send(now, b.pos, d.ctrl, d.dataFlits(),
					payload{kind: mHit, line: p.line, row: row})
				d.maybePromote(now, b, p.line, row)
			} else {
				d.send(now, b.pos, d.ctrl, 1, payload{kind: mNack, line: p.line, row: row})
			}
		case mWrite:
			if b.arr.Access(p.line, true) {
				d.send(now, b.pos, d.ctrl, 1, payload{kind: mHit, line: p.line, row: row})
				d.maybePromote(now, b, p.line, row)
			} else {
				d.send(now, b.pos, d.ctrl, 1, payload{kind: mNack, line: p.line, row: row})
			}
		case mFill, mDemote, mPromote:
			if p.kind == mPromote {
				d.Promotions++
			}
			victim, evicted := b.arr.Fill(p.line, p.dirty)
			if evicted {
				d.evictFrom(now, b, victim, row, p.kind)
			}
		}
	}
}

// maybePromote migrates a hit block one bank closer to the controller,
// swapping with that bank's victim (gradual migration).
func (d *DNUCA) maybePromote(now sim.Cycle, b *bank, line mem.Addr, row int) {
	if !d.cfg.Promote || row == 0 {
		return
	}
	dirty, present := b.arr.Invalidate(line)
	if !present {
		return
	}
	closer := d.bankAt(b.pos.X, row-1)
	d.send(now, b.pos, closer.pos, d.dataFlits(),
		payload{kind: mPromote, line: line, dirty: dirty, row: row - 1})
}

// evictFrom routes a displaced victim: swap partners move one bank away
// from the controller; victims of the farthest row write back or drop.
func (d *DNUCA) evictFrom(now sim.Cycle, b *bank, v cache.Victim, row int, cause msgKind) {
	if cause == mPromote && row < d.cfg.Rows-1 {
		// Swap: the displaced block moves to where the promoted one was.
		farther := d.bankAt(b.pos.X, row+1)
		d.Demotions++
		d.send(now, b.pos, farther.pos, d.dataFlits(),
			payload{kind: mDemote, line: v.Addr, dirty: v.Dirty, row: row + 1})
		return
	}
	if row < d.cfg.Rows-1 {
		// Non-promotion eviction pushes outward too (keeps hot rows free).
		farther := d.bankAt(b.pos.X, row+1)
		d.send(now, b.pos, farther.pos, d.dataFlits(),
			payload{kind: mDemote, line: v.Addr, dirty: v.Dirty, row: row + 1})
		return
	}
	if v.Dirty {
		d.send(now, b.pos, d.ctrl, d.dataFlits(), payload{kind: mWB, line: v.Addr})
	}
	// Clean victims of the tail row vanish (memory has them).
}

// acceptUpstream pops L1 requests.
func (d *DNUCA) acceptUpstream(now sim.Cycle) {
	for {
		req, ok := d.up.Down.Peek()
		if !ok {
			return
		}
		line := req.Addr.Line(d.cfg.Bank.BlockBytes)
		switch req.Kind {
		case mem.Read:
			if !d.acceptRead(now, req, line) {
				return
			}
		case mem.Write, mem.Writeback:
			if !d.wbuf.Add(line, req.Kind) {
				return
			}
			d.Writes++
		}
		d.up.Down.Pop()
	}
}

func (d *DNUCA) acceptRead(now sim.Cycle, req *mem.Req, line mem.Addr) bool {
	d.Reads++
	if d.wbuf.Contains(line) {
		//lnuca:allow(hotalloc) per-transaction message, not per-cycle; hier.BenchmarkStepAllocs pins steady state at 0 allocs/cycle
		d.pendingResp.Push(&mem.Resp{ID: req.ID, Addr: req.Addr})
		return true
	}
	tg := cache.Target{ReqID: req.ID, Addr: req.Addr, Kind: mem.Read, Issued: req.Issued}
	if m := d.mshr.Lookup(line); m != nil {
		return d.mshr.Merge(m, tg)
	}
	if d.mshr.Full() {
		return false
	}
	d.mshr.Allocate(line, tg)
	d.launchSearch(now, line, false)
	return true
}

// launchSearch multicasts a lookup to every bank of the line's column.
func (d *DNUCA) launchSearch(now sim.Cycle, line mem.Addr, write bool) {
	col := d.column(line)
	kind := mSearch
	if write {
		kind = mWrite
	}
	//lnuca:allow(hotalloc) per-transaction message, not per-cycle; hier.BenchmarkStepAllocs pins steady state at 0 allocs/cycle
	d.searches[line] = &pendingSearch{line: line, write: write}
	for r := 0; r < d.cfg.Rows; r++ {
		b := d.bankAt(col, r)
		d.send(now, d.ctrl, b.pos, 1, payload{kind: kind, line: line})
	}
}

// consumeMemory handles fills coming back from DRAM: respond, then insert
// at the tail bank of the column.
func (d *DNUCA) consumeMemory(now sim.Cycle) {
	for {
		resp, ok := d.down.Up.Peek()
		if !ok {
			return
		}
		d.down.Up.Pop()
		line := resp.Addr.Line(d.cfg.Bank.BlockBytes)
		d.Fills++
		dirty := false
		for _, t := range d.mshr.Free(line) {
			switch t.Kind {
			case mem.Read:
				//lnuca:allow(hotalloc) per-transaction message, not per-cycle; hier.BenchmarkStepAllocs pins steady state at 0 allocs/cycle
				d.pendingResp.Push(&mem.Resp{ID: t.ReqID, Addr: t.Addr})
			case mem.Write:
				dirty = true
			}
		}
		tail := d.bankAt(d.column(line), d.cfg.Rows-1)
		d.send(now, d.ctrl, tail.pos, d.dataFlits(),
			payload{kind: mFill, line: line, dirty: dirty, row: d.cfg.Rows - 1})
	}
}

// drainDown pushes memory fetches and buffered writes downstream.
func (d *DNUCA) drainDown(now sim.Cycle) {
	for d.memQ.Len() > 0 && d.down.Down.CanPush() {
		r, _ := d.memQ.Pop()
		d.down.Down.Push(r)
	}
	// One buffered write per cycle: write hits update the bank in place;
	// misses write-allocate via the search path.
	if e, ok := d.wbuf.Peek(); ok {
		switch {
		case d.mshr.Lookup(e.Line) != nil:
			m := d.mshr.Lookup(e.Line)
			if d.mshr.Merge(m, cache.Target{ReqID: 0, Addr: e.Line, Kind: mem.Write}) {
				d.wbuf.Pop()
			}
		case d.searches[e.Line] != nil:
			// A write search for this line is already out; wait.
		default:
			if !d.mshr.Full() {
				d.wbuf.Pop()
				d.mshr.Allocate(e.Line, cache.Target{ReqID: 0, Addr: e.Line, Kind: mem.Write})
				d.launchSearch(now, e.Line, true)
			}
		}
	}
}

// deliverResponses pushes matured responses upstream.
func (d *DNUCA) deliverResponses(now sim.Cycle) {
	for d.pendingResp.Len() > 0 && d.up.Up.CanPush() {
		r, _ := d.pendingResp.Pop()
		r.Done = now
		d.up.Up.Push(r)
	}
}

// NextEvent implements sim.Quiescent. The D-NUCA is idle when the mesh
// holds no traffic, no bank has runnable work, and the controller can
// move nothing (no fill, grantable request, drainable write, memory
// fetch or response). Its only timed wakes are busy banks finishing
// their initiation interval; everything else waits on external input.
func (d *DNUCA) NextEvent(now sim.Cycle) (sim.Cycle, bool) {
	d.skipMergeRejects, d.skipWBufRejects, d.skipBlockedReads = 0, 0, 0
	// Any queued injection or in-network flit: the mesh (or the inject
	// drain) acts. A blocked injection implies in-flight traffic, so
	// treating any pending injection as active is exact.
	if len(d.injectQ) > 0 || !d.mesh.Quiet() {
		return 0, false
	}
	wake := sim.Never
	for _, b := range d.banks {
		if b.jobs.Len() == 0 {
			continue
		}
		if b.busyUntil <= now {
			return 0, false
		}
		if b.busyUntil < wake {
			wake = b.busyUntil
		}
	}
	if d.down.Up.Len() > 0 {
		return 0, false // a memory fill would be consumed
	}
	// Upstream head request.
	if req, ok := d.up.Down.Peek(); ok {
		line := req.Addr.Line(d.cfg.Bank.BlockBytes)
		if req.Kind == mem.Read {
			switch m := d.mshr.Lookup(line); {
			case d.wbuf.Contains(line):
				return 0, false
			case m != nil:
				if d.mshr.CanMerge(m) {
					return 0, false
				}
				// The blocked head re-runs acceptRead every cycle:
				// Reads++ then a rejected Merge.
				d.skipMergeRejects++
				d.skipBlockedReads++
			case d.mshr.Full():
				// Stalled until a fill frees an entry (external), but the
				// retried acceptRead still counts a read per cycle.
				d.skipBlockedReads++
			default:
				return 0, false // would allocate and launch a search
			}
		} else {
			if d.wbuf.Contains(line) || !d.wbuf.Full() {
				return 0, false
			}
			d.skipWBufRejects++ // wbuf.Add rejected every cycle
		}
	}
	// Buffered-write head.
	if e, ok := d.wbuf.Peek(); ok {
		switch m := d.mshr.Lookup(e.Line); {
		case m != nil:
			if d.mshr.CanMerge(m) {
				return 0, false
			}
			d.skipMergeRejects++
		case d.searches[e.Line] != nil:
			// A write search is already out: wait for it (its traffic is
			// covered by the mesh/bank checks above).
		case !d.mshr.Full():
			return 0, false // would allocate and launch
		}
	}
	if d.memQ.Len() > 0 && d.down.Down.CanPush() {
		return 0, false
	}
	if d.pendingResp.Len() > 0 && d.up.Up.CanPush() {
		return 0, false
	}
	return wake, true
}

// SkipTo implements sim.Quiescent: replay the mesh's round-robin
// rotation over the skipped cycles and apply per-cycle reject counters.
func (d *DNUCA) SkipTo(now, target sim.Cycle) {
	delta := target - now
	d.mesh.SkipIdle(delta)
	d.mshr.MergeRejects += d.skipMergeRejects * delta
	d.wbuf.FullRejects += d.skipWBufRejects * delta
	d.Reads += d.skipBlockedReads * delta
}

// Mesh exposes the network (stats/energy).
func (d *DNUCA) Mesh() *noc.Mesh { return d.mesh }

// MSHROccupancy returns live MSHR entries (tests).
func (d *DNUCA) MSHROccupancy() int { return d.mshr.Len() }

// BankArray exposes bank (col,row) for tests.
func (d *DNUCA) BankArray(col, row int) *cache.Bank { return d.bankAt(col, row).arr }

// AvgSearchLatency returns mean cycles from search injection to hit.
func (d *DNUCA) AvgSearchLatency() float64 {
	if d.SearchesResolved == 0 {
		return 0
	}
	return float64(d.SearchLatencySum) / float64(d.SearchesResolved)
}

// Collect adds counters to s under prefix.
func (d *DNUCA) Collect(prefix string, s *stats.Set) {
	s.Add(prefix+".reads", d.Reads)
	s.Add(prefix+".writes", d.Writes)
	s.Add(prefix+".global_misses", d.GlobalMisses)
	s.Add(prefix+".fills", d.Fills)
	s.Add(prefix+".writebacks", d.Writebacks)
	s.Add(prefix+".bank_accesses", d.BankAccesses)
	s.Add(prefix+".promotions", d.Promotions)
	s.Add(prefix+".demotions", d.Demotions)
	s.Add(prefix+".net_flit_hops", d.mesh.FlitHops)
	s.Add(prefix+".net_msgs", d.mesh.MsgsDelivered)
	for r := 0; r < d.cfg.Rows; r++ {
		s.Add(fmt.Sprintf("%s.hits_row%d", prefix, r), d.HitsByRow[r])
	}
	s.SetScalar(prefix+".avg_search_latency", d.AvgSearchLatency())
}
