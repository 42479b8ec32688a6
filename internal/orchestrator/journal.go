package orchestrator

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
)

// Journal is the orchestrator's append-only queue-state log: one JSON
// line per job-lifecycle event, written next to the result cache. It is
// what makes sweeps survive a coordinator restart — on reopen, every
// job that was submitted but never reached a terminal state is pending
// again, and resubmitting it re-dedups against the content-addressed
// store (already-computed points are cache hits, never re-simulated).
//
// Two event shapes share the file:
//
//	{"op":"submit","id":"job-000123","key":"<sha256>","request":{...}}  // lnuca-run-v1
//	{"op":"end","id":"job-000123","key":"<sha256>","status":"done"}
//
// Events are matched by content key: a key is pending while its submit
// lines outnumber its end lines. The count ignores line order, so the
// replayed state does not depend on how appends interleave, and a
// cancel-then-resubmit reusing a key needs no special case. The writer
// keeps the count exact: a job's submit is journaled before the job
// can run, and an end line is written only for a submit the journal
// holds (a journaled job's terminal transition, or a replayed key served
// from the cache). A crash-truncated final line is
// skipped on load, costing at worst one duplicate resubmission — which
// the orchestrator's coalescing and cache make free.
//
// Graceful shutdown (Orchestrator.Close) deliberately does not write
// end events for the jobs it cancels: a drained queue is exactly what
// must come back after a restart. Only API cancels and real
// done/failed/canceled transitions end a journal entry.
type Journal struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	pending []Request // loaded at open, in first-submission order

	// credit holds one token per key the open-time compaction kept a
	// submit line for. The first resubmission of such a key consumes the
	// token instead of appending a second submit line — the compacted
	// line already represents it — so replaying Pending() does not
	// double-count. An unconsumed token means the owner never replayed
	// that key, and its compacted line rightly keeps it pending.
	credit map[string]int

	// faults, when armed at faultinject.PointJournalAppend, makes
	// appends fail the way a full or dying disk would.
	faults *faultinject.Injector

	// writeErrs counts consecutive append failures; any successful
	// append resets it. At degradedAfter the journal reports Degraded
	// and the orchestrator stops accepting work it could not make
	// durable.
	writeErrs atomic.Int64
}

// degradedAfter is how many consecutive durable-write failures flip a
// store (journal or result cache) into the degraded state that sends
// the daemon read-only. One failure can be a blip; three in a row with
// no intervening success is a sick disk.
const degradedAfter = 3

// journalEvent is one line of the journal file.
type journalEvent struct {
	Op      string   `json:"op"` // "submit" or "end"
	ID      string   `json:"id,omitempty"`
	Key     string   `json:"key"`
	Status  Status   `json:"status,omitempty"`
	Request *Request `json:"request,omitempty"`
}

// OpenJournal opens (creating if needed) the journal at path, loads the
// still-pending submissions, and compacts the file down to exactly
// those — so the journal's size tracks the live queue, not the
// service's whole history. The caller resubmits Pending() through
// Orchestrator.Submit, which re-journals each one.
func OpenJournal(path string) (*Journal, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("orchestrator: journal dir: %w", err)
	}
	pending, torn, err := loadPending(path)
	if err != nil {
		return nil, err
	}
	if torn >= 0 {
		// A crash tore the final append mid-line. Physically truncate the
		// file back to its last intact record before anything else: even
		// if the compaction below fails, the journal on disk is valid
		// JSONL again, and the cost is bounded by the journal's own
		// contract — at worst one duplicate resubmission, which coalescing
		// and the content-addressed cache make free.
		fmt.Fprintf(os.Stderr, "orchestrator: journal %s: torn final line, truncating to %d bytes and continuing\n", path, torn)
		if terr := os.Truncate(path, torn); terr != nil {
			return nil, fmt.Errorf("orchestrator: journal truncate torn tail: %w", terr)
		}
	}
	// Compact: rewrite the file with one submit line per pending key,
	// atomically, before any new event is appended.
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".compact-*")
	if err != nil {
		return nil, fmt.Errorf("orchestrator: journal compact: %w", err)
	}
	w := bufio.NewWriter(tmp)
	enc := json.NewEncoder(w)
	for i := range pending {
		req := pending[i]
		key, kerr := req.Key()
		if kerr != nil {
			continue // a request the current schema no longer accepts
		}
		if err := enc.Encode(journalEvent{Op: "submit", Key: key, Request: &req}); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return nil, fmt.Errorf("orchestrator: journal compact: %w", err)
		}
	}
	if err := w.Flush(); err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("orchestrator: journal compact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("orchestrator: journal compact: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("orchestrator: journal compact: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("orchestrator: journal open: %w", err)
	}
	credit := make(map[string]int, len(pending))
	for i := range pending {
		if key, err := pending[i].Key(); err == nil {
			credit[key]++
		}
	}
	return &Journal{f: f, path: path, pending: pending, credit: credit}, nil
}

// loadPending replays the journal file and returns the requests whose
// submit count exceeds their end count, in first-submission order,
// plus the byte offset of a torn final line (-1 when the tail is
// intact). A missing file is an empty journal.
//
// Every complete append ends with '\n', so a final segment without one
// is a torn write — a crash mid-append — whatever its bytes happen to
// parse as. Tail damage of any size (including a torn line far larger
// than any scanner buffer, which used to fail the whole open) is
// reported for truncation, never an error: losing the newest record is
// the journal's documented worst case, losing the whole queue is not.
// Complete-but-unparseable lines elsewhere are foreign and skipped.
func loadPending(path string) ([]Request, int64, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, -1, nil
	}
	if err != nil {
		return nil, -1, fmt.Errorf("orchestrator: journal load: %w", err)
	}
	type entry struct {
		open  int // submits minus ends
		first int // line of first submission, for stable ordering
		req   *Request
	}
	entries := map[string]*entry{}
	torn := int64(-1)
	line := 0
	for off := 0; off < len(raw); {
		nl := bytes.IndexByte(raw[off:], '\n')
		if nl < 0 {
			// No terminator: the append that wrote this was cut short.
			torn = int64(off)
			break
		}
		rec := raw[off : off+nl]
		off += nl + 1
		line++
		if len(rec) == 0 {
			continue
		}
		var ev journalEvent
		if err := json.Unmarshal(rec, &ev); err != nil || ev.Key == "" {
			continue // foreign line
		}
		if ev.Op != "end" && (ev.Op != "submit" || ev.Request == nil) {
			continue
		}
		e := entries[ev.Key]
		if e == nil {
			e = &entry{}
			entries[ev.Key] = e
		}
		if ev.Op == "end" {
			e.open--
			continue
		}
		if e.req == nil {
			e.first, e.req = line, ev.Request
		}
		e.open++
	}
	var open []*entry
	for _, e := range entries {
		if e.open > 0 {
			open = append(open, e)
		}
	}
	sort.Slice(open, func(i, j int) bool { return open[i].first < open[j].first })
	out := make([]Request, len(open))
	for i, e := range open {
		out[i] = *e.req
	}
	return out, torn, nil
}

// Pending returns the requests that were submitted but not terminal
// when the journal was opened — the queue a restarted coordinator must
// resubmit. The slice is a copy.
func (j *Journal) Pending() []Request {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Request(nil), j.pending...)
}

// Path returns the journal file's location.
func (j *Journal) Path() string { return j.path }

// SetFaults arms the journal's append path with a fault injector (nil
// disarms). Test and chaos-mode plumbing only.
func (j *Journal) SetFaults(in *faultinject.Injector) {
	j.mu.Lock()
	j.faults = in
	j.mu.Unlock()
}

// Degraded reports whether the journal has failed degradedAfter
// consecutive appends — the signal that sends the orchestrator
// read-only, because accepted work would not survive a restart.
func (j *Journal) Degraded() bool {
	return j.writeErrs.Load() >= degradedAfter
}

// probe attempts one durable write so a degraded journal can notice
// the disk healed. The probe line has no key, so replay skips it as
// foreign and the next compaction drops it. Called by the orchestrator
// when it rejects a submit in degraded mode: the rejection stands, but
// a successful probe resets the failure count and the next submit is
// accepted again.
func (j *Journal) probe() {
	j.append(journalEvent{Op: "probe"})
}

// Close releases the journal file. Pending state stays on disk.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// submitted records a job entering the queue and reports whether the
// journal holds a submit line for it, which its end line must then
// balance. A key the open-time compaction already wrote a line for
// consumes its replay credit instead of appending a duplicate.
func (j *Journal) submitted(id, key string, req Request) bool {
	j.mu.Lock()
	if j.credit[key] > 0 {
		j.credit[key]--
		j.mu.Unlock()
		return true
	}
	j.mu.Unlock()
	return j.append(journalEvent{Op: "submit", ID: id, Key: key, Request: &req})
}

// served ends the compacted submit line of a replayed key that was
// served from the cache without running, consuming its replay credit.
// A key without credit has no open line, and gets no end line.
func (j *Journal) served(id, key string) {
	j.mu.Lock()
	if j.credit[key] == 0 {
		j.mu.Unlock()
		return
	}
	j.credit[key]--
	j.mu.Unlock()
	j.append(journalEvent{Op: "end", ID: id, Key: key, Status: StatusDone})
}

// ended records a job reaching a terminal state.
func (j *Journal) ended(id, key string, status Status) {
	j.append(journalEvent{Op: "end", ID: id, Key: key, Status: status})
}

// append writes one event line and syncs it, reporting success: the
// journal exists to survive crashes, so an event the orchestrator
// acted on must be on disk before the next one. Event volume is one
// line per job lifecycle transition — far off any hot path.
func (j *Journal) append(ev journalEvent) bool {
	data, err := json.Marshal(ev)
	if err != nil {
		fmt.Fprintf(os.Stderr, "orchestrator: journal marshal: %v\n", err)
		return false
	}
	data = append(data, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return false
	}
	if out := j.faults.At(faultinject.PointJournalAppend); out.Fired {
		j.noteAppendError(fmt.Errorf("journal append %s/%s: %w", ev.Op, ev.Key, out.ErrOrDefault()))
		return false
	}
	if _, err := j.f.Write(data); err != nil {
		j.noteAppendError(fmt.Errorf("journal append: %w", err))
		return false
	}
	if err := j.f.Sync(); err != nil {
		j.noteAppendError(fmt.Errorf("journal sync: %w", err))
		return false
	}
	j.writeErrs.Store(0)
	return true
}

// noteAppendError logs a failed durable write and advances the
// consecutive-failure count that feeds Degraded.
func (j *Journal) noteAppendError(err error) {
	n := j.writeErrs.Add(1)
	fmt.Fprintf(os.Stderr, "orchestrator: %v (%d consecutive)\n", err, n)
	if n == degradedAfter {
		fmt.Fprintf(os.Stderr, "orchestrator: journal %s: %d consecutive write failures — entering degraded (read-only) mode\n", j.path, n)
	}
}
