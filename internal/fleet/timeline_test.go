package fleet

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/obs/tracez"
	"repro/internal/orchestrator"
)

// These tests pin the Timeline and tracing contracts for fleet-executed
// jobs: queue vs run time splits at the lease grant,
// a requeued job never counts its dead lease as run time, every job
// yields one rooted span tree, and every fault injection is
// correlatable to a flight-recorder event by trace ID.

// leaseAs polls the coordinator until worker holds a lease.
func leaseAs(t *testing.T, coord *Coordinator, worker string) *LeaseResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if l := coord.Lease(worker); l != nil {
			return l
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("worker %s never got a lease", worker)
	return nil
}

func TestFleetTimelineSplitsQueueAndRun(t *testing.T) {
	// A job with no worker available is queued, not running:
	// QueueSeconds accrues until the lease grant, RunSeconds from the
	// grant to completion, and the record names the executing worker.
	orch := orchestrator.NewQueue(orchestrator.Config{})
	defer orch.Close()
	coord := NewCoordinator(orch, Config{LeaseTTL: 5 * time.Second})
	defer coord.Close()

	rec, err := orch.Submit(quickJob("403.gcc"))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// No worker exists yet: the job sits in the queue.
	time.Sleep(150 * time.Millisecond)
	l := leaseAs(t, coord, "w1")
	leased := time.Now()
	time.Sleep(100 * time.Millisecond)
	if !coord.Complete(CompleteRequest{LeaseID: l.LeaseID, Result: stubResult(quickJob("403.gcc"))}) {
		t.Fatal("completion rejected")
	}
	got := waitDone(t, orch, rec.ID)
	wall := time.Since(leased).Seconds()
	if got.Status != orchestrator.StatusDone {
		t.Fatalf("status %s, error %q", got.Status, got.Error)
	}
	if got.Worker != "w1" {
		t.Fatalf("worker = %q, want w1", got.Worker)
	}
	tl := got.Timeline
	if tl.StartedAt == nil || tl.FinishedAt == nil {
		t.Fatalf("terminal job missing timestamps: %+v", tl)
	}
	if tl.QueueSeconds < 0.14 {
		t.Fatalf("queue = %.3fs, want >= 0.14 (the workerless wait is queue time, not run time)", tl.QueueSeconds)
	}
	if tl.RunSeconds < 0.09 || tl.RunSeconds > wall+0.05 {
		t.Fatalf("run = %.3fs, want ~0.1s (lease grant to completion; wall %.3fs)", tl.RunSeconds, wall)
	}
}

func TestFleetTimelineExcludesExpiredLease(t *testing.T) {
	// A job requeued after a lease expiry restarts its run clock at the
	// second grant: the dead first lease is queue time. Without the
	// reset, a straggler report would blame the healthy second worker
	// for the zombie's silence.
	reg := obs.NewRegistry()
	orch := orchestrator.NewQueue(orchestrator.Config{})
	defer orch.Close()
	coord := NewCoordinator(orch, Config{
		LeaseTTL:       60 * time.Millisecond,
		MaxAttempts:    3,
		RetryBaseDelay: 5 * time.Millisecond,
		Registry:       reg,
	})
	defer coord.Close()

	rec, err := orch.Submit(quickJob("403.gcc"))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	leaseAs(t, coord, "zombie") // takes the lease, never heartbeats
	firstLease := time.Now()
	// Let the dead lease rot well past its TTL before anyone re-polls.
	time.Sleep(250 * time.Millisecond)
	l2 := leaseAs(t, coord, "live")
	secondLease := time.Now()
	if l2.Attempt != 2 {
		t.Fatalf("second lease attempt = %d, want 2", l2.Attempt)
	}
	// "Run" for 100ms, heartbeating to keep the short-TTL lease alive
	// the way a live worker does.
	for i := 0; i < 5; i++ {
		time.Sleep(20 * time.Millisecond)
		if _, ok := coord.Heartbeat(l2.LeaseID, 500, 1000); !ok {
			t.Fatalf("heartbeat %d rejected — the live lease expired", i)
		}
	}
	if !coord.Complete(CompleteRequest{LeaseID: l2.LeaseID, Result: stubResult(quickJob("403.gcc"))}) {
		t.Fatal("completion rejected")
	}
	got := waitDone(t, orch, rec.ID)
	wall := time.Since(secondLease).Seconds()
	dead := secondLease.Sub(firstLease).Seconds()
	if got.Status != orchestrator.StatusDone {
		t.Fatalf("status %s, error %q", got.Status, got.Error)
	}
	if got.Worker != "live" {
		t.Fatalf("worker = %q, want live (the worker that actually executed)", got.Worker)
	}
	tl := got.Timeline
	if tl.RunSeconds >= dead {
		t.Fatalf("run = %.3fs >= %.3fs dead-lease window — the expired first lease was counted as run time", tl.RunSeconds, dead)
	}
	if tl.RunSeconds < 0.09 || tl.RunSeconds > wall+0.05 {
		t.Fatalf("run = %.3fs, want ~0.1s (second grant to completion; wall %.3fs)", tl.RunSeconds, wall)
	}
	if tl.QueueSeconds < 0.24 {
		t.Fatalf("queue = %.3fs, want >= 0.24 (the dead lease accrues as queue time)", tl.QueueSeconds)
	}
}

// spanNames lists span names for failure messages.
func spanNames(spans []tracez.Span) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}

// checkSpanTree asserts the acceptance invariant on one trace: exactly
// one root (named rootName), unique span IDs, and every parent pointer
// resolving to a span in the same trace — zero orphans.
func checkSpanTree(t *testing.T, spans []tracez.Span, rootName string) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	ids := make(map[string]bool, len(spans))
	for _, s := range spans {
		if s.TraceID != spans[0].TraceID {
			t.Errorf("span %q is in trace %s, want %s", s.Name, s.TraceID, spans[0].TraceID)
		}
		if ids[s.SpanID] {
			t.Errorf("duplicate span ID %s (%q)", s.SpanID, s.Name)
		}
		ids[s.SpanID] = true
	}
	roots := 0
	for _, s := range spans {
		if s.Parent == "" {
			roots++
			if s.Name != rootName {
				t.Errorf("root span is %q, want %q", s.Name, rootName)
			}
			continue
		}
		if !ids[s.Parent] {
			t.Errorf("span %q has orphan parent %s", s.Name, s.Parent)
		}
	}
	if roots != 1 {
		t.Errorf("trace has %d roots, want 1 (%v)", roots, spanNames(spans))
	}
}

func TestFleetJobProducesRootedSpanTree(t *testing.T) {
	// A fleet-executed job yields one rooted span tree spanning client,
	// orchestrator, coordinator and worker in the flight recorder: the
	// worker's spans crossed the wire in its CompleteRequest and parent
	// under the attempt's lnuca.orch.run span.
	flight := tracez.NewFlightRecorder(0, 0, 0)
	tracer := tracez.New(flight)
	s := startStack(t,
		Config{LeaseTTL: 5 * time.Second, Events: flight, Spans: flight},
		orchestrator.Config{Workers: 2, Tracer: tracer, Flight: flight},
		2,
		func(ctx context.Context, j orchestrator.Job, progress func(done, total uint64)) (*orchestrator.JobResult, error) {
			progress(500, 1000)
			return stubResult(j), nil
		})
	defer s.close()

	// The "client" side: a root span around the submission, exactly what
	// Client.Submit opens on the other end of HTTP.
	root, ctx := tracer.Start(context.Background(), "lnuca.client.submit")
	rec, err := s.orch.SubmitCtx(ctx, quickJob("403.gcc"))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	got := waitDone(t, s.orch, rec.ID)
	root.Finish()
	if got.Status != orchestrator.StatusDone {
		t.Fatalf("status %s, error %q", got.Status, got.Error)
	}
	if got.TraceID == "" {
		t.Fatal("traced job record has no trace ID")
	}
	if got.TraceID != root.TraceID {
		t.Fatalf("job trace %s != client trace %s — propagation broke at submission", got.TraceID, root.TraceID)
	}

	want := []string{
		"lnuca.client.submit", "lnuca.orch.submit", "lnuca.orch.job",
		"lnuca.orch.queue", "lnuca.orch.run", "lnuca.worker.execute",
	}
	// Spans land asynchronously (orchestrator goroutines finish theirs
	// after the terminal record); poll until the full tree is present.
	var spans []tracez.Span
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		spans = flight.Spans(got.TraceID)
		have := make(map[string]bool, len(spans))
		for _, sp := range spans {
			have[sp.Name] = true
		}
		missing := false
		for _, name := range want {
			if !have[name] {
				missing = true
				break
			}
		}
		if !missing {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	have := make(map[string]bool, len(spans))
	for _, sp := range spans {
		have[sp.Name] = true
	}
	for _, name := range want {
		if !have[name] {
			t.Errorf("trace is missing span %q (got %v)", name, spanNames(spans))
		}
	}
	if len(spans) < 5 {
		t.Fatalf("trace has %d spans, want >= 5: %v", len(spans), spanNames(spans))
	}
	checkSpanTree(t, spans, "lnuca.client.submit")
}

func TestFaultEventsCorrelateToTraces(t *testing.T) {
	// Every injector fire lands in the flight recorder as exactly one
	// "fault" event, and a fire at a trace-carrying site (here: the
	// cache write of a traced job's result) carries that job's trace ID
	// — the correlation the chaos post-mortem workflow depends on.
	in := faultinject.New(42)
	in.Enable(faultinject.PointCacheWrite, faultinject.Plan{Rate: 1, MaxFires: 1})
	var fires atomic.Uint64
	in.OnFire(func(faultinject.Point) { fires.Add(1) })
	flight := tracez.NewFlightRecorder(0, 0, 0)
	in.OnEvent(func(e faultinject.Event) { flight.Event("fault", e.TraceID, string(e.Point)) })

	cache := orchestrator.NewCache(0, t.TempDir())
	cache.SetFaults(in)
	orch := orchestrator.New(orchestrator.Config{
		Workers: 1,
		Cache:   cache,
		Tracer:  tracez.New(flight),
		Flight:  flight,
		Run: func(ctx context.Context, j orchestrator.Job, progress func(done, total uint64)) (*orchestrator.JobResult, error) {
			return stubResult(j), nil
		},
	})
	defer orch.Close()

	rec, err := orch.Submit(quickJob("403.gcc"))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	got := waitDone(t, orch, rec.ID)
	if got.Status != orchestrator.StatusDone {
		t.Fatalf("status %s, error %q (a capped cache-write fault loses the entry, never the job)", got.Status, got.Error)
	}
	if got.TraceID == "" {
		t.Fatal("traced job record has no trace ID")
	}

	var faults []tracez.Event
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		faults = faults[:0]
		for _, e := range flight.Events(got.TraceID) {
			if e.Kind == "fault" {
				faults = append(faults, e)
			}
		}
		if fires.Load() == 1 && len(faults) == 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := fires.Load(); n != 1 {
		t.Fatalf("cache-write fault fired %d times, want 1", n)
	}
	if len(faults) != 1 {
		t.Fatalf("trace %s has %d fault events, want 1 — every lnuca_fault_injected_total increment must be correlatable", got.TraceID, len(faults))
	}
	if faults[0].Detail != string(faultinject.PointCacheWrite) {
		t.Fatalf("fault event detail = %q, want %q", faults[0].Detail, faultinject.PointCacheWrite)
	}
	// The event strip holds no unattributed fault: the write site had
	// the job's trace in hand.
	for _, e := range flight.Events("") {
		if e.Kind == "fault" && e.TraceID == "" {
			t.Errorf("unattributed fault event %+v — the cache write site carries the job's trace ID", e)
		}
	}
}
