package fleet

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/orchestrator"
)

// TestFleetWorkerDrainReleasesLease: a worker shut down mid-job must
// hand its lease back explicitly — attempt refunded, job requeued
// immediately — instead of letting the lease zombie until the reaper.
func TestFleetWorkerDrainReleasesLease(t *testing.T) {
	reg := obs.NewRegistry()
	// A TTL far longer than the test: if the job comes back at all, it
	// came back through the release path, not the reaper.
	orch := orchestrator.NewQueue(orchestrator.Config{})
	defer orch.Close()
	coord := NewCoordinator(orch, Config{
		LeaseTTL:       30 * time.Second,
		MaxAttempts:    3,
		RetryBaseDelay: time.Millisecond,
		Registry:       reg,
	})
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	started := make(chan struct{})
	var startOnce sync.Once
	ctx, cancel := context.WithCancel(context.Background())
	w := NewWorker(WorkerConfig{
		Coordinator:  srv.URL,
		Name:         "drainer",
		PollInterval: time.Millisecond,
		DrainGrace:   0, // release immediately on shutdown
		Run: func(ctx context.Context, j orchestrator.Job, progress func(done, total uint64)) (*orchestrator.JobResult, error) {
			startOnce.Do(func() { close(started) })
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	var done sync.WaitGroup
	done.Add(1)
	go func() { defer done.Done(); _ = w.Run(ctx) }()

	rec, err := orch.Submit(quickJob("403.gcc"))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started on the drainer")
	}

	// SIGTERM the worker. The drain path must deliver the release even
	// though every context derived from the poll loop is now canceled.
	t0 := time.Now()
	cancel()
	done.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for coord.releases.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := coord.releases.Value(); got != 1 {
		t.Fatalf("releases = %d, want 1 (drain must hand the lease back)", got)
	}
	if elapsed := time.Since(t0); elapsed > 15*time.Second {
		t.Fatalf("release took %v — that is reaper territory, not a drain", elapsed)
	}
	if got := coord.requeues.Value(); got != 0 {
		t.Fatalf("requeues = %d, want 0 (the reaper must not be involved)", got)
	}

	// The release refunded the attempt: the successor sees attempt 1,
	// exactly as if the drained worker had never touched the job.
	var l *LeaseResponse
	deadline = time.Now().Add(10 * time.Second)
	for l == nil && time.Now().Before(deadline) {
		if l = coord.Lease("successor"); l == nil {
			time.Sleep(time.Millisecond)
		}
	}
	if l == nil {
		t.Fatal("released job never requeued")
	}
	if l.Attempt != 1 {
		t.Fatalf("successor lease attempt = %d, want 1 (release refunds the attempt)", l.Attempt)
	}
	if !coord.Complete(CompleteRequest{LeaseID: l.LeaseID, Result: stubResult(quickJob("403.gcc"))}) {
		t.Fatal("successor completion rejected")
	}
	if got := waitDone(t, orch, rec.ID); got.Status != orchestrator.StatusDone {
		t.Fatalf("job status %s, error %q", got.Status, got.Error)
	}
	checkBalance(t, orch)
}

// TestFleetWorkerDrainGraceLetsJobFinish: with DrainGrace set, a
// shutdown mid-job lets the run finish and the finished result is
// delivered normally — no release, no retry, no lost work.
func TestFleetWorkerDrainGraceLetsJobFinish(t *testing.T) {
	reg := obs.NewRegistry()
	orch := orchestrator.NewQueue(orchestrator.Config{})
	defer orch.Close()
	coord := NewCoordinator(orch, Config{LeaseTTL: 30 * time.Second, Registry: reg})
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	started := make(chan struct{})
	var startOnce sync.Once
	finish := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	w := NewWorker(WorkerConfig{
		Coordinator:  srv.URL,
		Name:         "graceful",
		PollInterval: time.Millisecond,
		DrainGrace:   20 * time.Second,
		Run: func(ctx context.Context, j orchestrator.Job, progress func(done, total uint64)) (*orchestrator.JobResult, error) {
			startOnce.Do(func() { close(started) })
			// Ignore ctx: within the grace window the run context stays
			// live, so a well-behaved job simply keeps going.
			<-finish
			return stubResult(j), nil
		},
	})
	var done sync.WaitGroup
	done.Add(1)
	go func() { defer done.Done(); _ = w.Run(ctx) }()
	defer func() {
		cancel()
		done.Wait()
	}()

	rec, err := orch.Submit(quickJob("429.mcf"))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started")
	}

	// Shutdown arrives mid-run; the job finishes inside the grace.
	cancel()
	close(finish)

	if got := waitDone(t, orch, rec.ID); got.Status != orchestrator.StatusDone {
		t.Fatalf("job status %s, error %q — drained worker must still deliver its result", got.Status, got.Error)
	}
	if got := coord.releases.Value(); got != 0 {
		t.Fatalf("releases = %d, want 0 (the run finished; nothing to release)", got)
	}
	if got := coord.requeues.Value(); got != 0 {
		t.Fatalf("requeues = %d, want 0", got)
	}
	checkBalance(t, orch)
}
