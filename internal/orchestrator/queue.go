package orchestrator

import (
	"context"
	"errors"
	"log/slog"
	"strconv"
	"time"

	"repro/internal/obs/tracez"
	"repro/internal/pqueue"
)

// The orchestrator's queue is the only job queue. It has two kinds of
// consumer: the in-process pool (New starts one; worker below) and
// external consumers that claim tasks without blocking (the fleet
// coordinator's leases; TryClaim). Both move a task through the same
// transitions — startLocked (queued→running), Requeue (running→queued)
// and endLocked (→terminal) — so status, timestamps, spans, counters
// and the journal live in one task record whichever consumer runs the
// job.

// newTaskQueue builds the job queue: a priority heap ordered by
// priority (higher first), then by submission order (earlier first).
// Index tracking through task.heapIdx lets Cancel remove a queued task
// without searching the heap.
func newTaskQueue() *pqueue.Queue[*task] {
	return pqueue.New(
		func(a, b *task) bool {
			if a.job.Priority != b.job.Priority {
				return a.job.Priority > b.job.Priority
			}
			return a.seq < b.seq
		},
		func(t *task, idx int) { t.heapIdx = idx },
	)
}

// queuedLocked counts queued tasks: the heap plus requeued tasks
// waiting out their backoff.
func (o *Orchestrator) queuedLocked() int { return o.queue.Len() + len(o.delayed) }

// popLocked promotes requeued tasks whose backoff has elapsed, then
// pops the highest-priority ready task.
func (o *Orchestrator) popLocked(now time.Time) (*task, bool) {
	kept := o.delayed[:0]
	for _, t := range o.delayed {
		if t.readyAt.After(now) {
			kept = append(kept, t)
			continue
		}
		o.queue.Push(t)
	}
	clear(o.delayed[len(kept):])
	o.delayed = kept
	return o.queue.Pop()
}

// dequeueLocked removes a queued task from the heap or the backoff list.
func (o *Orchestrator) dequeueLocked(t *task) {
	if t.heapIdx >= 0 {
		o.queue.RemoveAt(t.heapIdx)
		return
	}
	for i, d := range o.delayed {
		if d == t {
			o.delayed = append(o.delayed[:i], o.delayed[i+1:]...)
			return
		}
	}
}

// jobContext carries the tracer and t's job span identity, so spans
// opened under it parent under the job.
func (o *Orchestrator) jobContext(t *task) context.Context {
	ctx := tracez.WithTracer(context.Background(), o.cfg.Tracer)
	return tracez.WithSpanContext(ctx, t.jobSpan.Context())
}

// startLocked moves a popped task from queued to running on the named
// worker ("" for the in-process pool). It returns the run context: the
// job's trace with the attempt's lnuca.orch.run span as parent, so the
// executor's spans — local phase spans or a fleet worker's — nest
// under this attempt.
func (o *Orchestrator) startLocked(t *task, worker string, now time.Time) context.Context {
	t.status = StatusRunning
	t.startedAt = now
	t.worker = worker
	t.attempts++
	t.queueSpan.FinishAt(now)
	var ctx context.Context
	t.runSpan, ctx = tracez.StartSpanAt(o.jobContext(t), "lnuca.orch.run", now)
	t.runSpan.SetAttr("attempt", strconv.Itoa(t.attempts))
	if worker != "" {
		t.runSpan.SetAttr("worker", worker)
	}
	o.log.Info("job started", "job_id", t.id, "key", t.key, "worker", worker,
		"attempt", t.attempts, "queue_seconds", now.Sub(t.submittedAt).Seconds())
	return ctx
}

// endLocked moves a queued or running task to its terminal state: an
// error outcome is canceled (a context cancellation, or any error
// after a cancel request) or failed; otherwise the task is done with
// res. It releases the singleflight entry, updates the counters,
// spans and latency histograms, and journals the end — except for
// cancellations by Close, which a restart must resubmit. Callers that
// have a result publish it to the cache first, so an identical
// submission arriving after the singleflight entry is gone hits it.
func (o *Orchestrator) endLocked(t *task, res *JobResult, err error) {
	//lnuca:allow(determinism) job lifecycle timestamp; telemetry only, never in result content or keys
	t.finishedAt = time.Now()
	if o.byKey[t.key] == t {
		delete(o.byKey, t.key)
	}
	ran := !t.startedAt.IsZero()
	switch {
	case err != nil && (errors.Is(err, context.Canceled) || t.canceled):
		t.status = StatusCanceled
		if ran {
			t.errMsg = context.Canceled.Error()
		}
		o.canceled++
	case err != nil:
		t.status = StatusFailed
		t.errMsg = err.Error()
		o.failed++
	default:
		t.status = StatusDone
		t.result = res
		o.executed++
	}
	t.claim = nil
	t.queueSpan.FinishAt(t.finishedAt)
	t.runSpan.SetAttr("status", string(t.status))
	t.runSpan.SetError(err)
	t.runSpan.FinishAt(t.finishedAt)
	t.jobSpan.SetAttr("status", string(t.status))
	t.jobSpan.SetError(err)
	t.jobSpan.FinishAt(t.finishedAt)
	o.markTerminalLocked(t)
	if o.cfg.Journal != nil && t.journaled && !(o.closed && t.status == StatusCanceled) {
		o.cfg.Journal.ended(t.id, t.key, t.status)
	}

	var runFor float64
	if ran {
		runFor = t.finishedAt.Sub(t.startedAt).Seconds()
		if o.queueSeconds != nil {
			o.queueSeconds.Observe(t.startedAt.Sub(t.submittedAt).Seconds())
			o.runSeconds.Observe(runFor)
		}
	}
	level := slog.LevelInfo
	switch t.status {
	case StatusDone:
		o.observeRun(res)
	case StatusFailed:
		level = slog.LevelWarn
	}
	o.log.Log(context.Background(), level, "job "+string(t.status), "job_id", t.id, "key", t.key,
		"ran", ran, "run_seconds", runFor, "mips", runMIPS(res), "error", t.errMsg)
}

// finish ends a running task with its outcome, publishing a result to
// the cache before the singleflight entry is released. c is the
// external consumer's claim (nil for pool runs); finish reports false,
// dropping the outcome, unless the task is still running under it — an
// API cancel or Close ends a claimed task at once. ctx attributes
// injected persist faults to the job's trace.
func (o *Orchestrator) finish(ctx context.Context, t *task, c *Claim, res *JobResult, err error) bool {
	if err == nil {
		o.cache.PutCtx(ctx, t.key, res)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if t.status != StatusRunning || t.claim != c {
		return false
	}
	o.endLocked(t, res, err)
	return true
}

// worker is one in-process pool goroutine: pop the highest-priority
// task, run it through Config.Run, finish it.
func (o *Orchestrator) worker() {
	defer o.wg.Done()
	for {
		o.mu.Lock()
		for o.queue.Len() == 0 && !o.closed {
			o.cond.Wait()
		}
		if o.closed {
			o.mu.Unlock()
			return
		}
		//lnuca:allow(determinism) job lifecycle timestamp; telemetry only, never in result content or keys
		now := time.Now()
		t, _ := o.popLocked(now)
		ctx, cancel := context.WithCancel(o.startLocked(t, "", now))
		t.cancel = cancel
		o.mu.Unlock()

		res, err := o.cfg.Run(ctx, t.job, t.setProgress)
		cancel()
		o.finish(ctx, t, nil, res, err)
	}
}

// Claim is one execution attempt of a job held by an external
// consumer — the fleet coordinator's lease. The consumer ends every
// claim exactly once, with Finish or Requeue.
type Claim struct {
	JobID string
	Key   string
	Job   Job
	// Attempt counts the job's executions so far, this one included
	// (a requeue with refund gives one back).
	Attempt int
	// SubmittedAt is when the job was accepted.
	SubmittedAt time.Time
	// Traceparent is the attempt's lnuca.orch.run span context: the
	// executor's spans parent under it. TraceID names the job's trace.
	// Both are empty when tracing is off.
	Traceparent string
	TraceID     string

	t *task
}

// TryClaim pops the highest-priority ready job for the named worker
// without blocking and starts its run; nil when nothing is ready (a
// closed orchestrator has an empty queue).
func (o *Orchestrator) TryClaim(worker string) *Claim {
	//lnuca:allow(determinism) job lifecycle timestamp; telemetry only, never in result content or keys
	now := time.Now()
	o.mu.Lock()
	defer o.mu.Unlock()
	t, ok := o.popLocked(now) // Close empties the queue
	if !ok {
		return nil
	}
	ctx := o.startLocked(t, worker, now)
	c := &Claim{
		JobID:       t.id,
		Key:         t.key,
		Job:         t.job,
		Attempt:     t.attempts,
		SubmittedAt: t.submittedAt,
		Traceparent: tracez.Inject(ctx),
		TraceID:     t.traceID,
		t:           t,
	}
	t.claim = c
	return c
}

// Heartbeat records the claimed run's progress (committed and total
// instructions; ignored while total is 0) and reports whether the job
// was canceled, in which case the executor should abort.
func (o *Orchestrator) Heartbeat(c *Claim, done, total uint64) (canceled bool) {
	if total > 0 {
		c.t.setProgress(done, total)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return c.t.canceled
}

// Finish ends a claim with its outcome: a result (err nil) or an
// error, which fails the job — or cancels it, for a cancellation. It
// reports false, dropping the outcome, when the claim is no longer the
// job's current attempt (the job was canceled or the orchestrator
// closed).
func (o *Orchestrator) Finish(c *Claim, res *JobResult, err error) bool {
	ctx := tracez.WithSpanContext(context.Background(), tracez.SpanContext{TraceID: c.TraceID})
	return o.finish(ctx, c.t, c, res, err)
}

// Requeue ends a claim without an outcome and puts the job back in the
// queue: the attempt's run span closes, a new queue span opens, and the
// run clock restarts at the next start, so time spent on a dead attempt
// counts as queue time. The job is claimable again from readyAt (its
// retry backoff); refund gives the attempt back. Requeue reports false
// when the claim is no longer live.
func (o *Orchestrator) Requeue(c *Claim, readyAt time.Time, refund bool, reason string) bool {
	//lnuca:allow(determinism) job lifecycle timestamp; telemetry only, never in result content or keys
	now := time.Now()
	o.mu.Lock()
	defer o.mu.Unlock()
	t := c.t
	if t.claim != c {
		return false
	}
	t.runSpan.SetAttr("status", "requeued")
	t.runSpan.SetError(errors.New(reason))
	t.runSpan.FinishAt(now)
	t.queueSpan, _ = tracez.StartSpanAt(o.jobContext(t), "lnuca.orch.queue", now)
	t.status = StatusQueued
	t.startedAt = time.Time{}
	t.worker = ""
	t.claim = nil
	if refund {
		t.attempts--
	}
	t.readyAt = readyAt
	if readyAt.After(now) {
		o.delayed = append(o.delayed, t)
	} else {
		o.queue.Push(t)
		o.cond.Signal()
	}
	o.log.Info("job requeued", "job_id", t.id, "key", t.key, "attempt", t.attempts, "reason", reason)
	return true
}
