package fleet

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tracez"
	"repro/internal/orchestrator"
	"repro/internal/trace"
)

// Config tunes a Coordinator.
type Config struct {
	// LeaseTTL is how long a worker may go silent before its lease
	// expires and the job is requeued (default 10s). Workers heartbeat
	// at a third of this.
	LeaseTTL time.Duration
	// MaxAttempts bounds how many leases one job may consume before it
	// fails terminally (default 3). Every lease grant counts — including
	// ones lost to a dead worker.
	MaxAttempts int
	// RetryBaseDelay and RetryMaxDelay shape the capped exponential
	// backoff between a requeue and the job's next lease (defaults
	// 500ms and 30s): delay = min(base << (attempt-1), max).
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// Traces is the coordinator-side trace store workers fetch recorded
	// streams from on a local miss (default: a fresh memory-only store;
	// lnucad shares the orchestrator's).
	Traces *trace.Store
	// Logger receives lease-lifecycle events (default: discard).
	Logger *slog.Logger
	// Registry, when set, exports the lnuca_fleet_* metrics.
	Registry *obs.Registry
	// Events, when set, receives lease-lifecycle events (grants,
	// expiries, requeues, completions) correlated by trace ID in the
	// flight recorder, next to the spans of the same trace.
	Events *tracez.FlightRecorder
	// Spans, when set, ingests the worker-side spans piggybacked on
	// lease completions (after validation). lnucad points this at the
	// same recorder chain the orchestrator's tracer writes to.
	Spans tracez.Recorder
}

// lease is one worker's claim on a job: the orchestrator's Claim plus
// the lease's identity and heartbeat deadline.
type lease struct {
	id       string
	claim    *orchestrator.Claim
	worker   string
	deadline time.Time
}

// Coordinator serves the orchestrator's job queue to a worker fleet.
// It is the queue's external consumer: a lease grant claims a job, a
// heartbeat reads the job's cancel flag, and a completion, an expiry
// or a release ends the claim by finishing or requeueing the job —
// through the same transitions, cache publication, singleflight and
// counters as the orchestrator's in-process pool. The coordinator
// itself keeps only the lease table and the retry policy.
type Coordinator struct {
	cfg  Config
	orch *orchestrator.Orchestrator

	mu      sync.Mutex
	leases  map[string]*lease
	workers map[string]time.Time // worker name -> last poll
	seq     uint64

	stopReaper context.CancelFunc
	reaperDone chan struct{}

	log *slog.Logger

	// lnuca_fleet_* instruments; nil without a Config.Registry.
	leasesGranted   *obs.Counter
	requeues        *obs.Counter
	workerErrors    *obs.Counter
	jobsFailed      *obs.Counter
	results         *obs.Counter
	lateCompletions *obs.Counter
	releases        *obs.Counter
	heartbeats      *obs.Counter
	dispatchSeconds *obs.Histogram
}

// NewCoordinator starts a coordinator serving orch's queue, and its
// lease reaper. Build orch with orchestrator.NewQueue, so the fleet's
// workers are its only executors.
func NewCoordinator(orch *orchestrator.Orchestrator, cfg Config) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.RetryBaseDelay <= 0 {
		cfg.RetryBaseDelay = 500 * time.Millisecond
	}
	if cfg.RetryMaxDelay <= 0 {
		cfg.RetryMaxDelay = 30 * time.Second
	}
	if cfg.Traces == nil {
		cfg.Traces = trace.NewStore("")
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.Discard()
	}
	c := &Coordinator{
		cfg:        cfg,
		orch:       orch,
		leases:     make(map[string]*lease),
		workers:    make(map[string]time.Time),
		reaperDone: make(chan struct{}),
		log:        cfg.Logger,
	}
	if cfg.Registry != nil {
		c.register(cfg.Registry)
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.stopReaper = cancel
	go c.reaper(ctx)
	return c
}

// register exports the fleet's operational state on reg.
func (c *Coordinator) register(reg *obs.Registry) {
	c.leasesGranted = reg.Counter("lnuca_fleet_leases_granted_total",
		"Leases handed to workers (every attempt of every job).")
	c.requeues = reg.Counter("lnuca_fleet_requeues_total",
		"Jobs requeued after a lease expired or a worker reported a retryable failure.")
	c.workerErrors = reg.Counter("lnuca_fleet_worker_errors_total",
		"Lease completions that carried an error instead of a result.")
	c.jobsFailed = reg.Counter("lnuca_fleet_jobs_failed_total",
		"Fleet jobs that failed terminally (attempts exhausted or a deterministic error).")
	c.results = reg.Counter("lnuca_fleet_results_total",
		"Results accepted from workers.")
	c.lateCompletions = reg.Counter("lnuca_fleet_late_completions_total",
		"Completions for leases already expired or requeued (answered 410 Gone).")
	c.releases = reg.Counter("lnuca_fleet_releases_total",
		"Leases explicitly handed back by draining workers (attempt refunded, job requeued immediately).")
	c.heartbeats = reg.Counter("lnuca_fleet_heartbeats_total",
		"Worker heartbeats received.")
	c.dispatchSeconds = reg.Histogram("lnuca_fleet_dispatch_seconds",
		"Wall time from submission to terminal outcome of fleet-executed jobs, retries included.",
		[]float64{0.05, 0.25, 1, 5, 30, 120, 600})
	reg.GaugeFunc("lnuca_fleet_jobs_pending",
		"Jobs waiting for a worker (backoff-delayed retries included).",
		func() float64 { return float64(c.orch.Metrics().QueueDepth) })
	reg.GaugeFunc("lnuca_fleet_leases_active",
		"Jobs currently leased to a worker.",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(len(c.leases))
		})
	reg.GaugeFunc("lnuca_fleet_workers_active",
		"Distinct workers that polled for work within three lease TTLs.",
		func() float64 {
			//lnuca:allow(determinism) operational telemetry; never result content
			cutoff := time.Now().Add(-3 * c.cfg.LeaseTTL)
			c.mu.Lock()
			defer c.mu.Unlock()
			n := 0
			//lnuca:allow(determinism) a count does not depend on iteration order
			for _, at := range c.workers {
				if at.After(cutoff) {
					n++
				}
			}
			return float64(n)
		})
}

// Close stops the lease reaper. Close the orchestrator first: its
// shutdown cancels every job still leased.
func (c *Coordinator) Close() {
	c.stopReaper()
	<-c.reaperDone
}

// note logs a lease-lifecycle event and records it in the flight
// recorder, if one is configured, under the job's trace. The recorder
// is a leaf that never calls back into the coordinator.
func (c *Coordinator) note(level slog.Level, kind string, cl *orchestrator.Claim, detail string) {
	c.log.Log(context.Background(), level, "fleet "+kind, "job_id", cl.JobID, "key", cl.Key,
		"attempt", cl.Attempt, "detail", detail)
	if c.cfg.Events != nil {
		c.cfg.Events.Event(kind, cl.TraceID, detail)
	}
}

// Lease grants the next claimable job to a polling worker, or nil when
// there is none. Implements the POST /fleet/v1/lease semantics.
func (c *Coordinator) Lease(worker string) *LeaseResponse {
	//lnuca:allow(determinism) lease deadlines are wall-clock by nature; never result content
	now := time.Now()
	c.mu.Lock()
	c.workers[worker] = now
	cl := c.orch.TryClaim(worker)
	if cl == nil {
		c.mu.Unlock()
		return nil
	}
	c.seq++
	l := &lease{
		id:       fmt.Sprintf("lease-%06d", c.seq),
		claim:    cl,
		worker:   worker,
		deadline: now.Add(c.cfg.LeaseTTL),
	}
	c.leases[l.id] = l
	c.mu.Unlock()
	if c.leasesGranted != nil {
		c.leasesGranted.Inc()
	}
	c.note(slog.LevelInfo, "lease_granted", cl, fmt.Sprintf("lease %s worker %s attempt %d", l.id, worker, cl.Attempt))
	return &LeaseResponse{
		LeaseID:          l.id,
		JobID:            cl.JobID,
		Key:              cl.Key,
		Request:          orchestrator.RequestOf(cl.Job),
		Attempt:          cl.Attempt,
		HeartbeatSeconds: c.cfg.LeaseTTL.Seconds(),
		Traceparent:      cl.Traceparent,
	}
}

// Heartbeat extends a lease and forwards progress; ok is false for an
// unknown or expired lease (the worker should abort — its job has been
// requeued). cancel tells the worker the submitter gave up.
func (c *Coordinator) Heartbeat(leaseID string, done, total uint64) (cancel, ok bool) {
	//lnuca:allow(determinism) lease deadlines are wall-clock by nature; never result content
	now := time.Now()
	c.mu.Lock()
	l, ok := c.leases[leaseID]
	if ok {
		l.deadline = now.Add(c.cfg.LeaseTTL)
	}
	c.mu.Unlock()
	if !ok {
		return false, false
	}
	if c.heartbeats != nil {
		c.heartbeats.Inc()
	}
	return c.orch.Heartbeat(l.claim, done, total), true
}

// Complete finishes a lease with a result or an error; ok is false for
// an unknown or expired lease (late completion — answered 410, and the
// requeued attempt's outcome is the one that counts).
func (c *Coordinator) Complete(req CompleteRequest) (ok bool) {
	// Worker spans are ingested even for late or canceled leases: the
	// execution happened, and its trace is worth keeping regardless of
	// which attempt's outcome won.
	c.ingestSpans(req.Spans)
	c.mu.Lock()
	l, found := c.leases[req.LeaseID]
	delete(c.leases, req.LeaseID)
	c.mu.Unlock()
	if !found {
		if c.lateCompletions != nil {
			c.lateCompletions.Inc()
		}
		return false
	}
	cl := l.claim
	switch {
	case req.Error == "" && req.Result != nil:
		// A canceled job drops the outcome.
		if !c.orch.Finish(cl, req.Result, nil) {
			return true
		}
		if c.results != nil {
			c.results.Inc()
		}
		c.observeDispatch(cl)
		c.note(slog.LevelInfo, "completed", cl, fmt.Sprintf("lease %s worker %s delivered a result", l.id, l.worker))
	case req.Released:
		// An explicit, healthy hand-back: the worker is draining and
		// could not finish. Refund the attempt and requeue immediately —
		// no backoff and no attempt burned, so a rolling restart of the
		// whole fleet can never exhaust a job's budget.
		if !c.orch.Requeue(cl, time.Time{}, true, "lease released by draining worker "+l.worker) {
			return true
		}
		if c.releases != nil {
			c.releases.Inc()
		}
		c.note(slog.LevelInfo, "lease_released", cl, fmt.Sprintf("lease %s handed back by draining worker %s", l.id, l.worker))
	default:
		// An error outcome. A result-less success is malformed and
		// treated as a retryable infrastructure failure.
		errMsg := req.Error
		retryable := req.Retryable
		if errMsg == "" {
			errMsg = "worker returned neither result nor error"
			retryable = true
		}
		if c.workerErrors != nil {
			c.workerErrors.Inc()
		}
		c.note(slog.LevelWarn, "worker_error", cl, fmt.Sprintf("lease %s worker %s (retryable %v): %s", l.id, l.worker, retryable, errMsg))
		if retryable {
			//lnuca:allow(determinism) retry backoff scheduling; never result content
			c.retry(cl, errMsg, time.Now())
		} else {
			c.fail(cl, fmt.Errorf("fleet: worker %s: %s", l.worker, errMsg))
		}
	}
	return true
}

// retry requeues a job whose lease ended without a usable result,
// after a capped exponential backoff — or fails it once its attempt
// budget is spent.
func (c *Coordinator) retry(cl *orchestrator.Claim, reason string, now time.Time) {
	if cl.Attempt >= c.cfg.MaxAttempts {
		c.fail(cl, fmt.Errorf("fleet: job failed after %d attempts: %s", cl.Attempt, reason))
		return
	}
	delay := c.backoff(cl.Attempt)
	if !c.orch.Requeue(cl, now.Add(delay), false, reason) {
		return
	}
	if c.requeues != nil {
		c.requeues.Inc()
	}
	c.note(slog.LevelWarn, "requeued", cl, fmt.Sprintf("attempt %d: %s (backoff %.2fs)", cl.Attempt, reason, delay.Seconds()))
}

// fail ends a job terminally with err.
func (c *Coordinator) fail(cl *orchestrator.Claim, err error) {
	if !c.orch.Finish(cl, nil, err) {
		return
	}
	if c.jobsFailed != nil {
		c.jobsFailed.Inc()
	}
	c.observeDispatch(cl)
	c.note(slog.LevelWarn, "failed", cl, err.Error())
}

// observeDispatch records a fleet job's submission-to-outcome time.
func (c *Coordinator) observeDispatch(cl *orchestrator.Claim) {
	if c.dispatchSeconds != nil {
		//lnuca:allow(determinism) dispatch latency telemetry; never result content
		c.dispatchSeconds.Observe(time.Since(cl.SubmittedAt).Seconds())
	}
}

// ingestSpans lands worker-shipped spans in the configured recorder,
// dropping malformed ones. Telemetry never fails a completion.
func (c *Coordinator) ingestSpans(spans []tracez.Span) {
	if c.cfg.Spans == nil {
		return
	}
	for _, s := range spans {
		if err := tracez.ValidSpan(s); err != nil {
			c.log.Warn("dropping invalid worker span", "name", s.Name, "error", err)
			continue
		}
		c.cfg.Spans.Record(s)
	}
}

// backoff is the capped exponential retry delay after the given number
// of completed attempts: base << (attempts-1), capped at RetryMaxDelay.
func (c *Coordinator) backoff(attempts int) time.Duration {
	d := c.cfg.RetryBaseDelay
	for i := 1; i < attempts; i++ {
		d *= 2
		if d >= c.cfg.RetryMaxDelay {
			return c.cfg.RetryMaxDelay
		}
	}
	if d > c.cfg.RetryMaxDelay {
		return c.cfg.RetryMaxDelay
	}
	return d
}

// reaper periodically requeues jobs whose leases expired — the dead-
// worker path: a worker that stops heartbeating loses its lease, and
// the job runs again elsewhere (its completed cache entry, if the dead
// worker got that far, makes the rerun a no-op at publish time).
func (c *Coordinator) reaper(ctx context.Context) {
	defer close(c.reaperDone)
	interval := c.cfg.LeaseTTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	//lnuca:allow(determinism) lease expiry is wall-clock behavior by definition; never result content
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-tick.C:
			c.expireLeases(now)
		}
	}
}

// expireLeases requeues every job whose lease deadline has passed.
func (c *Coordinator) expireLeases(now time.Time) {
	c.mu.Lock()
	held := make([]*lease, 0, len(c.leases))
	for _, l := range c.leases {
		held = append(held, l)
	}
	sort.Slice(held, func(i, j int) bool { return held[i].id < held[j].id })
	var expired []*lease
	for _, l := range held {
		if l.deadline.Before(now) {
			expired = append(expired, l)
			delete(c.leases, l.id)
		}
	}
	c.mu.Unlock()
	for _, l := range expired {
		c.note(slog.LevelWarn, "lease_expired", l.claim, fmt.Sprintf("lease %s on worker %s missed its heartbeat deadline", l.id, l.worker))
		c.retry(l.claim, fmt.Sprintf("lease %s on worker %s expired", l.id, l.worker), now)
	}
}
