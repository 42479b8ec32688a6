// Package fleet distributes the orchestrator's job execution across
// worker processes: a coordinator serves the orchestrator's job queue,
// result cache and trace store over HTTP, and stateless workers pull
// leased jobs, execute them through the same Runner machinery as a
// local run, and push results back by content hash.
//
// The orchestrator's queue is the fleet's only queue and the
// coordinator is its external consumer: a lease grant claims a job
// (Orchestrator.TryClaim), and a completion, expiry or release
// finishes or requeues it through the same transitions as the
// in-process pool. So every invariant the single-process daemon
// provides — priority, backpressure, singleflight coalescing,
// content-addressed caching, balanced lifecycle counters, the journal,
// byte-identical lnuca-job-v2 cache entries — holds unchanged when
// execution is remote.
package fleet

import (
	"repro/internal/obs/tracez"
	"repro/internal/orchestrator"
)

// Lease-protocol routes, mounted next to the orchestrator API. Workers
// are clients of these three POST endpoints plus the trace fetch.
const (
	PathLease     = "/fleet/v1/lease"
	PathHeartbeat = "/fleet/v1/heartbeat"
	PathComplete  = "/fleet/v1/complete"
	PathTraces    = "/fleet/v1/traces/"
)

// LeaseRequest asks the coordinator for one job. Worker is a
// self-reported name used for logs and the active-worker gauge; it
// carries no trust.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseResponse grants one job under a lease. The worker must
// heartbeat before HeartbeatSeconds elapses or the coordinator requeues
// the job for someone else; a late Complete is answered 410.
//
// The job travels as its declarative lnuca-run-v1 request — the same
// schema every other entry path uses — plus the coordinator's expected
// content key, which the worker verifies after normalizing.
type LeaseResponse struct {
	LeaseID string `json:"lease_id"`
	// JobID is the orchestrator's job ID (GET /v1/jobs/{id}).
	JobID            string               `json:"job_id"`
	Key              string               `json:"key"`
	Request          orchestrator.Request `json:"request"`
	Attempt          int                  `json:"attempt"`
	HeartbeatSeconds float64              `json:"heartbeat_seconds"`
	// Traceparent propagates the job's trace context to the worker: the
	// spans it emits while executing parent under this attempt's
	// lnuca.orch.run span. Empty when tracing is off.
	Traceparent string `json:"traceparent,omitempty"`
}

// HeartbeatRequest keeps a lease alive and forwards execution progress
// (committed instruction counts, surfaced verbatim in job polling).
type HeartbeatRequest struct {
	LeaseID string `json:"lease_id"`
	Done    uint64 `json:"done"`
	Total   uint64 `json:"total"`
}

// HeartbeatResponse carries the coordinator's cancellation signal: when
// Cancel is set the submitter gave up on the job and the worker should
// abort the run.
type HeartbeatResponse struct {
	Cancel bool `json:"cancel"`
}

// CompleteRequest finishes a lease, with either a result or an error.
// Retryable distinguishes infrastructure failures (a trace fetch that
// timed out — requeue with backoff) from deterministic simulation
// errors, which would fail identically on any worker and are terminal
// immediately.
//
// Released marks an explicit, healthy hand-back: a worker draining on
// SIGTERM could not finish the run and returns the lease instead of
// letting it zombie until the reaper. The coordinator refunds the
// attempt and requeues immediately (no backoff) — neither the worker
// nor the job did anything wrong.
type CompleteRequest struct {
	LeaseID   string                  `json:"lease_id"`
	Result    *orchestrator.JobResult `json:"result,omitempty"`
	Error     string                  `json:"error,omitempty"`
	Retryable bool                    `json:"retryable,omitempty"`
	Released  bool                    `json:"released,omitempty"`
	// Spans are the worker-side spans of this execution (lease wait,
	// trace fetch, run phases), shipped back piggybacked on the
	// completion so the coordinator's flight recorder holds the whole
	// distributed trace. The coordinator validates each span and drops
	// malformed ones; results are never rejected over telemetry.
	Spans []tracez.Span `json:"spans,omitempty"`
}
