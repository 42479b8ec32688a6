package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"time"
)

// span is the part of a recorded tracez span the analysis reads.
type span struct {
	SpanID string    `json:"span_id"`
	Parent string    `json:"parent_id"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) interval() interval { return interval{s.Start.UnixNano(), s.End.UnixNano()} }

// jobSpans is one job's span tree, or why it could not be fetched.
type jobSpans struct {
	spans []span
	err   error
}

// fetchSpans pulls the span trees of traced fresh jobs not yet fetched.
// It runs every few rounds because the daemon's flight recorder keeps
// only the most recent traces.
func fetchSpans(ctx context.Context, addr string, run *serviceRun) {
	for _, j := range run.traced {
		if _, ok := run.spans[j.id]; ok {
			continue
		}
		run.spans[j.id] = getSpans(ctx, addr, j.id)
	}
}

func getSpans(ctx context.Context, addr, jobID string) jobSpans {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		"http://"+addr+"/v1/traces/"+url.PathEscape(jobID)+"/spans", nil)
	if err != nil {
		return jobSpans{err: err}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return jobSpans{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobSpans{err: fmt.Errorf("GET spans of %s: %s", jobID, resp.Status)}
	}
	var body struct {
		Spans []span `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return jobSpans{err: err}
	}
	return jobSpans{spans: body.Spans}
}

// treeTimes are one job's per-layer times in milliseconds: the self
// time of every span name (summed over spans of that name), the
// duration of every span name, and the tree's shape.
type treeTimes struct {
	self, dur  map[string]float64
	roots      int
	hasExecute bool
}

func analyzeTree(spans []span) treeTimes {
	t := treeTimes{self: map[string]float64{}, dur: map[string]float64{}}
	ids := map[string]bool{}
	children := map[string][]interval{}
	for _, s := range spans {
		ids[s.SpanID] = true
	}
	for _, s := range spans {
		if s.Parent == "" || !ids[s.Parent] {
			t.roots++
		} else {
			children[s.Parent] = append(children[s.Parent], s.interval())
		}
		if s.Name == "lnuca.worker.execute" {
			t.hasExecute = true
		}
	}
	for _, s := range spans {
		t.self[s.Name] += float64(selfTime(s.interval(), children[s.SpanID])) / 1e6
		t.dur[s.Name] += float64(s.End.Sub(s.Start)) / 1e6
	}
	return t
}

// serviceLayers derives the per-layer metrics of a traced service run
// from the fresh jobs' span trees and the /metrics scrapes around the
// timed phase.
func serviceLayers(rep *report, res *result, run *serviceRun, before, after promMetrics) {
	var submit, queue, orchRun, dispatch, leasewait, execute, build, warmup, measure, lag, polls, ratio []float64
	bad := 0
	for _, j := range run.traced {
		js := run.spans[j.id]
		if js.err != nil {
			bad++
			rep.add("  spans of %s: %v", j.id, js.err)
			continue
		}
		t := analyzeTree(js.spans)
		if t.roots != 1 || !t.hasExecute {
			bad++
			continue
		}
		sub := t.self["lnuca.client.submit"] + t.self["lnuca.orch.submit"]
		submit = append(submit, sub)
		queue = append(queue, t.self["lnuca.orch.queue"])
		orchRun = append(orchRun, t.self["lnuca.orch.run"])
		dispatch = append(dispatch, t.self["lnuca.fleet.dispatch"])
		leasewait = append(leasewait, t.dur["lnuca.worker.leasewait"])
		execute = append(execute, t.self["lnuca.worker.execute"])
		build = append(build, t.dur["lnuca.run.build"])
		warmup = append(warmup, t.dur["lnuca.run.warmup"])
		measure = append(measure, t.dur["lnuca.run.measure"])
		lag = append(lag, j.pollLag)
		polls = append(polls, float64(j.polls))
		// The blocking path of a fresh job: submit, queue, waiting for a
		// lease, the worker's whole execution, and the client noticing.
		path := sub + t.self["lnuca.orch.queue"] + t.self["lnuca.fleet.dispatch"] +
			t.dur["lnuca.worker.execute"] + j.pollLag
		ratio = append(ratio, path/j.latency)
	}
	ms := func(name string, xs []float64) { res.Metrics[name] = metric{median(xs), "ms"} }
	ms("client.submit_ms_p50", submit)
	ms("client.poll_lag_ms_p50", lag)
	ms("orch.queue_ms_p50", queue)
	ms("orch.run_ms_p50", orchRun)
	ms("fleet.dispatch_ms_p50", dispatch)
	ms("fleet.leasewait_ms_p50", leasewait)
	ms("worker.execute_ms_p50", execute)
	ms("run.build_ms_p50", build)
	ms("run.warmup_ms_p50", warmup)
	ms("run.measure_ms_p50", measure)
	res.Metrics["client.status_polls_per_job"] = metric{mean(polls), "count"}
	res.Metrics["trace.bad_trees"] = metric{float64(bad), "count"}
	res.Metrics["trace.self_sum_ratio"] = metric{median(ratio), "ratio"}
	rep.add("  traced fresh jobs=%d, span trees without a single root or worker.execute=%d", len(run.traced), bad)

	delta := func(name, match string) float64 { return after.sum(name, match) - before.sum(name, match) }
	leasePolls := delta("lnuca_http_requests_total", `route="/fleet/v1/lease"`)
	granted := delta("lnuca_fleet_leases_granted_total", "")
	count := func(name string, v float64) { res.Metrics[name] = metric{v, "count"} }
	count("fleet.lease_polls", leasePolls)
	count("fleet.leases_granted", granted)
	count("fleet.requeues", delta("lnuca_fleet_requeues_total", ""))
	count("fleet.heartbeats", delta("lnuca_fleet_heartbeats_total", ""))
	count("orch.jobs_coalesced", delta("lnuca_jobs_coalesced_total", ""))
	if leasePolls > 0 {
		res.Metrics["fleet.lease_yield"] = metric{granted / leasePolls, "ratio"}
	}
	hits, misses := delta("lnuca_cache_hits_total", ""), delta("lnuca_cache_misses_total", "")
	if hits+misses > 0 {
		res.Metrics["orch.cache_hit_ratio"] = metric{hits / (hits + misses), "ratio"}
	}
}
