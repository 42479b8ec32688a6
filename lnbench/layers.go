package main

type named struct{ name, unit string }

// layerMetricNames lists every per-layer metric a -trace 1 run reports
// (BENCHMARK.json's per_layer list). A workload reports 0 for layers it
// does not exercise: the simulator layers on service-fleet, the service
// layers on sim-*, and the D-NUCA and mesh on sim-fig4.
func layerMetricNames() []named {
	var out []named
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, named{n, unit})
		}
	}
	// Simulator.
	add("s", "sim.kernel_self_s", "sim.poll_s")
	add("count", "sim.polls", "sim.stepped_cycles", "sim.ff_cycles")
	add("ratio", "sim.skip_ratio")
	add("count", "sim.avg_active")
	for _, c := range layerNames {
		add("s", c+".eval_s", c+".commit_s")
		add("count", c+".evals")
	}
	add("ratio", "noc.cpu_share")
	add("count", "noc.flit_hops", "noc.msgs")
	for _, p := range []string{"cpu", "cache", "lnuca", "dnuca", "sim", "mem", "workload", "runtime"} {
		add("ratio", p+".cpu_share")
	}
	add("s", "workload.next_s")
	add("count", "workload.ops")
	add("s", "hier.build_s", "hier.prewarm_s", "runtime.gc_cpu_s")
	add("B/kinstr", "runtime.alloc_bytes_per_kinstr")
	add("ratio", "trace.overhead")
	// Service.
	add("ms", "client.submit_ms_p50")
	add("count", "client.status_polls_per_job")
	add("ms", "client.poll_lag_ms_p50", "orch.queue_ms_p50", "orch.run_ms_p50")
	add("ratio", "orch.cache_hit_ratio")
	add("count", "orch.jobs_coalesced")
	add("ms", "fleet.dispatch_ms_p50", "fleet.leasewait_ms_p50")
	add("count", "fleet.lease_polls", "fleet.leases_granted")
	add("ratio", "fleet.lease_yield")
	add("count", "fleet.requeues", "fleet.heartbeats")
	add("ms", "worker.execute_ms_p50", "run.build_ms_p50", "run.warmup_ms_p50", "run.measure_ms_p50")
	add("count", "trace.bad_trees")
	add("ratio", "trace.self_sum_ratio")
	// Every workload.
	add("ms", "job_ms_p50", "job_ms_tail", "hit_ms_p50", "hit_ms_tail")
	add("ratio", "fail_frac")
	return out
}
