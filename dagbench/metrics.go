package main

// spec names one reported metric and its unit. The two tables below are
// the metric lists of BENCHMARK.json, in the same order.
type spec struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run (--trace 0). Every workload
// reports every one of them.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_mcycles_per_s", "Mcycles/s"},
	{"peak_rss_mb", "MB"},
	{"ok_ratio", "ratio"},
}

// perLayer are the metrics of a traced run (--trace 1). Every workload
// reports every one of them; a layer the workload does not exercise reads
// 0. Times are host seconds, *_cycles are simulated cycles.
var perLayer = []spec{
	// Tick-loop self time from obs.CycleProfile, summed over systems.
	{"cpu.self_s", "s"},
	{"shaper.self_s", "s"},
	{"egress.self_s", "s"},
	{"sched.self_s", "s"},
	{"dram.self_s", "s"},
	{"memctrl.self_s", "s"},
	{"route.self_s", "s"},
	{"harness.self_s", "s"},
	// Component counters of every sim.System, warmup included.
	{"cpu.instructions", "count"},
	{"cpu.stall_cycles", "cycles"},
	{"cpu.mem_reads", "count"},
	{"shaper.forwarded", "count"},
	{"shaper.fakes", "count"},
	{"shaper.rejected", "count"},
	{"shaper.delay_cycles", "cycles"},
	{"memctrl.issued", "count"},
	{"memctrl.queueing_cycles", "cycles"},
	{"memctrl.max_queue", "count"},
	{"dram.row_hits", "count"},
	{"dram.row_misses", "count"},
	{"dram.row_conflicts", "count"},
	{"sim.cycles", "cycles"},
	{"sim.mem_events_per_kcycle", "1/kcycle"},
	{"eval.fsbta_norm_ipc", "ratio"},
	{"eval.dagguise_norm_ipc", "ratio"},
	{"victim.record_s", "s"},
	// Fleet: shard replay through fleet.RunShard hooks, then fleet.Run.
	{"cluster.run_s", "s"},
	{"cluster.issued", "count"},
	{"cluster.completed", "count"},
	{"cluster.stalls", "count"},
	{"cluster.shaper_fakes", "count"},
	{"ckpt.save_s", "s"},
	{"ckpt.bytes", "bytes"},
	{"fleet.run_s", "s"},
	{"fleet.merge_s", "s"},
	{"fleet.checkpoints", "count"},
	{"fleet.retries", "count"},
	// Security: spans the benchmark times around its own calls.
	{"attack.sim_s", "s"},
	{"attack.cycles", "cycles"},
	{"audit.calibrate_s", "s"},
	{"audit.stream_s", "s"},
	{"verify.base_s", "s"},
	{"verify.induction_s", "s"},
	{"verify.leak_depth_s", "s"},
	{"verify.proven_k", "count"},
	{"verify.leak_depth", "count"},
	{"auditd.ingest_s", "s"},
	{"auditd.kobs_per_s", "kobs/s"},
	{"auditd.accepted", "count"},
	{"auditd.shed", "count"},
	{"auditd.batches", "count"},
	{"auditd.batch_p50_ms", "ms"},
	{"auditd.batch_p90_ms", "ms"},
	// Go runtime, over one untraced iteration.
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	// The tracing itself.
	{"trace.overhead_ratio", "ratio"},
	{"trace.coverage", "ratio"},
}

// perLayerUnit indexes perLayer by name.
func perLayerUnit() map[string]string {
	m := make(map[string]string, len(perLayer))
	for _, s := range perLayer {
		m[s.name] = s.unit
	}
	return m
}
