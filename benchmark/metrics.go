package main

// metricDef names one metric. The names are the contract every later
// performance or simplicity change is judged by; BENCHMARK.json lists
// the same set (bench_test.go checks that it does).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline by which an end-to-end metric
	// may worsen before -compare calls it worse. Per-layer metrics have
	// no bound.
	Bound float64
	// Exact marks simulated quantities: for a fixed seed they repeat bit
	// for bit, so -compare treats any difference as a change, whatever
	// the bound (which only absorbs the spread across seeds).
	Exact bool
}

// endToEnd is reported for every workload. "host" metrics are the
// simulator's own wall-clock and memory, "sim" metrics the modelled
// hardware.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "host_rep_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "host_sim_ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "host_allocs_per_rep", Unit: "count", Better: "lower", Bound: 0.03},
	{Name: "host_alloc_mb_per_rep", Unit: "MB", Better: "lower", Bound: 0.03},
	{Name: "host_live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "sim_cycles", Unit: "cycles", Better: "lower", Bound: 0.04, Exact: true},
	{Name: "sim_enclave_slowdown", Unit: "ratio", Better: "lower", Bound: 0.08, Exact: true},
	{Name: "sim_cycles_per_op", Unit: "cycles", Better: "lower", Bound: 0.03, Exact: true},
}

// perLayer is reported by a traced run. Metrics ending in _ns, _us, _ms,
// _per_s, _share or _frac without a sim_ prefix are host measurements;
// sim_ metrics are simulated counters and repeat exactly.
var perLayer = []metricDef{
	{Name: "cache.l1_hit_probe_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.tlb_probe_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.l3_miss_fill_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.stream_fill_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.new_us", Unit: "us", Better: "lower"},

	{Name: "engine.load_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.store_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.loadrun_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.loadlines_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.storerun_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.storelinesnt_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.loadgather_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.storescatter_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.rmwscatter_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.loadchain_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.casload_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.paged_gather_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.newthread_us", Unit: "us", Better: "lower"},
	{Name: "engine.sim_l1_hit_frac", Unit: "ratio", Better: "higher"},
	{Name: "engine.sim_dram_per_kacc", Unit: "count", Better: "lower"},
	{Name: "engine.sim_tlb_walks_per_kacc", Unit: "count", Better: "lower"},
	{Name: "engine.sim_ssb_stall_frac", Unit: "ratio", Better: "lower"},
	{Name: "engine.sim_epc_faults", Unit: "count", Better: "lower"},

	{Name: "exec.phase_overhead_us", Unit: "us", Better: "lower"},
	{Name: "exec.newgroup_us", Unit: "us", Better: "lower"},
	{Name: "exec.phases_per_rep", Unit: "count", Better: "lower"},

	{Name: "kernels.histogram_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "kernels.scatter_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "kernels.gatheraccess_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "kernels.streamread_ns_per_line", Unit: "ns", Better: "lower"},

	{Name: "scan.bv_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "scan.rowid_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "scan.gather_rows_per_s", Unit: "1/s", Better: "higher"},

	{Name: "join.rho_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "join.pht_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "join.rho_partition_share", Unit: "ratio", Better: "lower"},
	{Name: "join.rho_probe_share", Unit: "ratio", Better: "lower"},
	{Name: "join.pht_build_share", Unit: "ratio", Better: "lower"},
	{Name: "join.rho_allocs_per_run", Unit: "count", Better: "lower"},
	{Name: "join.mway_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "join.inl_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "join.grace_rows_per_s", Unit: "1/s", Better: "higher"},

	{Name: "sort.run_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sort.topk_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "agg.hash_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "agg.spill_rows_per_s", Unit: "1/s", Better: "higher"},

	{Name: "plan.modelfor_ms", Unit: "ms", Better: "lower"},
	{Name: "plan.choose_us", Unit: "us", Better: "lower"},
	{Name: "plan.execute_glue_frac", Unit: "ratio", Better: "lower"},
	{Name: "plan.suite_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "plan.stage_share.filter", Unit: "ratio", Better: "lower"},
	{Name: "plan.stage_share.gather", Unit: "ratio", Better: "lower"},
	{Name: "plan.stage_share.join", Unit: "ratio", Better: "lower"},
	{Name: "plan.stage_share.agg", Unit: "ratio", Better: "lower"},
	{Name: "plan.stage_share.order", Unit: "ratio", Better: "lower"},

	{Name: "serve.calibrate_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.open_global_req_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serve.open_shard_req_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serve.open_batch_req_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serve.open_c256_req_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serve.closed_mutex_req_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serve.fault_req_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serve.allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "serve.alloc_bytes_per_req", Unit: "B", Better: "lower"},
	{Name: "serve.sim_goodput_qps", Unit: "1/s", Better: "higher"},
	{Name: "serve.sim_p99_cycles", Unit: "cycles", Better: "lower"},
	{Name: "serve.sim_shed_frac", Unit: "ratio", Better: "lower"},
	{Name: "serve.sim_transitions_per_req", Unit: "count", Better: "lower"},
	{Name: "serve.sim_queue_wait_frac", Unit: "ratio", Better: "lower"},

	{Name: "obs.tracer_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "obs.profiler_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "obs.hist_record_ns", Unit: "ns", Better: "lower"},

	{Name: "core.newenv_us", Unit: "us", Better: "lower"},
	{Name: "mem.alloc_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "rel.gen_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "scan.gencolumn_mb_per_s", Unit: "MB/s", Better: "higher"},

	{Name: "trace_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "harness_self_frac", Unit: "ratio", Better: "lower"},
}
