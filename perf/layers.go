package main

// layerMetrics assembles the per-layer metrics of a traced run:
//
//   - span self times, per operation, of the application-layer calls the
//     benchmark makes (for service_mix: of the sampled misses re-run
//     in-process, since the server's own calls cannot be seen from outside);
//   - the simulated counts of one operation, which repeat exactly;
//   - the server's /metrics deltas over the traced pass (zero for the
//     batch workloads, which start no server);
//   - the layer probes.
func layerMetrics(spans []span, ops int, counts simCounts, overheadPct float64,
	svc map[string]float64, probes map[string]metric) map[string]metric {
	self := selfTimes(spans)
	perOp := func(name string) float64 { return self[name].Seconds() / float64(max(ops, 1)) }
	m := map[string]metric{
		"apps.generate_s": {perOp("apps.generate"), "s"},
		"apps.seq_s":      {perOp("apps.seq"), "s"},
		"apps.verify_s":   {perOp("apps.verify"), "s"},
		"chaos.backend_s": {perOp("chaos.backend"), "s"},
		"tmk.backend_s":   {perOp("tmk.backend"), "s"},
		"core.backend_s":  {perOp("core.backend"), "s"},
		"bench.encode_s":  {perOp("bench.encode"), "s"},
		"harness.self_s":  {perOp("harness.request"), "s"},

		"harness.trace_overhead_pct": {overheadPct, "%"},

		"sim.msgs":          {counts.msgs, "count"},
		"sim.data_mb":       {counts.dataMB, "MB"},
		"sim.simulated_s":   {counts.simSeconds, "sim_s"},
		"sim.mem_peak_mb":   {counts.memPeakMB, "MB"},
		"chaos.msgs":        {counts.chaosMsgs, "count"},
		"tmk.msgs":          {counts.tmkMsgs, "count"},
		"core.msgs":         {counts.coreMsgs, "count"},
		"tmk.lock_acquires": {counts.lockAcquires, "count"},

		"simd.runs_executed":  {svc["repro_simd_runs_total"], "count"},
		"simd.coalesced":      {svc["repro_simd_coalesced_total"], "count"},
		"simd.shed":           {svc["repro_simd_shed_total"], "count"},
		"cache.mem_evictions": {svc["repro_cache_evictions_total"], "count"},
		"disk.hits":           {svc["repro_disk_hits_total"], "count"},
		"disk.misses":         {svc["repro_disk_misses_total"], "count"},
		"disk.bytes_mb":       {svc["disk_bytes"] / 1e6, "MB"},
	}
	m["sim.msgs_per_host_s"] = metric{ratio(counts.msgs,
		perOp("chaos.backend")+perOp("tmk.backend")+perOp("core.backend")), "1/s"}
	m["cache.mem_hit_ratio"] = metric{ratio(svc["repro_cache_hits_total"],
		svc["repro_cache_hits_total"]+svc["repro_cache_misses_total"]), "ratio"}
	for name, pm := range probes {
		m[name] = pm
	}
	return m
}

// ratio is a / b, or 0 where the layer did no work (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
