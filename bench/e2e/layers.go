package main

// perLayerMetrics lists the traced run's metrics, in BENCHMARK.json
// order. Times are medians over traced jobs of the per-job span total;
// counts are means per traced job; fractions are ratios of run totals.
// A layer a workload does not reach reads 0.
var perLayerMetrics = []struct{ name, unit string }{
	{"costmodel.probe_ms", "ms"},
	{"costmodel.probe_calls", "count"},
	{"costmodel.probe_hit_frac", "ratio"},
	{"costmodel.alloc_mb", "MB"},
	{"mapping.search_ms", "ms"},
	{"mapping.search_self_ms", "ms"},
	{"mapping.cost_evals", "count"},
	{"mapping.cost_cache_hit_frac", "ratio"},
	{"mapping.moves", "count"},
	{"mapping.alloc_mb", "MB"},
	{"fusion.greedy_ms", "ms"},
	{"fusion.greedy_calls", "count"},
	{"fusion.milp_ms", "ms"},
	{"fusion.milp_solves", "count"},
	{"fusion.optimal_frac", "ratio"},
	{"fusion.memo_hit_frac", "ratio"},
	{"fusion.ops_per_kernel", "ratio"},
	{"fusion.alloc_mb", "MB"},
	{"sched.corun_ms", "ms"},
	{"sched.corun_calls", "count"},
	{"sched.overflow_kernel_frac", "ratio"},
	{"sched.pipeline_ms", "ms"},
	{"sched.pipeline_alloc_mb", "MB"},
	{"gpusim.events", "count"},
	{"gpusim.ops", "count"},
	{"gpusim.ns_per_event", "ns"},
	{"baselines.ideal_ms", "ms"},
	{"trace.chrome_ms", "ms"},
	{"trace.chrome_mb", "MB"},
	{"rap.build_ms", "ms"},
	{"rap.replan_ms", "ms"},
	{"rap.replay_ms", "ms"},
	{"rap.lowering_overlap_x", "x"},
	{"rap.replay_match_frac", "ratio"},
	{"cluster.plan_fill_ms", "ms"},
	{"cluster.simulate_ms", "ms"},
	{"cluster.plan_fill_share", "ratio"},
	{"cluster.split_jobs_frac", "ratio"},
	{"cluster.distinct_shapes", "count"},
	{"cluster.avg_jct_ms", "ms"},
	{"cluster.pack_gain_x", "x"},
	{"runtime.alloc_mb_per_job", "MB"},
	{"runtime.gc_cycles_per_job", "count"},
	{"runtime.gc_pause_ms_per_job", "ms"},
	{"trace_overhead_pct", "%"},
}

// perLayer reduces a traced run to its per-layer metrics. rt holds the
// untraced jobs' runtime deltas; tracedMs and untracedMs are the two
// halves' median job times.
func perLayer(jobs []jobLayers, b bench, rt *runtimeTotals, tracedMs, untracedMs float64) map[string]metric {
	// med is the median over traced jobs of a per-job value.
	med := func(per func(jl jobLayers) float64) float64 {
		xs := make([]float64, len(jobs))
		for i, jl := range jobs {
			xs[i] = per(jl)
		}
		return median(xs)
	}
	spanMs := func(name string) float64 {
		return med(func(jl jobLayers) float64 { return float64(jl.totalNs[name]) }) / 1e6
	}
	allocMB := func(name string) float64 {
		return med(func(jl jobLayers) float64 { return float64(jl.alloc[name]) }) / (1 << 20)
	}
	sum := func(per func(jl jobLayers) float64) float64 {
		t := 0.0
		for _, jl := range jobs {
			t += per(jl)
		}
		return t
	}
	count := func(name string) float64 {
		return sum(func(jl jobLayers) float64 { return jl.counts[name] })
	}
	calls := func(name string) float64 {
		return sum(func(jl jobLayers) float64 { return float64(jl.calls[name]) })
	}
	spanNs := func(name string) float64 {
		return sum(func(jl jobLayers) float64 { return float64(jl.totalNs[name]) })
	}
	perJob := func(total float64) float64 { return ratio(total, float64(len(jobs))) }

	v := map[string]float64{
		"costmodel.probe_ms":          spanMs("costmodel.probe"),
		"costmodel.probe_calls":       perJob(count("costmodel.probe_lookups")),
		"costmodel.probe_hit_frac":    ratio(count("costmodel.probe_hits"), count("costmodel.probe_lookups")),
		"costmodel.alloc_mb":          allocMB("costmodel.probe"),
		"mapping.search_ms":           spanMs("mapping.search"),
		"mapping.search_self_ms":      med(func(jl jobLayers) float64 { return float64(jl.selfNs["mapping.search"]) }) / 1e6,
		"mapping.cost_evals":          perJob(count("mapping.cost_evals")),
		"mapping.cost_cache_hit_frac": ratio(count("mapping.cost_hits"), count("mapping.cost_hits")+count("mapping.cost_evals")),
		"mapping.moves":               perJob(count("mapping.moves")),
		"mapping.alloc_mb":            allocMB("mapping.search"),
		"fusion.greedy_ms":            spanMs("fusion.greedy"),
		"fusion.greedy_calls":         perJob(calls("fusion.greedy")),
		"fusion.milp_ms":              spanMs("fusion.milp"),
		"fusion.milp_solves":          perJob(count("fusion.milp_solves")),
		"fusion.optimal_frac":         ratio(count("fusion.optimal"), count("fusion.plans")),
		"fusion.memo_hit_frac":        ratio(count("fusion.memo_hits"), count("fusion.memo_lookups")),
		"fusion.ops_per_kernel":       ratio(count("fusion.ops"), count("fusion.kernels")),
		"fusion.alloc_mb":             allocMB("fusion.milp"),
		"sched.corun_ms":              spanMs("sched.corun"),
		"sched.corun_calls":           perJob(calls("sched.corun")),
		"sched.overflow_kernel_frac":  ratio(count("sched.overflow_kernels"), count("sched.kernels")),
		"sched.pipeline_ms":           spanMs("sched.pipeline"),
		"sched.pipeline_alloc_mb":     allocMB("sched.pipeline"),
		"gpusim.events":               perJob(count("gpusim.events")),
		"gpusim.ops":                  perJob(count("gpusim.ops")),
		"gpusim.ns_per_event":         ratio(spanNs("sched.pipeline"), count("gpusim.events")),
		"baselines.ideal_ms":          spanMs("baselines.ideal"),
		"trace.chrome_ms":             spanMs("trace.chrome"),
		"trace.chrome_mb":             perJob(count("trace.chrome_bytes")) / (1 << 20),
		"rap.build_ms":                spanMs("rap.build"),
		"rap.replan_ms":               spanMs("rap.replan"),
		"rap.replay_ms":               spanMs("rap.replay"),
		"rap.lowering_overlap_x": median(perJobRatio(jobs, func(jl jobLayers) (float64, float64) {
			return float64(jl.totalNs["rap.replay"]), float64(jl.totalNs["rap.build"] + jl.totalNs["rap.replan"])
		})),
		"rap.replay_match_frac":       ratio(count("rap.replay_matches"), count("rap.replays")),
		"cluster.plan_fill_ms":        spanMs("cluster.plan_fill"),
		"cluster.simulate_ms":         spanMs("cluster.simulate"),
		"cluster.plan_fill_share":     ratio(spanNs("cluster.plan_fill"), spanNs("cluster.plan_fill")+spanNs("cluster.simulate")),
		"cluster.split_jobs_frac":     ratio(count("cluster.split_jobs"), count("cluster.jobs")),
		"cluster.distinct_shapes":     perJob(count("cluster.shapes")),
		"runtime.alloc_mb_per_job":    ratio(float64(rt.allocBytes), float64(rt.jobs)) / (1 << 20),
		"runtime.gc_cycles_per_job":   ratio(float64(rt.gcCycles), float64(rt.jobs)),
		"runtime.gc_pause_ms_per_job": ratio(float64(rt.pauseNs), float64(rt.jobs)) / 1e6,
		"trace_overhead_pct":          100 * (ratio(tracedMs, untracedMs) - 1),
	}
	if f, ok := b.(*fleet); ok {
		v["cluster.avg_jct_ms"], v["cluster.pack_gain_x"] = f.policyStats()
	}
	out := make(map[string]metric, len(perLayerMetrics))
	for _, m := range perLayerMetrics {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out
}

// perJobRatio returns num/den for every traced job with den > 0.
func perJobRatio(jobs []jobLayers, f func(jl jobLayers) (num, den float64)) []float64 {
	var out []float64
	for _, jl := range jobs {
		if num, den := f(jl); den > 0 {
			out = append(out, num/den)
		}
	}
	return out
}
