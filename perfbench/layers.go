package main

// endToEnd and perLayer are the metric names each mode prints, in
// order, with their units (they match BENCHMARK.json). A per-layer
// metric a workload never exercises is printed as 0.
var endToEnd = []string{
	"setup_s", "ops_per_s", "p50_ms", "p90_ms", "ok_frac", "slo_frac",
	"loss_db", "efficiency", "peak_rss_mb",
}

var perLayer = [][2]string{
	{"cmat.eig_calls", "count"}, {"cmat.eig_ms", "ms"},
	{"cmat.gemm_calls", "count"}, {"cmat.gemm_ms", "ms"},
	{"covest.solves", "count"}, {"covest.iters_per_solve", "count"},
	{"covest.eig_per_solve", "count"}, {"covest.backtracks_per_solve", "count"},
	{"covest.solve_ms", "ms"}, {"covest.rank_mean", "count"},
	{"covest.kept_frac", "frac"}, {"covest.degraded", "count"},
	{"align.oracle_ms", "ms"}, {"channel.gen_ms", "ms"},
	{"meas.sounding_us", "us"}, {"meas.measurements", "count"},
	{"align.selection_ms", "ms"}, {"antenna.score_us", "us"},
	{"align.fallbacks", "count"}, {"align.stale_keeps", "count"},
	{"experiment.overhead_frac", "frac"}, {"experiment.retries", "count"},
	{"experiment.failed_cells", "count"},
	{"scenario.realigns", "count"}, {"scenario.frame_ms", "ms"},
	{"scenario.alignment_ms", "ms"}, {"scenario.warm_iters_per_solve", "count"},
	{"scenario.eff_cold", "frac"}, {"scenario.outage_frames", "count"},
	{"serve.queue_wait_ms", "ms"}, {"serve.slot_busy_frac", "frac"},
	{"serve.server_ms_p50", "ms"}, {"serve.overhead_ms_p50", "ms"},
	{"serve.pool_hit_frac", "frac"}, {"serve.rejected", "count"},
	{"serve.sheds", "count"}, {"serve.degraded", "count"},
	{"serve.resp_bytes", "B"}, {"gen.lag_p99_ms", "ms"},
	{"share.covest_cmat", "frac"}, {"share.oracle_sounding_channel", "frac"},
	{"share.cpu_per_wall", "frac"},
	{"trace.replay_match", "bool"},
	{"trace.overhead_ops_frac", "frac"}, {"trace.overhead_p50_ms", "ms"},
}

// unitOf returns a per-layer metric's unit.
func unitOf(name string) string {
	for _, l := range perLayer {
		if l[0] == name {
			return l[1]
		}
	}
	return ""
}

// complete orders a run's metrics by the mode's list, fills per-layer
// metrics the workload never exercised with 0, and reports any
// end-to-end metric a workload failed to produce.
func complete(rep *report, trace bool) {
	have := map[string]metric{}
	for _, m := range rep.metrics {
		have[m.name] = m
	}
	var out []metric
	if trace {
		for _, l := range perLayer {
			m, ok := have[l[0]]
			if !ok {
				m = metric{name: l[0], unit: l[1], note: "not exercised by this workload"}
			}
			out = append(out, m)
		}
	} else {
		for _, name := range endToEnd {
			m, ok := have[name]
			if !ok {
				rep.fail("end-to-end metric %s missing", name)
				continue
			}
			out = append(out, m)
		}
	}
	if len(have) != len(out) {
		for name := range have {
			found := false
			for _, m := range out {
				found = found || m.name == name
			}
			if !found {
				rep.fail("metric %s is not in the benchmark's list", name)
			}
		}
	}
	rep.metrics = out
}
