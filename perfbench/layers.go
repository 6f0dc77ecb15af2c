package main

import (
	"strings"

	"prete/internal/obs"
)

// layerNames lists every per-layer metric a traced run reports, on every
// workload; a layer a workload does not run reads 0.
var layerNames = []string{
	"ingest.self_ms", "ingest.samples", "ingest.events", "ingest.dropped", "ingest.merged", "ingest.watermark_crossings",
	"ml.self_ms", "ml.predictions",
	"scenario.self_ms", "scenario.count",
	"tunnels.self_ms", "tunnels.new",
	"solve.self_ms", "solve.cache_hits", "solve.cache_revalidations", "solve.cache_misses", "solve.cache_hit_ratio",
	"benders.iterations", "benders.cuts", "benders.master_ms", "benders.subproblem_ms", "benders.polish_ms",
	"lp.pivots", "lp.bb_nodes", "lp.pivots_per_solve_p50",
	"admission.self_ms", "admission.ticks",
	"rpc.self_ms", "rpc.calls", "rpc.latency_ms", "rpc.retries", "rpc.errors", "rpc.backoff_ms",
	"journal.self_ms", "journal.fsync_ms", "journal.bytes",
	"repl.self_ms", "repl.shipped", "repl.acked", "repl.resent",
	"sim.self_ms.TeaVar", "sim.self_ms.PreTE", "sim.deg_scenarios", "sim.scenarios", "sim.scenario_eval_ms",
	"sim.plan_cache_hit_ratio", "sim.enum_cache_hit_ratio",
	"par.tasks", "par.queue_wait_ms",
	"op.self_ms", "split.solve_share", "split.io_share",
	"phi_mean", "shed_frac", "avail_mean",
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms") || strings.Contains(name, "_ms."):
		return "ms"
	case strings.HasSuffix(name, "setup_s"):
		return "s"
	case name == "journal.bytes":
		return "B"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_share"), strings.HasSuffix(name, "_frac"),
		strings.HasSuffix(name, "_mean"):
		return "ratio"
	}
	return "count"
}

// spanLayers maps the benchmark's span names onto per-layer self-time
// metrics.
var spanLayers = map[string]string{
	"ingest":     "ingest.self_ms",
	"ml":         "ml.self_ms",
	"scenario":   "scenario.self_ms",
	"tunnels":    "tunnels.self_ms",
	"solve":      "solve.self_ms",
	"admission":  "admission.self_ms",
	"rpc":        "rpc.self_ms",
	"journal":    "journal.self_ms",
	"repl":       "repl.self_ms",
	"sim.TeaVar": "sim.self_ms.TeaVar",
	"sim.PreTE":  "sim.self_ms.PreTE",
	"op":         "op.self_ms",
}

// layerMetrics turns the registry's growth over the timed loop, the span
// self times and the benchmark's own counts into per-op layer metrics.
func layerMetrics(before, after obs.Snapshot, self map[string]float64, own map[string]float64, ops int) map[string]float64 {
	n := float64(ops)
	c := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	ms := func(name string) float64 { return after.Timers[name].TotalMS - before.Timers[name].TotalMS }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	out := make(map[string]float64, len(layerNames))
	for _, name := range layerNames {
		out[name] = 0
	}
	for spanName, metricName := range spanLayers {
		out[metricName] = self[spanName] / n
	}
	total := 0.0
	for _, v := range self {
		total += v
	}
	out["split.solve_share"] = ratio(self["solve"], total)
	out["split.io_share"] = ratio(self["rpc"]+self["journal"]+self["repl"]+self["ingest"], total)

	out["ingest.samples"] = c("ingest.samples.ingested") / n
	out["ingest.events"] = c("ingest.events.emitted") / n
	out["ingest.dropped"] = c("ingest.samples.dropped") / n
	out["ingest.merged"] = c("ingest.samples.merged") / n
	out["ingest.watermark_crossings"] = c("ingest.watermark.crossings") / n

	hits, reval, miss := c("core.warmcache.hits"), c("core.warmcache.revalidated"), c("core.warmcache.misses")
	out["solve.cache_hits"] = hits / n
	out["solve.cache_revalidations"] = reval / n
	out["solve.cache_misses"] = miss / n
	out["solve.cache_hit_ratio"] = ratio(hits, hits+reval+miss)

	out["benders.iterations"] = c("core.benders.iterations") / n
	out["benders.cuts"] = c("core.benders.cuts_added") / n
	out["benders.master_ms"] = ms("core.benders.master_solve") / n
	out["benders.subproblem_ms"] = ms("core.benders.subproblem_solve") / n
	out["benders.polish_ms"] = ms("core.benders.polish_solve") / n

	out["lp.pivots"] = c("core.lp.pivots") / n
	out["lp.bb_nodes"] = c("core.lp.bb_nodes") / n
	out["lp.pivots_per_solve_p50"] = histMedian(before.Histograms["core.lp.pivots_per_solve"], after.Histograms["core.lp.pivots_per_solve"])

	out["admission.ticks"] = c("wan.admission.ticks") / n

	calls := c("wan.rpc.count")
	out["rpc.calls"] = calls / n
	out["rpc.latency_ms"] = ratio(ms("wan.rpc.latency"), float64(after.Timers["wan.rpc.latency"].Count-before.Timers["wan.rpc.latency"].Count))
	out["rpc.retries"] = c("wan.rpc.retries") / n
	out["rpc.errors"] = c("wan.rpc.errors") / n
	out["rpc.backoff_ms"] = ms("wan.rpc.backoff") / n

	out["journal.fsync_ms"] = ms("persist.fsync") / n
	out["journal.bytes"] = c("persist.append_bytes") / n

	out["repl.shipped"] = c("persist.repl.shipped") / n
	out["repl.acked"] = c("persist.repl.acked") / n
	out["repl.resent"] = c("persist.repl.resent") / n

	out["sim.deg_scenarios"] = c("sim.deg_scenarios.evaluated") / n
	out["sim.scenarios"] = c("sim.scenarios.evaluated") / n
	out["sim.scenario_eval_ms"] = ms("sim.scenario.eval_time") / n
	ph, pm := c("sim.plan_cache.hits"), c("sim.plan_cache.misses")
	out["sim.plan_cache_hit_ratio"] = ratio(ph, ph+pm)
	eh, em := c("sim.enum_cache.hits"), c("sim.enum_cache.misses")
	out["sim.enum_cache_hit_ratio"] = ratio(eh, eh+em)

	out["par.tasks"] = c("par.tasks") / n
	out["par.queue_wait_ms"] = ms("par.queue_wait") / n

	for k, v := range own {
		out[k] = v
	}
	return out
}

// histMedian returns the upper bucket edge holding the median of the
// observations a histogram gained between two snapshots (0 when none).
func histMedian(before, after obs.HistogramSnapshot) float64 {
	total := after.Count - before.Count
	if total == 0 {
		return 0
	}
	var seen int64
	for i, cnt := range after.Counts {
		if i < len(before.Counts) {
			cnt -= before.Counts[i]
		}
		seen += cnt
		if 2*seen >= total {
			if i < len(after.Bounds) {
				return after.Bounds[i]
			}
			return after.Bounds[len(after.Bounds)-1]
		}
	}
	return 0
}
