package main

import (
	"sort"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json at the repository
// root mirrors these lists; TestMetricListsMatchBenchmarkJSON keeps
// them in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics an untraced run reports for every workload.
var endToEnd = []metricDef{
	{"cpu_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
}

// experimentIDs are the registered experiments whose task times the
// traced repro-quick run reports as task_s.<id>.
var experimentIDs = []string{
	"ablation", "churn-hotlist", "churn-repair", "churn-soap", "fig3", "fig4",
	"fig5", "fig6", "fig7", "fig8", "hsdir", "hsdir-outage", "pow", "probing",
	"relay-outage", "table1",
}

// spanMetrics derives per-layer metrics from recorded spans: the
// q-quantile of span's durations, expressed in unit.
var spanMetrics = []struct {
	name, span string
	q          float64
	unit       time.Duration
}{
	{"churn.join_ms.p50", "churn.join", 0.5, time.Millisecond},
	{"churn.join_ms.p95", "churn.join", 0.95, time.Millisecond},
	{"churn.leave_us.p50", "churn.leave", 0.5, time.Microsecond},
	{"core.join_ms.p50", "core.join", 0.5, time.Millisecond},
	{"core.join_ms.p99", "core.join", 0.99, time.Millisecond},
	{"ddsr.remove_us.p50", "ddsr.remove", 0.5, time.Microsecond},
	{"ddsr.remove_us.p99", "ddsr.remove", 0.99, time.Microsecond},
	{"graph.components_ms", "graph.components", 0.5, time.Millisecond},
	{"graph.diameter_ms", "graph.diameter", 0.5, time.Millisecond},
	{"graph.snapshot_ms", "graph.snapshot", 0.5, time.Millisecond},
	{"sim.settle_ms.p50", "sim.settle", 0.5, time.Millisecond},
	{"sim.settle_ms.p99", "sim.settle", 0.99, time.Millisecond},
}

// perLayer are the metrics a traced run reports for every workload; a
// metric the workload does not exercise reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"alloc_mib", "MiB", "lower"},
		{"botcrypto.warm_s", "s", "lower"},
		{"churn.joined", "count", "higher"},
		{"churn.left", "count", "higher"},
		{"churn.takedown_ms", "ms", "lower"},
		{"churn.takendown", "count", "higher"},
		{"churn_sim_h_per_s", "h/s", "higher"},
		{"core.pool_hit_frac", "frac", "higher"},
		{"core.pool_waste_frac", "frac", "lower"},
		{"core.rally_failures", "count", "lower"},
		{"ddsr.pruned_edges", "count", "lower"},
		{"ddsr.repair_edges", "count", "lower"},
		{"gc_cycles", "count", "lower"},
		{"joins_per_s", "1/s", "higher"},
		{"mallocs", "count", "lower"},
		{"peak_rss_mib", "MiB", "lower"},
		{"sim.events", "count", "lower"},
		{"task_s.fig5_n1e5", "s", "lower"},
		{"tor.cells_switched", "count", "lower"},
		{"tor.circuits_built", "count", "lower"},
		{"tor.dial_failures", "count", "lower"},
		{"tor.dial_retries", "count", "lower"},
		{"trace_overhead_frac", "frac", "lower"},
	}
	for _, l := range layers {
		defs = append(defs, metricDef{"cpu_s." + l, "s", "lower"})
	}
	for _, id := range experimentIDs {
		defs = append(defs, metricDef{"task_s." + id, "s", "lower"})
	}
	for _, sm := range spanMetrics {
		unit := "ms"
		if sm.unit == time.Microsecond {
			unit = "us"
		}
		defs = append(defs, metricDef{sm.name, unit, "lower"})
	}
	sort.Slice(defs, func(i, j int) bool { return defs[i].name < defs[j].name })
	return defs
}()

// pick returns the named metrics of m with their units, reporting 0 for
// any the workload does not exercise so every workload prints the same
// set.
func pick(m map[string]float64, defs []metricDef) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{m[d.name], d.unit}
	}
	return out
}
