package main

import "encoding/json"

// move names the end-to-end metric a per-layer metric should move, and on
// which workload ("all" = every workload, "none" = predicted flat).
type move struct {
	Metric   string `json:"metric"`
	Workload string `json:"workload"`
}

// metricDef declares one metric the harness emits. BENCHMARK.json lists
// the same names, units and directions (bench_test.go pins the two
// together); Layer and Moves live only here and in README.md because the
// BENCHMARK.json schema admits no further keys.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: tolerated worsening, as a share of the parent's median
	Layer  string  // per-layer only
	Moves  []move  // per-layer only
}

// endToEnd are measured with tracing off. A unit of work is 1000
// simulator events, or one figure run on the event-free analytic
// workload; normalising by it keeps the timings comparable across seeds,
// whose event counts differ by up to 25%.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_us_per_unit", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_unit", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_unit", Unit: "count", Better: "lower", Bound: 0.25},
	{Name: "alloc_bytes_per_unit", Unit: "B", Better: "lower", Bound: 0.25},
	{Name: "heap_live_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

const (
	wall   = "wall_us_per_unit"
	cpu    = "cpu_us_per_unit"
	allocs = "allocs_per_unit"
	heap   = "heap_live_mb"
	setup  = "setup_s"
)

func mv(metric string, workloads ...string) []move {
	var out []move
	for _, w := range workloads {
		out = append(out, move{metric, w})
	}
	return out
}

func layerMetrics(layer, unit, better string, moves []move, names ...string) []metricDef {
	var out []metricDef
	for _, n := range names {
		out = append(out, metricDef{Name: n, Unit: unit, Better: better, Layer: layer, Moves: moves})
	}
	return out
}

// perLayer are measured by the traced run: CPU-profile shares, counts
// read from the packages' exported counters, spans around the harness's
// own public calls, and fixed-work probes of single layers.
var perLayer = func() []metricDef {
	var out []metricDef
	add := func(ds []metricDef) { out = append(out, ds...) }

	for _, l := range cpuLayers {
		add(layerMetrics(l, "ratio", "lower", mv(cpu, "all"), l+".cpu_share"))
	}
	add(layerMetrics("harness", "%", "lower", nil, "trace_overhead_pct"))

	simMoves := mv(wall, "unicast_sweep", "deep_fanout")
	add(layerMetrics("sim", "count", "lower", simMoves, "sim.events", "sim.batches"))
	add(layerMetrics("sim", "count", "higher", mv(wall, "large_group"), "sim.mean_batch"))
	add(layerMetrics("sim", "ms", "lower", simMoves, "sim.run_ms", "sim.slice_ms_p50", "sim.slice_ms_max"))
	add(layerMetrics("sim", "ns", "lower", simMoves, "sim.ns_per_event"))
	add(layerMetrics("sim", "ns", "lower", mv(wall, "unicast_sweep"), "sim.probe.hold_ns_d64", "sim.probe.hold_ns_d16k", "sim.probe.cancel_ns"))
	add(layerMetrics("sim", "ns", "lower", mv(wall, "large_group"), "sim.probe.burst64_ns"))
	add(layerMetrics("sim", "us", "lower", mv(wall, "churn_faults"), "sim.probe.reset_us"))

	add(layerMetrics("simnet", "count", "lower", mv(wall, "all"), "simnet.pkts_sent", "simnet.pkts_delivered",
		"simnet.drop_queue", "simnet.drop_rand", "simnet.drop_down", "simnet.unreachable", "simnet.corrupted", "simnet.duplicated"))
	add(layerMetrics("simnet", "ratio", "higher", nil, "simnet.deliver_ratio"))
	add(layerMetrics("simnet", "ns", "lower", mv(wall, "unicast_sweep"), "simnet.probe.hop_ns", "simnet.probe.queue_ns"))
	add(layerMetrics("simnet", "ns", "lower", mv(wall, "deep_fanout"), "simnet.probe.mcast_copy_ns_f16"))
	add(layerMetrics("simnet", "ns", "lower", mv(wall, "large_group"), "simnet.probe.mcast_copy_ns_f1000"))
	add(layerMetrics("simnet", "us", "lower", mv(wall, "churn_faults"), "simnet.probe.route_rebuild_us", "simnet.probe.join_leave_us"))
	add(layerMetrics("simnet", "us", "lower", append(mv(setup, "large_group"), mv(wall, "large_group")...), "simnet.probe.reset_us_n1000"))

	tfmccMoves := mv(wall, "large_group", "stepped_clock")
	add(layerMetrics("tfmcc", "count", "lower", tfmccMoves, "tfmcc.data_recv", "tfmcc.reports_sent", "tfmcc.reports_recv",
		"tfmcc.suppress_cancels", "tfmcc.loss_events"))
	add(layerMetrics("tfmcc", "ratio", "higher", nil, "tfmcc.suppress_ratio"))
	add(layerMetrics("tfmcc", "count", "lower", mv(wall, "churn_faults"), "tfmcc.clr_losses", "tfmcc.reelections"))
	add(layerMetrics("tfmcc", "ns", "lower", mv(wall, "none"), "tfmcc.probe.recv_ns_r1"))
	add(layerMetrics("tfmcc", "ns", "lower", tfmccMoves, "tfmcc.probe.recv_ns_r1000", "tfmcc.probe.report_ns"))
	add(layerMetrics("tfmcc", "ns", "lower", nil, "tfmcc.probe.cohort_round_ns"))
	lossMoves := mv(wall, "analytic_scaling", "large_group")
	add(layerMetrics("lossrate", "ns", "lower", lossMoves, "lossrate.probe.packet_ns", "lossrate.probe.loss_event_ns", "lossrate.probe.rate_ns"))
	add(layerMetrics("rtt", "ns", "lower", mv(wall, "large_group"), "rtt.probe.measure_ns"))

	analytic := mv(wall, "analytic_scaling")
	add(layerMetrics("feedback", "us", "lower", analytic, "feedback.probe.round_us_n10000"))
	add(layerMetrics("fbtree", "us", "lower", nil, "fbtree.probe.round_us_n10000"))
	add(layerMetrics("tcpmodel", "ns", "lower", analytic, "tcpmodel.probe.throughput_ns"))

	add(layerMetrics("tcpsim", "count", "lower", nil, "tcpsim.flows"))
	add(layerMetrics("tcpsim", "ns", "lower", mv(wall, "unicast_sweep", "churn_faults"), "tcpsim.probe.ns_per_seg"))

	add(layerMetrics("scenario", "ms", "lower", mv(setup, "all"), "scenario.build_ms"))
	add(layerMetrics("experiments", "ms", "lower", mv(wall, "churn_faults", "large_group"), "experiments.rewind_ms", "experiments.collect_ms"))
	add(layerMetrics("sweep", "ms", "lower", mv(wall, "unicast_sweep"), "sweep.merge_ms"))
	add(layerMetrics("stats", "ns", "lower", mv(wall, "unicast_sweep"), "stats.probe.meter_add_ns"))
	add(layerMetrics("stats", "us", "lower", mv(wall, "unicast_sweep"), "stats.probe.merge_us"))

	eng := append(mv(wall, "region_sharded"), mv(cpu, "region_sharded")...)
	add(layerMetrics("engine", "count", "lower", eng, "engine.shards", "engine.windows", "engine.handoffs", "engine.control_events"))
	add(layerMetrics("engine", "us", "higher", eng, "engine.window_sim_us"))
	add(layerMetrics("engine", "ratio", "lower", eng, "engine.shard_imbalance", "engine.wall_ratio_vs_serial"))
	add(layerMetrics("engine", "ms", "lower", eng, "engine.run_ms"))

	rt := append(mv(allocs, "all"), mv(heap, "all")...)
	add(layerMetrics("runtime", "count", "lower", rt, "runtime.gc_cycles"))
	add(layerMetrics("runtime", "ms", "lower", append(rt, mv(wall, "stepped_clock")...), "runtime.gc_pause_ms"))
	add(layerMetrics("runtime", "MB", "lower", mv(heap, "all"), "runtime.heap_peak_mb"))
	add(layerMetrics("runtime", "B", "lower", mv(allocs, "all"), "runtime.alloc_bytes_per_event"))
	return out
}()

// benchmarkJSON renders BENCHMARK.json from the tables above.
func benchmarkJSON(runSeconds int) ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	return json.MarshalIndent(doc, "", "  ")
}
