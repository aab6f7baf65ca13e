package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

// span is one timed public call the harness made. Spans of one run share
// Run (the run-list index, -1 outside any run); Parent is the span that
// caused this one (0 = none). Times are nanoseconds since the trace began.
type span struct {
	ID      int              `json:"id"`
	Parent  int              `json:"parent"`
	Run     int              `json:"run"`
	Name    string           `json:"name"`
	StartNS int64            `json:"start_ns"`
	EndNS   int64            `json:"end_ns"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory; they are written out when the benchmark
// ends.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int // open span ids, innermost last
	run   int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), run: -1} }

func (t *tracer) begin(name string) int {
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, StartNS: time.Since(t.t0).Nanoseconds()})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int, counts map[string]int64) {
	s := &t.spans[id-1]
	s.EndNS = time.Since(t.t0).Nanoseconds()
	s.Counts = counts
	t.stack = t.stack[:len(t.stack)-1]
}

func (s span) ms() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

// sliceSim is the simulated time one sim.slice span advances the clock by.
const sliceSim = 10 * sim.Second

// tracedRun holds what the traced executor keeps between runs: one
// harness-owned environment per scenario, mirroring the RunCtx arena.
type tracedRun struct {
	h      *harness
	tr     *tracer
	envs   map[string]*ownEnv
	counts map[string]int64 // additive per-layer counts of the current pass
	imbal  []float64        // per sharded run: max / mean shard events
	shards int
}

func (r *tracedRun) add(name string, v int64) { r.counts[name] += v }

// exec is the traced counterpart of harness.exec. Spec-backed serial runs
// execute decomposed on the harness-owned environment; sharded runs call
// engine.Run on it; hand-wired and analytic runs are one span around
// RunWith on the warm context.
func (r *tracedRun) exec(i int) ([]*stats.Series, experiments.EngineStats) {
	h, it := r.h, r.h.items[i]
	r.tr.run = i
	defer func() { r.tr.run = -1 }()
	h.attempted++
	top := r.tr.begin("run")
	series, st, err := r.execSpans(it)
	r.tr.end(top, map[string]int64{"events": int64(st.Events)})
	if err != nil {
		h.fail(it, "%v", err)
		return nil, st
	}
	h.checkStats(it, st)
	c := r.tr.begin("experiments.collect")
	tsv := (&experiments.Result{Series: series}).TSV()
	r.tr.end(c, nil)
	h.checkOutput(i, "traced", series, tsv, st.Events)
	return series, st
}

func (r *tracedRun) execSpans(it item) (series []*stats.Series, st experiments.EngineStats, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	tr := r.tr
	if !it.Spec {
		r.h.ctx.ResetStats()
		s := tr.begin("experiments.run")
		res, err := experiments.RunWith(r.h.ctx, it.ID, it.Seed)
		tr.end(s, nil)
		st = r.h.ctx.Stats()
		if err != nil {
			return nil, st, err
		}
		r.countStats(st)
		return res.Series, st, nil
	}

	spec, err := specFor(it)
	if err != nil {
		return nil, st, err
	}
	env, warm := r.envs[it.ID]
	var sc *scenario.Scenario
	if w := r.h.cfg.Workload.EngineWorkers; w >= 2 {
		if warm {
			s := tr.begin("experiments.rewind")
			env.rewind(it.Seed)
			tr.end(s, nil)
		} else {
			env = newOwnEnv(it.Seed)
			r.envs[it.ID] = env
		}
		s := tr.begin("engine.run")
		var es engine.Stats
		sc, es, err = engine.Run(env.scenarioEnv(), spec, it.Seed, w)
		tr.end(s, nil)
		if err != nil {
			return nil, st, err
		}
		st.EngineShards, st.ControlEvents = es.Shards, es.ControlEvents
		st.Events = es.ControlEvents
		var max uint64
		for k, v := range es.ShardEvents {
			st.ShardEvents[k] = v
			st.Events += v
			if v > max {
				max = v
			}
		}
		st.HandoffsSent, st.HandoffsRecv = es.HandoffsSent, es.HandoffsRecv
		st.Batches, st.Windows, st.WindowNS = es.Batches, es.Windows, es.WindowNS
		if shardSum := st.Events - es.ControlEvents; shardSum > 0 {
			r.imbal = append(r.imbal, float64(max)*float64(es.Shards)/float64(shardSum))
		}
		if es.Shards > r.shards {
			r.shards = es.Shards
		}
	} else {
		if warm {
			// Rewind plus rebuild on the rewound arena: what every run
			// after a scenario's first pays instead of a cold build.
			s := tr.begin("experiments.rewind")
			env.rewind(it.Seed)
			sc, err = scenario.Build(env.scenarioEnv(), spec)
			tr.end(s, nil)
		} else {
			env = newOwnEnv(it.Seed)
			r.envs[it.ID] = env
			s := tr.begin("scenario.build")
			sc, err = scenario.Build(env.scenarioEnv(), spec)
			tr.end(s, nil)
		}
		if err != nil {
			return nil, st, err
		}
		sc.Start()
		run := tr.begin("sim.run")
		for t := sim.Time(0); t < spec.Duration; {
			t = sim.MinTime(t+sliceSim, spec.Duration)
			before := env.sch.Processed()
			s := tr.begin("sim.slice")
			sc.RunUntil(t)
			tr.end(s, map[string]int64{"events": int64(env.sch.Processed() - before)})
		}
		tr.end(run, nil)
		st.Events, st.Batches = env.sch.Processed(), env.sch.Batches()
	}

	for _, l := range env.net.Links() {
		st.PacketsSent += l.Stats.Sent
		st.PacketsDelivered += l.Stats.Deliver
		r.add("simnet.drop_queue", l.Stats.DropQ)
		r.add("simnet.drop_rand", l.Stats.DropRand)
		r.add("simnet.drop_down", l.Stats.DropDown)
	}
	f := env.net.Faults()
	st.Unreachable, st.Corrupted, st.Duplicated = f.Unreachable, f.Corrupted, f.Duplicated
	snd := sc.Sess.Sender
	st.CLRLosses, st.Reelections = snd.CLRLosses, snd.Reelections
	r.add("tfmcc.reports_recv", snd.ReportsRecv)
	for _, m := range sc.Sess.Receivers {
		rs := m.Stats()
		r.add("tfmcc.data_recv", rs.PacketsRecv)
		r.add("tfmcc.reports_sent", rs.ReportsSent)
		r.add("tfmcc.suppress_cancels", rs.SuppressCancels)
		r.add("tfmcc.loss_events", rs.LossEvents)
	}
	for _, fl := range sc.Flows {
		if fl.TCP != nil {
			r.add("tcpsim.flows", 1)
		}
	}
	r.countStats(st)
	return sc.Series(), st, nil
}

// countStats folds the counters every kind of run exposes.
func (r *tracedRun) countStats(st experiments.EngineStats) {
	r.add("sim.events", int64(st.Events))
	r.add("sim.batches", int64(st.Batches))
	r.add("simnet.pkts_sent", st.PacketsSent)
	r.add("simnet.pkts_delivered", st.PacketsDelivered)
	r.add("simnet.unreachable", st.Unreachable)
	r.add("simnet.corrupted", st.Corrupted)
	r.add("simnet.duplicated", st.Duplicated)
	r.add("tfmcc.clr_losses", st.CLRLosses)
	r.add("tfmcc.reelections", st.Reelections)
	r.add("engine.windows", int64(st.Windows))
	r.add("engine.window_sim_ns", int64(st.WindowNS))
	r.add("engine.handoffs", int64(st.HandoffsSent))
	r.add("engine.control_events", int64(st.ControlEvents))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traced runs the traced half of a -trace invocation: it primes the
// harness-owned environments (recording the cold builds), repeats traced
// passes under a CPU profile for the given budget, runs the probes, fills
// rep.Metrics with every per-layer metric and writes the span file.
func (h *harness) traced(rep *report, seconds float64, untracedWall time.Duration) error {
	r := &tracedRun{h: h, tr: newTracer(), envs: map[string]*ownEnv{}, counts: map[string]int64{}}
	seen := map[string]bool{}
	for i, it := range h.items {
		if it.Spec && !seen[it.ID] {
			seen[it.ID] = true
			r.exec(i)
		}
	}
	runtime.GC()

	var prof bytes.Buffer
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	var passes []passStat
	firstSpan := len(r.tr.spans)
	var counts map[string]int64
	for start := time.Now(); len(passes) == 0 || time.Since(start).Seconds() < seconds; {
		r.counts, r.imbal = map[string]int64{}, nil
		passes = append(passes, h.pass(r.exec, "traced"))
		if counts == nil {
			counts = r.counts
		}
	}
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&m1)

	m := rep.Metrics
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return err
	}
	for _, l := range cpuLayers {
		m[l+".cpu_share"] = shares[l]
	}
	for k, v := range counts {
		if k != "engine.window_sim_ns" {
			m[k] = float64(v)
		}
	}
	n := float64(len(passes))
	events := float64(counts["sim.events"])
	m["sim.mean_batch"] = ratio(events, float64(counts["sim.batches"]))
	m["simnet.deliver_ratio"] = ratio(float64(counts["simnet.pkts_delivered"]), float64(counts["simnet.pkts_sent"]))
	m["tfmcc.suppress_ratio"] = ratio(float64(counts["tfmcc.suppress_cancels"]),
		float64(counts["tfmcc.suppress_cancels"]+counts["tfmcc.reports_sent"]))
	m["engine.shards"] = float64(r.shards)
	m["engine.window_sim_us"] = ratio(float64(counts["engine.window_sim_ns"])/1e3, float64(counts["engine.windows"]))
	m["engine.shard_imbalance"] = mean(r.imbal)

	// Span-derived timings: sums are per traced pass, means per span.
	byName := map[string][]float64{}
	for _, s := range r.tr.spans {
		if s.ID > firstSpan || s.Name == "scenario.build" {
			byName[s.Name] = append(byName[s.Name], s.ms())
		}
	}
	m["sim.run_ms"] = sum(byName["sim.run"]) / n
	slices := append([]float64(nil), byName["sim.slice"]...)
	sort.Float64s(slices)
	if len(slices) > 0 {
		m["sim.slice_ms_p50"], m["sim.slice_ms_max"] = slices[len(slices)/2], slices[len(slices)-1]
	}
	m["sim.ns_per_event"] = ratio(sum(byName["sim.run"])*1e6/n, events)
	m["scenario.build_ms"] = mean(byName["scenario.build"])
	m["experiments.rewind_ms"] = mean(byName["experiments.rewind"])
	m["experiments.collect_ms"] = mean(byName["experiments.collect"])
	m["engine.run_ms"] = sum(byName["engine.run"]) / n
	m["sweep.merge_ms"] = medianOf(passes, func(p passStat) float64 { return p.mergeWall().Seconds() * 1e3 })

	tracedWall, _, _ := best(passes)
	m["trace_overhead_pct"] = 100 * (tracedWall.Seconds()/untracedWall.Seconds() - 1)
	if h.cfg.Workload.EngineWorkers >= 2 {
		m["engine.wall_ratio_vs_serial"] = ratio(untracedWall.Seconds(), h.serialTwin())
	}

	m["runtime.gc_cycles"] = float64(m1.NumGC-m0.NumGC) / n
	m["runtime.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6 / n
	m["runtime.heap_peak_mb"] = float64(m1.HeapSys) / (1 << 20)
	m["runtime.alloc_bytes_per_event"] = ratio(float64(m1.TotalAlloc-m0.TotalAlloc)/n, events)

	runProbes(m, h.cfg.Scale)
	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = 0 // the layer does nothing on this workload
		}
	}
	rep.Counts = counts
	return r.write(rep)
}

// serialTwin runs the sharded workload's run list once on the serial
// engine (after a priming run per scenario) and returns its wall seconds
// at nominal speed.
func (h *harness) serialTwin() float64 {
	c := experiments.NewRunCtx()
	seen := map[string]bool{}
	for _, it := range h.items {
		if !seen[it.ID] {
			seen[it.ID] = true
			h.attempted++
			if _, err := h.call(c, it); err != nil {
				h.fail(it, "serial twin: %v", err)
			}
		}
	}
	before, t0 := h.speed.sample(), time.Now()
	for _, it := range h.items {
		h.attempted++
		if _, err := h.call(c, it); err != nil {
			h.fail(it, "serial twin: %v", err)
		}
	}
	wall := time.Since(t0)
	return atNominal(wall, (before+h.speed.sample())/2).Seconds()
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// traceFile is the layout of bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Runs     []traceRun         `json:"runs"`
	Layers   map[string]float64 `json:"layers"`
	Spans    []span             `json:"spans"`
}

type traceRun struct {
	Run    int    `json:"run"`
	ID     string `json:"id"`
	Seed   int64  `json:"seed"`
	Digest string `json:"tsv_sha256"`
}

func (r *tracedRun) write(rep *report) error {
	tf := traceFile{Workload: rep.Workload, Seed: r.h.cfg.Seed, Layers: rep.Metrics, Spans: r.tr.spans}
	for i, it := range r.h.items {
		tf.Runs = append(tf.Runs, traceRun{Run: i, ID: it.ID, Seed: it.Seed, Digest: fmt.Sprintf("%x", r.h.ref[i])})
	}
	if err := os.MkdirAll(r.h.cfg.OutDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(r.h.cfg.OutDir, "trace-"+rep.Workload+".json"), data, 0o644)
}
