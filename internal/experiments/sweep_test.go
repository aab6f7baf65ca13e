package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/invariant"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// miniSpec is a fast real-engine scenario used to pin down arena
// determinism: a TFMCC session to a handful of receivers over a lossy
// bottleneck, short enough to run many times in a unit test.
func miniSpec() *scenario.Spec {
	spec := &scenario.Spec{
		Name:     "mini",
		Title:    "mini session",
		Topology: scenario.Topology{Kind: scenario.Dumbbell, Core: scenario.LinkP{BW: 1 * mbit, Delay: 10 * sim.Millisecond, Queue: 20}},
		Duration: 8 * sim.Second,
	}
	for i := 0; i < 6; i++ {
		d := sim.Time(2+i) * sim.Millisecond
		meter := ""
		if i == 0 {
			meter = "rate"
		}
		spec.Steps = append(spec.Steps,
			scenario.Step{Site: &scenario.SiteSpec{Hops: []scenario.Hop{{
				Down: scenario.LinkP{Delay: d, Loss: 0.01}, Up: scenario.LinkP{Delay: d}}}}},
			scenario.Step{Recv: &scenario.RecvSpec{At: scenario.Site(i), Meter: meter}})
	}
	return spec
}

// miniSession runs miniSpec for seed on c. It returns the metered
// per-second throughput series plus a counters series, so a byte-level
// comparison covers event timing, loss draws and feedback.
func miniSession(c *RunCtx, seed int64) *Result {
	sc, _, err := c.run(miniSpec(), seed, nil)
	if err != nil {
		panic(err)
	}
	res := &Result{Figure: "mini", Title: "mini session", Series: sc.Series()}
	cnt := &stats.Series{Name: "counters"}
	cnt.Add(0, float64(sc.Sess.Sender.Rate()))
	cnt.Add(0, float64(sc.Env.Sch.Processed()))
	for _, r := range sc.Recvs {
		st := r.Stats()
		cnt.Add(0, float64(st.PacketsRecv))
		cnt.Add(0, float64(st.Losses))
		cnt.Add(0, float64(st.ReportsSent))
	}
	res.Series = append(res.Series, cnt)
	return res
}

// TestArenaRunDeterministic: rerunning a scenario on a rewound arena must
// be byte-identical to running it on a fresh context — across repeated
// rewinds and across different seeds through the same arena.
func TestArenaRunDeterministic(t *testing.T) {
	warm := NewRunCtx()
	for _, seed := range []int64{1, 5, 1, 9, 5} {
		got := miniSession(warm, seed).TSV()
		want := miniSession(NewRunCtx(), seed).TSV()
		if got != want {
			t.Fatalf("seed %d: rewound arena run differs from fresh context", seed)
		}
	}
}

// TestArenaCrossScenarioReuse: reusing one context for different
// scenarios must stay correct (each build recycles the other's storage).
func TestArenaCrossScenarioReuse(t *testing.T) {
	ctx := NewRunCtx()
	a1 := miniSession(ctx, 1).TSV()
	s1 := sessionThroughput(ctx, 8, 3)
	a2 := miniSession(ctx, 1).TSV()
	s2 := sessionThroughput(ctx, 8, 3)
	if a1 != a2 {
		t.Fatal("miniSession changed after interleaved scenario")
	}
	if s1 != s2 {
		t.Fatalf("session fixture not reproducible on shared context: %v vs %v", s1, s2)
	}
}

// miniJob sweeps miniSession.
var miniJob = Job{ID: "mini", Title: "mini session",
	run: func(c *RunCtx, seed int64) (*Result, error) { return miniSession(c, seed), nil }}

// shortScenario is ScenarioJob(id) cut to the given duration.
func shortScenario(t *testing.T, id string, d sim.Time) Job {
	t.Helper()
	ov := scenario.None()
	ov.Duration = d
	j, err := ScenarioJob(id, ov)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// checkedCtx returns a fresh context with the invariant checker armed,
// on the region engine when ew >= 2: the context Sweep makes at -check,
// or the one a test of the region engine runs on.
func checkedCtx(ew int) *RunCtx {
	c := NewRunCtx()
	c.EnableInvariants()
	c.SetEngineWorkers(ew)
	return c
}

// TestSweepWorkerInvariance: the merged sweep output and every per-seed
// run must be byte-identical for -workers 1 and any larger worker count,
// even though each worker's arena sees a different seed subsequence.
func TestSweepWorkerInvariance(t *testing.T) {
	for _, job := range []Job{miniJob, shortScenario(t, "wireless", 8*sim.Second)} {
		cfg := sweep.Config{Seeds: 6, Workers: 1, Base: 2}
		base := Sweep(job, cfg)
		for _, w := range []int{2, 3, 6} {
			cfg.Workers = w
			got := Sweep(job, cfg)
			if got.TSV() != base.TSV() || got.Engine != base.Engine {
				t.Fatalf("%s: workers=%d sweep output differs from workers=1", job.ID, w)
			}
			for i, r := range got.Runs {
				if r.Seed != base.Runs[i].Seed || r.Result.TSV() != base.Runs[i].Result.TSV() || r.Stats != base.Runs[i].Stats {
					t.Fatalf("%s: workers=%d seed %d run differs from workers=1", job.ID, w, r.Seed)
				}
			}
		}
	}
}

// TestSweepRunsMatchFreshRuns: each SeedRun of a sweep is exactly the
// run a fresh context makes of that seed on its own — TSV, engine
// counters and violations — whichever worker's warm arena ran it, and
// the bands are stats.MergeRuns over those fresh runs.
func TestSweepRunsMatchFreshRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full-simulation runs")
	}
	ov := scenario.None()
	ov.Duration = 20 * sim.Second
	spec := scenario.CLRFail()
	spec.Duration = 40 * sim.Second
	fresh := map[string]func(c *RunCtx, seed int64) (*Result, error){
		"15": func(c *RunCtx, seed int64) (*Result, error) { return RunWith(c, "15", seed) },
		"degrade": func(c *RunCtx, seed int64) (*Result, error) {
			return RunOverridden(c, "degrade", ov, seed)
		},
		"short-clrfail": func(c *RunCtx, seed int64) (*Result, error) {
			return SpecJob("short-clrfail", spec).run(c, seed)
		},
	}
	figure, err := FigureJob("15")
	if err != nil {
		t.Fatal(err)
	}
	for _, job := range []Job{figure, shortScenario(t, "degrade", ov.Duration), SpecJob("short-clrfail", spec)} {
		for _, workers := range []int{1, 2} {
			cfg := sweep.Config{Seeds: 3, Workers: workers, Base: 4, Check: true}.Normalized()
			res := Sweep(job, cfg)
			var series [][]*stats.Series
			var total EngineStats
			for i, r := range res.Runs {
				c := checkedCtx(0)
				want, err := fresh[job.ID](c, cfg.Seed(i))
				if err != nil || r.Err != nil {
					t.Fatalf("%s seed %d: fresh run error %v, sweep run error %v", job.ID, r.Seed, err, r.Err)
				}
				if r.Seed != cfg.Seed(i) || r.Result.TSV() != want.TSV() {
					t.Fatalf("%s workers=%d: run %d (seed %d) differs from a fresh run of seed %d",
						job.ID, workers, i, r.Seed, cfg.Seed(i))
				}
				if r.Stats != c.Stats() || !reflect.DeepEqual(r.Violations, c.Violations()) || r.Dropped != c.dropped {
					t.Fatalf("%s workers=%d seed %d: counters or violations differ from a fresh run:\n%+v\nvs\n%+v",
						job.ID, workers, r.Seed, r.Stats, c.Stats())
				}
				series = append(series, want.Series)
				total.Add(c.Stats())
			}
			if !reflect.DeepEqual(res.Bands, stats.MergeRuns(series, 0.95)) || res.Engine != total {
				t.Fatalf("%s workers=%d: bands or engine totals are not those of the fresh runs", job.ID, workers)
			}
		}
	}
}

// TestDroppedViolationsCounted: a breach the checker stops storing past
// its cap still counts — a seed whose predicate breaches with a new
// message on every tick from its registration on reports one violation
// per tick.
func TestDroppedViolationsCounted(t *testing.T) {
	var ticks uint64
	job := Job{ID: "breach", run: func(c *RunCtx, seed int64) (*Result, error) {
		spec := miniSpec()
		spec.Duration = 11 * sim.Second
		var from uint64
		sc, _, err := c.run(spec, seed, func(sc *scenario.Scenario, now sim.Time) bool {
			if now == 100*sim.Millisecond {
				from = sc.Env.Check.Ticks()
				n := 0
				sc.Env.Check.Register("always", func() string { n++; return fmt.Sprintf("breach %d", n) })
			}
			return false
		})
		if err != nil {
			return nil, err
		}
		ticks = sc.Env.Check.Ticks() - from
		return &Result{Figure: "breach"}, nil
	}}
	r := Sweep(job, sweep.Config{Check: true}).Runs[0]
	if ticks < 100 || r.Dropped == 0 {
		t.Fatalf("%d ticks, %d dropped: the run did not overflow the checker's storage", ticks, r.Dropped)
	}
	if got := uint64(len(r.Violations)) + uint64(r.Dropped); got != ticks {
		t.Fatalf("%d stored + %d dropped violations, want one per tick (%d)", len(r.Violations), r.Dropped, ticks)
	}
}

// TestShardSkewReportsLaggingShard: on a region-engine build with the
// checker armed, stepping the control scheduler alone past a tick leaves
// every shard clock behind the control clock, and shard-skew must name
// the lagging shard; the same ticks on a serial build report nothing.
func TestShardSkewReportsLaggingShard(t *testing.T) {
	for _, ew := range []int{0, 2} {
		ctx := checkedCtx(ew)
		sc, err := ctx.build(scenario.Wireless(), 1)
		if err != nil {
			t.Fatal(err)
		}
		sc.Env.Sch.RunUntil(3 * invariant.DefaultInterval / 2)
		var skew []invariant.Violation
		for _, v := range sc.Env.Check.Violations() {
			if v.Name == "shard-skew" {
				skew = append(skew, v)
			}
		}
		switch {
		case ew == 0 && len(skew) != 0:
			t.Errorf("serial build: shard-skew reported %v", skew)
		case ew == 2 && (len(skew) != 1 || !strings.HasPrefix(skew[0].Msg, "shard 0 clock") ||
			!strings.Contains(skew[0].Msg, "lags control clock")):
			t.Errorf("region build: shard-skew reported %v, want shard 0 lagging the control clock", skew)
		}
	}
}

// TestSweepRegisteredFigure exercises the public Sweep API end to end on
// an analytic figure (cheap) and checks the metadata and band columns.
func TestSweepRegisteredFigure(t *testing.T) {
	job, err := FigureJob("17")
	if err != nil {
		t.Fatal(err)
	}
	res := Sweep(job, sweep.Config{Seeds: 3, Workers: 2, Base: 1})
	if res.Figure != "17" || len(res.Runs) != 3 || res.Workers != 2 || res.CI != 0.95 {
		t.Fatalf("sweep metadata wrong: %+v", res)
	}
	if len(res.Bands) == 0 || len(res.Bands[0].Points) == 0 {
		t.Fatal("sweep produced no bands")
	}
	// Figure 17 is deterministic in the seed, so the band must collapse:
	// min == mean == max and a zero-width CI at every point.
	for _, p := range res.Bands[0].Points {
		if p.N != 3 || p.Min != p.Mean || p.Max != p.Mean || p.Lo != p.Mean || p.Hi != p.Mean {
			t.Fatalf("seed-independent figure produced a non-degenerate band: %+v", p)
		}
	}
	tsv := res.TSV()
	if len(tsv) == 0 || tsv[:len("series\tx\tmean")] != "series\tx\tmean" {
		t.Fatalf("sweep TSV header wrong: %.60q", tsv)
	}
}

// TestSweepUnknownFigure mirrors RunWith's error contract.
func TestSweepUnknownFigure(t *testing.T) {
	if _, err := FigureJob("999"); err == nil {
		t.Fatal("unknown figure should error")
	}
}

// TestEngineStatsAccumulate: context stats must accumulate across runs
// and reset on demand.
func TestEngineStatsAccumulate(t *testing.T) {
	ctx := NewRunCtx()
	miniSession(ctx, 1)
	one := ctx.Stats()
	if one.Events == 0 || one.PacketsDelivered == 0 {
		t.Fatalf("no engine counters harvested: %+v", one)
	}
	miniSession(ctx, 1)
	two := ctx.Stats()
	if two.Events != 2*one.Events || two.PacketsDelivered != 2*one.PacketsDelivered {
		t.Fatalf("identical reruns should double the counters: %+v vs %+v", one, two)
	}
	ctx.ResetStats()
	if ctx.Stats() != (EngineStats{}) {
		t.Fatal("ResetStats left counters behind")
	}
}

// TestAnalyticRegistry: the engine-less figures, and only they, must be
// flagged so bench/ does not prime engine arenas for them.
func TestAnalyticRegistry(t *testing.T) {
	analytic := map[string]bool{"1": true, "2": true, "3": true, "4": true, "5": true, "6": true, "7": true, "17": true}
	for _, e := range Entries() {
		if e.Analytic() != analytic[e.ID] {
			t.Errorf("entry %s: Analytic() = %v, want %v", e.ID, e.Analytic(), analytic[e.ID])
		}
	}
}

// TestSeedRangeFragmentsMergeRuns is sweep.RunRaw's contract at band
// level: running a figure's seed range as disjoint fragments (each on its
// own arena) and merging the raw per-seed series with stats.MergeRuns
// reproduces the single full-range sweep bit for bit.
func TestSeedRangeFragmentsMergeRuns(t *testing.T) {
	runner := func(ctx *RunCtx) sweep.RunFunc {
		return func(_ int, seed int64) []*stats.Series {
			return miniSession(ctx, seed).Series
		}
	}
	full, _ := sweep.RunRaw(sweep.Config{Seeds: 5, Base: 1}, runner(NewRunCtx()))
	partA, _ := sweep.RunRaw(sweep.Config{Seeds: 3, Base: 1}, runner(NewRunCtx()))
	partB, _ := sweep.RunRaw(sweep.Config{Seeds: 2, Base: 4}, runner(NewRunCtx()))

	want := stats.MergeRuns(full, 0.95)
	got := stats.MergeRuns(append(partA, partB...), 0.95)
	if len(got) != len(want) {
		t.Fatalf("band count %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name || len(got[i].Points) != len(want[i].Points) {
			t.Fatalf("band %d shape differs", i)
		}
		for j := range want[i].Points {
			if got[i].Points[j] != want[i].Points[j] {
				t.Fatalf("band %q point %d: fragment merge %+v, full sweep %+v",
					want[i].Name, j, got[i].Points[j], want[i].Points[j])
			}
		}
	}
}
