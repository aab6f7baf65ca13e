package experiments

import (
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// TestStarvedCoreLinkDeliversNothing is figure 9 at -corebw 1e-30
// -duration 5: one packet's serialisation time is beyond sim.Time's
// range, so the core link must hold its first packet for ever. It used to
// deliver everything in zero time, because the overflowed duration came
// out negative and After read it as "now".
func TestStarvedCoreLinkDeliversNothing(t *testing.T) {
	ov := scenario.None()
	ov.CoreBW = 1e-30 * 125000
	ov.Duration = 5 * sim.Second
	spec, err := Figure9Spec().Apply(ov)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewRunCtx().runSpec(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	core, err := sc.Link(scenario.CoreLink(0))
	if err != nil {
		t.Fatal(err)
	}
	if core.Stats.Sent == 0 {
		t.Fatal("no packet was offered to the core link; the test proves nothing")
	}
	if core.Stats.Deliver != 0 {
		t.Fatalf("core link at 1e-30 Mbit/s delivered %d of %d packets in 5 s, want 0",
			core.Stats.Deliver, core.Stats.Sent)
	}
}

// TestScenarioRewindVsFresh pins the arena interplay of the scenario
// executor: running a preset on a warm context (rewound scheduler,
// topology rebuilt on recycled storage, pooled protocol state) must
// reproduce a fresh context's output byte for byte. The preset selection
// covers the four hard cases — runtime link mutation against the
// recycled links (degrade), receiver churn against multicast-tree caching (flashcrowd),
// flow stop/start with CBR traffic (tcpburst), and the pooled analytic
// cohort receiver (cohort64).
func TestScenarioRewindVsFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("full-simulation scenarios")
	}
	for _, id := range []string{"degrade", "flashcrowd", "tcpburst", "cohort64"} {
		ctx := NewRunCtx()
		cold, err := RunWith(ctx, id, 1)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := RunWith(ctx, id, 1) // rewound arena
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := RunWith(NewRunCtx(), id, 1) // brand-new context
		if err != nil {
			t.Fatal(err)
		}
		if cold.TSV() != warm.TSV() {
			t.Fatalf("%s: warm (rewound) run diverged from cold run", id)
		}
		if cold.TSV() != fresh.TSV() {
			t.Fatalf("%s: fresh-context run diverged", id)
		}
	}
}

// TestScenarioPresetsRun smoke-runs every preset briefly (override the
// duration down) and checks the generic result carries series data.
func TestScenarioPresetsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full-simulation scenarios")
	}
	for _, p := range scenario.Presets() {
		ov := scenario.None()
		ov.Duration = p.Make().Duration / 6
		res, err := RunOverridden(NewRunCtx(), p.ID, ov, 1)
		if err != nil {
			t.Fatalf("%s: %v", p.ID, err)
		}
		if len(res.Series) == 0 {
			t.Fatalf("%s: no series collected", p.ID)
		}
		total := 0
		for _, s := range res.Series {
			total += len(s.Points)
		}
		if total == 0 {
			t.Fatalf("%s: series are empty", p.ID)
		}
	}
}

// TestDegradeEventsShapeRate checks the mid-run mutation script actually
// bites: the bottleneck halving at t=60s must cut TFMCC's throughput in
// the degraded window relative to the initial one, and the restore at
// t=180s must bring it back up.
func TestDegradeEventsShapeRate(t *testing.T) {
	if testing.Short() {
		t.Skip("full-simulation scenario")
	}
	res, err := RunWith(NewRunCtx(), "degrade", 1)
	if err != nil {
		t.Fatal(err)
	}
	tfmcc := res.Series[0]
	if !strings.Contains(tfmcc.Name, "TFMCC") {
		t.Fatalf("first series should be the TFMCC meter, got %q", tfmcc.Name)
	}
	before := tfmcc.MeanBetween(20e9, 60e9)  // 8 Mbit/s regime
	during := tfmcc.MeanBetween(80e9, 120e9) // 2 Mbit/s regime
	after := tfmcc.MeanBetween(200e9, 240e9) // restored
	if during > 0.7*before {
		t.Fatalf("bottleneck halving did not bite: before=%.0f during=%.0f", before, during)
	}
	if after < 1.5*during {
		t.Fatalf("restore did not recover: during=%.0f after=%.0f", during, after)
	}
}

// TestCohortSweepWorkerInvariance: a multi-seed sweep over a cohort
// preset must merge to byte-identical TSV and equal engine counters
// regardless of worker count — the cohort's feedback draws come from the
// per-run protocol stream, so no worker-shared state may leak into them.
func TestCohortSweepWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full-simulation scenarios")
	}
	job, err := FigureJob("cohort64")
	if err != nil {
		t.Fatal(err)
	}
	base := Sweep(job, sweep.Config{Seeds: 4, Workers: 1, Base: 1})
	multi := Sweep(job, sweep.Config{Seeds: 4, Workers: 2, Base: 1})
	if base.TSV() != multi.TSV() {
		t.Fatal("cohort sweep output differs between workers=1 and workers=2")
	}
	// The merged engine counters too, bar the dispatch-batch diagnostic.
	base.Engine.Batches, multi.Engine.Batches = 0, 0
	if base.Engine != multi.Engine {
		t.Fatalf("cohort sweep counters differ between workers=1 and workers=2:\n%+v\nvs\n%+v", base.Engine, multi.Engine)
	}
}

// TestCohortOverrideReplacesReceivers: -cohort N folds any spec's
// declared receivers into one analytic cohort, inheriting the first
// receiver's attach point and meter, and the run stays deterministic.
func TestCohortOverrideReplacesReceivers(t *testing.T) {
	ov := scenario.None()
	ov.Duration = 20e9
	ov.Cohort = 500
	a, err := RunOverridden(NewRunCtx(), "degrade", ov, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOverridden(NewRunCtx(), "degrade", ov, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.TSV() != b.TSV() {
		t.Fatal("cohort-overridden scenario not seed-deterministic")
	}
	found := false
	for _, n := range a.Notes {
		if strings.Contains(n, "500 receivers declared") {
			found = true
		}
	}
	if !found {
		t.Fatalf("notes do not count cohort members: %v", a.Notes)
	}
}

// TestOverriddenScenarioIsDeterministic: the override path (clone + Apply)
// must be as reproducible as the base spec.
func TestOverriddenScenarioIsDeterministic(t *testing.T) {
	ov := scenario.None()
	ov.Duration = 20e9
	ov.Receivers = 8
	a, err := RunOverridden(NewRunCtx(), "deeptree", ov, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOverridden(NewRunCtx(), "deeptree", ov, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.TSV() != b.TSV() {
		t.Fatal("overridden scenario not seed-deterministic")
	}
}

// TestOverriddenBuildFailureIsAnError: an override is user input, so a
// spec it makes unbuildable comes back as an error (tfmccsim prints one
// line and exits 1) — it used to panic out of RunOverridden.
func TestOverriddenBuildFailureIsAnError(t *testing.T) {
	ov := scenario.None()
	ov.Fanout = 100
	res, err := RunOverridden(NewRunCtx(), "deeptree", ov, 1)
	if err == nil || !strings.Contains(err.Error(), "too large") {
		t.Fatalf("RunOverridden(deeptree, fanout 100) = %v, %v; want a topology-size error", res, err)
	}
}
