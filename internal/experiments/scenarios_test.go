package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestStarvedCoreLinkDeliversNothing is figure 9 with its core links at
// 1e-30 Mbit/s (topology.core.bw), run for 5 s: one packet's
// serialisation time is beyond sim.Time's range, so the core link must
// hold its first packet for ever. It used to deliver everything in zero
// time, because the overflowed duration came out negative and After read
// it as "now".
func TestStarvedCoreLinkDeliversNothing(t *testing.T) {
	spec := Figure9Spec()
	spec.Topology.Core.BW = 1e-30 * 125000
	spec.Duration = 5 * sim.Second
	core, err := runSpec(t, spec, 1).Link(scenario.CoreLink(0))
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

// TestMaxDelaysRunCleanly runs delays near the end of sim.Time on both
// engines with the checker armed. The runs end cleanly with nothing
// delivered over those links:
//   - the exported flashcrowd with every site hop's down.delay_ns at the
//     largest sim.Time, which routes nothing (its route weight used to
//     wrap negative, and fan-out trains then wrapped an arrival into the
//     past and panicked);
//   - figure 9 with a core delay of 3·2⁶⁰ ns, reordered by an impair
//     event with the default bound, four times the delay, which used to
//     wrap negative and hand the region engine a crossing arrival in the
//     past.
func TestMaxDelaysRunCleanly(t *testing.T) {
	maxSites := func() *scenario.Spec {
		spec := scenario.FlashCrowd()
		for _, st := range spec.Steps {
			if st.Site != nil {
				for h := range st.Site.Hops {
					st.Site.Hops[h].Down.Delay = sim.MaxTime
				}
			}
		}
		return spec
	}
	reorderedCore := func() *scenario.Spec {
		spec := Figure9Spec()
		spec.Duration = 5 * sim.Second
		spec.Topology.Core.Delay = 3 << 60
		spec.Events = append(spec.Events, scenario.ImpairEvent(sim.Second, scenario.CoreLink(0), scenario.Impair{Reorder: 1}))
		return spec
	}
	for name, make := range map[string]func() *scenario.Spec{"max-sites": maxSites, "reordered-core": reorderedCore} {
		for _, ew := range []int{1, 2} {
			c := checkedCtx(ew)
			if _, err := SpecJob(name, make()).run(c, 0); err != nil || len(c.Violations()) > 0 {
				t.Errorf("%s, engine workers %d: err %v, violations %v", name, ew, err, c.Violations())
			}
			if st := c.Stats(); st.PacketsSent == 0 && st.Unreachable == 0 {
				t.Errorf("%s, engine workers %d: nothing was sent; the test proves nothing", name, ew)
			}
		}
	}
}

// TestScenarioRewindVsFresh pins the arena interplay of the scenario
// executor: running a preset on a warm context (rewound scheduler,
// topology rebuilt on recycled storage, pooled protocol state) must
// reproduce a fresh context's output byte for byte. The preset selection
// covers the three hard cases — runtime link mutation against the
// recycled links (degrade), receiver churn against multicast-tree caching
// (flashcrowd), and flow stop/start with CBR traffic (tcpburst).
func TestScenarioRewindVsFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("full-simulation scenarios")
	}
	for _, id := range []string{"degrade", "flashcrowd", "tcpburst"} {
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
		spec := p()
		ov := scenario.None()
		ov.Duration = spec.Duration / 6
		res, err := RunOverridden(NewRunCtx(), spec.Name, ov, 1)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if len(res.Series) == 0 {
			t.Fatalf("%s: no series collected", spec.Name)
		}
		total := 0
		for _, s := range res.Series {
			total += len(s.Points)
		}
		if total == 0 {
			t.Fatalf("%s: series are empty", spec.Name)
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

// TestOverriddenScenarioIsDeterministic: a spec edited away from its
// registry values (a resized population, a shorter run) must be as
// reproducible as the registry spec.
func TestOverriddenScenarioIsDeterministic(t *testing.T) {
	spec := scenario.DeepTree()
	spec.Duration = 20 * sim.Second
	spec.Pop.Count = 8
	a, err := SpecJob("deeptree", spec).run(NewRunCtx(), 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SpecJob("deeptree", spec).run(NewRunCtx(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.TSV() != b.TSV() {
		t.Fatal("edited scenario not seed-deterministic")
	}
}

// TestOverriddenBuildFailureIsAnError: a spec document is user input, so
// an edit that makes it unbuildable comes back as an error (tfmccsim
// prints one line and exits 1) — it used to panic out of the run.
func TestOverriddenBuildFailureIsAnError(t *testing.T) {
	spec := scenario.DeepTree()
	spec.Topology.Fanout = 100
	res, err := SpecJob("deeptree", spec).run(NewRunCtx(), 1)
	if err == nil || !strings.Contains(err.Error(), "too large") {
		t.Fatalf("deeptree at topology.fanout 100 = %v, %v; want a topology-size error", res, err)
	}
}

// TestBuildRejectsUnusableNumbers: every link and CBR number a spec
// document declares is outside input, so one that cannot drive a link or
// a source is a Build error naming the field. Negative delays used to panic mid-run ("event
// scheduled in the past"), a negative bandwidth ran as an infinite link,
// and a loss outside [0, 1] or a negative queue was accepted. A CBR
// source with no packet size or no rate used to wedge tcpburst in a send
// loop at one instant, and so did a TCP flow whose to resolves to its
// own from node (figure 9 with tcp5's to dropped from the document: the
// zero reference, core node 0) — 2 simulated seconds took 3.2 s of wall.
// A delay declared for a jittered first hop would be dead, since the
// jitter draws it each way: figure 12 once exported one, and editing it
// changed nothing. Nothing here runs a clock, so at worst a case fails,
// it cannot hang.
func TestBuildRejectsUnusableNumbers(t *testing.T) {
	cbr := func(edit func(*scenario.CBRSpec)) func(*scenario.Spec) {
		return func(s *scenario.Spec) {
			for _, st := range s.Steps {
				if st.CBR != nil {
					edit(st.CBR)
				}
			}
		}
	}
	for _, tc := range []struct {
		field string
		spec  func() *scenario.Spec
		edit  func(*scenario.Spec)
	}{
		{"steps[0].site.hops[0].down.delay_ns", scenario.FlashCrowd, func(s *scenario.Spec) {
			for _, st := range s.Steps {
				if st.Site != nil {
					for h := range st.Site.Hops {
						st.Site.Hops[h].Down.Delay = -2 * sim.Millisecond
					}
				}
			}
		}},
		{"jitter.min_ms", Figure12Spec, func(s *scenario.Spec) { s.Pop.Jitter.MinMs = -60 }},
		// Largest draws past the end of sim.Time: they used to wrap to a
		// negative delay and panic at the first fan-out.
		{"jitter.min_ms", Figure12Spec, func(s *scenario.Spec) { s.Pop.Jitter.MinMs = 9223372036854 }},
		{"jitter.min_ms", Figure12Spec, func(s *scenario.Spec) { s.Pop.Jitter.SpanMs = math.MaxInt }},
		{"pop.hop.up.loss", Figure12Spec, func(s *scenario.Spec) { s.Pop.Hop = scenario.FastHop(); s.Pop.Hop.Up.Loss = 1.5 }},
		{"pop.hop.down.delay_ns", Figure12Spec, func(s *scenario.Spec) { s.Pop.Hop.Down.Delay = sim.Millisecond }},
		{"steps[0].site.hops[0].up.delay_ns", scenario.FlashCrowd, func(s *scenario.Spec) {
			s.Steps[0].Site.Jitter = &scenario.Jitter{MinMs: 9, SpanMs: 41}
			s.Steps[0].Site.Hops[0].Down.Delay = 0
		}},
		{"topology.core.bw", Figure9Spec, func(s *scenario.Spec) { s.Topology.Core.BW = -1 }},
		{"topology.core.bw", Figure9Spec, func(s *scenario.Spec) { s.Topology.Core.BW = math.Inf(1) }},
		{"topology.core.loss", Figure9Spec, func(s *scenario.Spec) { s.Topology.Core.Loss = math.NaN() }},
		{"topology.core.queue", Figure9Spec, func(s *scenario.Spec) { s.Topology.Core.Queue = -1 }},
		{"topology.stub_link.delay_ns", scenario.Wireless, func(s *scenario.Spec) { s.Topology.StubLink.Delay = -1 }},
		{"events[1].set_link.delay_ns", scenario.Degrade, func(s *scenario.Spec) { *s.Events[1].SetLink.Delay = -1 }},
		{"events[0].set_link.bw", scenario.Degrade, func(s *scenario.Spec) { *s.Events[0].SetLink.BW = -125000 }},
		{"events[0].set_link.loss", scenario.Degrade, func(s *scenario.Spec) {
			s.Events[0].SetLink.Loss = new(float64)
			*s.Events[0].SetLink.Loss = 2
		}},
		{`flow "cbr" cbr.size`, scenario.TCPBurst, cbr(func(c *scenario.CBRSpec) { c.Size = 0 })},
		{`flow "cbr" cbr.rate`, scenario.TCPBurst, cbr(func(c *scenario.CBRSpec) { c.Rate = -1000 })},
		{`flow "cbr" cbr.rate`, scenario.TCPBurst, cbr(func(c *scenario.CBRSpec) { c.Rate = 0 })},
		{`flow "cbr" cbr.rate`, scenario.TCPBurst, cbr(func(c *scenario.CBRSpec) { c.Rate = math.Inf(1) })},
		{`flow "tcp5" to`, sameNodeFlow, func(*scenario.Spec) {}},
		{`flow "cbr" to`, scenario.TCPBurst, cbr(func(c *scenario.CBRSpec) { c.To = c.From })},
	} {
		spec := tc.spec()
		tc.edit(spec)
		_, err := scenario.Build(scenario.NewEnv(1), spec)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Build = %v, want an error naming the field", tc.field, err)
		}
	}
}
