package experiments

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/tfmcc"
)

// The scenario presets ride in the same registry as the paper figures —
// stable IDs and tags — so the golden ledger pins them and tfmccsim -all
// runs them like any figure, and tfmccsim runs them via -scenario with
// parameter overrides. Each is its spec alone: the generic report
// renders it.
func init() {
	for _, p := range scenario.Presets() {
		registerSpec(p().Name, p, nil, TagScenario)
	}
}

// build builds spec on the context's rewound environment for the configured
// execution engine — the region engine when the context has
// engineWorkers >= 2 (bench/ and tests only), serial otherwise — the one
// dispatch every scenario goes through.
func (c *RunCtx) build(spec *scenario.Spec, seed int64) (*scenario.Scenario, error) {
	env := c.newEnv(seed)
	if c.engineWorkers >= 2 {
		return engine.Build(env, spec, seed)
	}
	return scenario.Build(env, spec)
}

// run is the one place a simulation starts and ends: it builds spec on
// the context for seed, starts it and runs it to its duration, or, when
// stop is set, to the first instant of the 100 ms grid at which stop
// holds. It returns the built scenario and the instant its run ended.
// When it returns, or panics, it has folded the build's counters into
// the context's.
func (c *RunCtx) run(spec *scenario.Spec, seed int64, stop func(*scenario.Scenario, sim.Time) bool) (sc *scenario.Scenario, end sim.Time, err error) {
	defer func() {
		var s *tfmcc.Sender
		if sc != nil {
			s = sc.Sess.Sender
		}
		c.harvest(s)
	}()
	if sc, err = c.build(spec, seed); err != nil {
		return nil, 0, err
	}
	sc.Start()
	for t := 100 * sim.Millisecond; stop != nil && t < spec.Duration; t += 100 * sim.Millisecond {
		if sc.RunUntil(t); stop(sc, t) {
			return sc, t, nil
		}
	}
	sc.RunUntil(spec.Duration)
	return sc, spec.Duration, nil
}

// run runs the family's members in order on c, each at seed plus its
// offset, and reports what survives them.
func (f *Family) run(c *RunCtx, seed int64, members []Member) (*Result, error) {
	runs := make([]MemberRun, len(members))
	for i, m := range members {
		sc, end, err := c.run(m.Spec, seed+m.Seed, m.Stop)
		if err != nil {
			return nil, err
		}
		runs[i] = MemberRun{Samples: sc.Samples, End: end}
	}
	return f.Report(runs), nil
}

// specJob runs spec on the one path and renders the completed run with
// report (the generic report when nil) as a Result named id. A build
// failure is returned as a structured error: for everything but the
// registry's own specs the spec is outside input.
func specJob(id string, spec *scenario.Spec, report func(*scenario.Scenario) *Result) Job {
	if report == nil {
		report = genericReport
	}
	return Job{ID: id, Title: spec.Title, run: func(c *RunCtx, seed int64) (*Result, error) {
		sc, _, err := c.run(spec, seed, nil)
		if err != nil {
			return nil, err
		}
		res := report(sc)
		res.Figure, res.Title = id, spec.Title
		return res, nil
	}}
}

// genericReport renders a completed spec run: every collected series plus
// steady-state digest notes. Presets, command-line override runs and
// data-loaded specs (JSON files, fuzz inputs, hypothesis workloads) share
// it; the figures bring their own.
func genericReport(sc *scenario.Scenario) *Result {
	spec := sc.Spec
	res := &Result{Series: sc.Series()}
	half := spec.Duration / 2
	for _, s := range res.Series {
		res.Notes = append(res.Notes, fmt.Sprintf("%-24s mean=%10.1f, second half=%10.1f",
			s.Name, s.Mean(), s.MeanBetween(half, spec.Duration)))
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"topology %s, %d receivers declared, %d flows, %d timed events, %.0fs",
		spec.Topology.Kind, len(sc.Recvs), len(sc.Flows), len(spec.Events), spec.Duration.Seconds()))
	return res
}

// EntrySpec returns the spec of the Spec-backed registry entry id with ov
// applied: the one lookup behind ScenarioJob, tfmccsim -spec-out and
// hypothesis workloads.
func EntrySpec(id string, ov scenario.Overrides) (*scenario.Spec, error) {
	e, ok := Lookup(id)
	if !ok || e.Spec == nil {
		return nil, fmt.Errorf("experiments: %q is not a Spec-backed entry (have %v)", id, ScenarioIDs())
	}
	return e.Spec().Apply(ov)
}

// ScenarioJob runs a Spec-backed registry entry with command-line
// overrides applied, rendered by the generic report.
func ScenarioJob(id string, ov scenario.Overrides) (Job, error) {
	spec, err := EntrySpec(id, ov)
	if err != nil {
		return Job{}, err
	}
	return specJob(id, spec, nil), nil
}

// SpecJob runs an arbitrary (typically data-loaded) spec as a Result
// named id: a JSON document, a fuzz input, a hypothesis workload.
func SpecJob(id string, spec *scenario.Spec) Job { return specJob(id, spec, nil) }

// RunOverridden runs ScenarioJob(id, ov) for one seed on c.
func RunOverridden(c *RunCtx, id string, ov scenario.Overrides, seed int64) (*Result, error) {
	j, err := ScenarioJob(id, ov)
	if err != nil {
		return nil, err
	}
	return j.run(c, seed)
}

// ScenarioIDs returns the ids of every Spec-backed entry (figures with a
// single declarative scenario, plus all presets) in enumeration order.
func ScenarioIDs() []string {
	var out []string
	for _, e := range Entries() {
		if e.Spec != nil {
			out = append(out, e.ID)
		}
	}
	return out
}
