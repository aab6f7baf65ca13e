package experiments

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/scenario"
)

// The scenario presets ride in the same registry as the paper figures —
// stable IDs and tags — so the golden ledger pins them and tfmccsim -all
// runs them like any figure, and tfmccsim runs them via -scenario with
// parameter overrides.
func init() {
	for _, p := range scenario.Presets() {
		p := p
		addEntry(Entry{
			ID:    p.ID,
			Title: p.Title,
			Tags:  []string{TagEngine, TagSweep, TagScenario},
			Spec:  p.Make,
			Run: func(c *RunCtx, seed int64) *Result {
				// Preset specs are compile-time constants: a build failure
				// is a programmer bug, not an input problem.
				res, err := RunSpecErr(c, p.ID, p.Make(), seed)
				if err != nil {
					panic(err)
				}
				return res
			},
		})
	}
}

// build builds spec on the next pooled environment for the configured
// execution engine — the region engine when the context has
// engineWorkers >= 2, serial otherwise — the one dispatch every scenario
// goes through. The caller starts it and drives its clock with RunUntil.
func (c *RunCtx) build(spec *scenario.Spec, seed int64) (*scenario.Scenario, error) {
	env := c.scenarioEnv(seed)
	if c.engineWorkers >= 2 {
		return engine.Build(env, spec, seed)
	}
	return scenario.Build(env, spec)
}

// runSpec builds spec and runs it to its duration.
func (c *RunCtx) runSpec(spec *scenario.Spec, seed int64) (*scenario.Scenario, error) {
	sc, err := c.build(spec, seed)
	if err != nil {
		return nil, err
	}
	sc.Start()
	sc.RunUntil(spec.Duration)
	return sc, nil
}

// runScenario is runSpec for the hand-wired figure runners, which thereby
// honour -engineworkers exactly like Spec-backed runs. Build failures
// panic: these specs are compile-time constants, so failure is a
// programmer bug (the mustScenario contract).
func (c *RunCtx) runScenario(spec *scenario.Spec, seed int64) *scenario.Scenario {
	return mustScenario(c.runSpec(spec, seed))
}

// RunSpecErr executes a declarative scenario spec and renders a generic
// Result: every collected series plus steady-state digest notes. Figure
// runners do their own post-processing; presets, command-line override
// runs and data-loaded specs (JSON files, fuzz inputs, hypothesis
// workloads) share this one. A build failure is returned as a structured
// error: for everything but the presets the spec is outside input.
func RunSpecErr(c *RunCtx, id string, spec *scenario.Spec, seed int64) (*Result, error) {
	sc, err := c.runSpec(spec, seed)
	if err != nil {
		return nil, err
	}
	c.harvestRecovery(sc.Sess.Sender)
	res := &Result{Figure: id, Title: spec.Title, Series: sc.Series()}
	half := spec.Duration / 2
	for _, s := range res.Series {
		res.Notes = append(res.Notes, fmt.Sprintf("%-24s mean=%10.1f, second half=%10.1f",
			s.Name, s.Mean(), s.MeanBetween(half, spec.Duration)))
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"topology %s, %d receivers declared, %d flows, %d timed events, %.0fs",
		spec.Topology.Kind, spec.DeclaredReceivers(), len(sc.Flows), len(spec.Events), spec.Duration.Seconds()))
	return res, nil
}

// RunSpecKeyed runs an arbitrary (typically data-loaded) spec under its
// own arena key, the way RunOverridden does for registry-backed specs:
// repeated runs of the same key rewind the cached topology.
func RunSpecKeyed(c *RunCtx, key string, spec *scenario.Spec, seed int64) (*Result, error) {
	defer c.begin("spec-" + key)()
	return RunSpecErr(c, key, spec, seed)
}

// RunOverridden runs a Spec-backed registry entry with command-line
// overrides applied; the RunCtx arena key includes the entry id so
// repeated runs reuse the cached topology.
func RunOverridden(c *RunCtx, id string, ov scenario.Overrides, seed int64) (*Result, error) {
	e, ok := Lookup(id)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown scenario %q (have %v)", id, ScenarioIDs())
	}
	if e.Spec == nil {
		return nil, fmt.Errorf("experiments: %q is not scenario-backed (have %v)", id, ScenarioIDs())
	}
	spec, err := e.Spec().Apply(ov)
	if err != nil {
		return nil, err
	}
	defer c.begin("scenario-" + id)()
	return RunSpecErr(c, id, spec, seed)
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
