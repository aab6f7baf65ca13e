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

// build builds spec on the context's rewound environment for the configured
// execution engine — the region engine when the context has
// engineWorkers >= 2, serial otherwise — the one dispatch every scenario
// goes through. The caller starts it and drives its clock with RunUntil.
func (c *RunCtx) build(spec *scenario.Spec, seed int64) (*scenario.Scenario, error) {
	env := c.newEnv(seed)
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
	receivers := len(sc.Recvs)
	if spec.Cohort != nil {
		receivers += spec.Cohort.Size - 1 // the cohort's one endpoint stands for Size members
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"topology %s, %d receivers declared, %d flows, %d timed events, %.0fs",
		spec.Topology.Kind, receivers, len(sc.Flows), len(spec.Events), spec.Duration.Seconds()))
	return res, nil
}

// ScenarioJob runs a Spec-backed registry entry with command-line
// overrides applied, through the generic scenario executor.
func ScenarioJob(id string, ov scenario.Overrides) (Job, error) {
	e, ok := Lookup(id)
	if !ok {
		return Job{}, fmt.Errorf("experiments: unknown scenario %q (have %v)", id, ScenarioIDs())
	}
	if e.Spec == nil {
		return Job{}, fmt.Errorf("experiments: %q is not scenario-backed (have %v)", id, ScenarioIDs())
	}
	spec, err := e.Spec().Apply(ov)
	if err != nil {
		return Job{}, err
	}
	return Job{ID: id, Title: spec.Title, run: specRunner(id, spec)}, nil
}

// SpecJob runs an arbitrary (typically data-loaded) spec as a Result
// named id: a JSON document, a fuzz input, a hypothesis workload.
func SpecJob(id string, spec *scenario.Spec) Job {
	return Job{ID: id, Title: spec.Title, run: specRunner(id, spec)}
}

// specRunner runs spec through the generic executor as a Result named id.
func specRunner(id string, spec *scenario.Spec) func(*RunCtx, int64) (*Result, error) {
	return func(c *RunCtx, seed int64) (*Result, error) { return RunSpecErr(c, id, spec, seed) }
}

// RunOverridden runs ScenarioJob(id, ov) for one seed on c.
func RunOverridden(c *RunCtx, id string, ov scenario.Overrides, seed int64) (*Result, error) {
	j, err := ScenarioJob(id, ov)
	if err != nil {
		return nil, err
	}
	return j.runOn(c, seed)
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
