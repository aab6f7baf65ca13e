package experiments

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/tfmcc"
)

// The scenario presets ride in the same registry as the paper figures,
// under stable IDs, so the golden ledger pins them and tfmccsim -all
// runs them like any figure, and tfmccsim runs them via -scenario with
// parameter overrides. Each is its spec alone: the generic report
// renders it.
func init() {
	for _, p := range scenario.Presets() {
		registerSpec(p().Name, p, genericReport)
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

// membersJob runs members in order on the one path, each at the job's
// seed plus its offset, and renders what survives them with report as a
// Result named id. A build failure is returned as a structured error:
// for everything but the registry's own specs the spec is outside input.
func membersJob(id, title string, members []Member, report func([]MemberRun) *Result) Job {
	return Job{ID: id, Title: title, run: func(c *RunCtx, seed int64) (*Result, error) {
		runs := make([]MemberRun, len(members))
		for i, m := range members {
			sc, end, err := c.run(m.Spec, seed+m.Seed, m.Stop)
			if err != nil {
				return nil, err
			}
			runs[i] = MemberRun{Spec: m.Spec, Series: sc.Series(), End: end, Recvs: len(sc.Recvs), Flows: len(sc.Flows)}
		}
		res := report(runs)
		res.Figure, res.Title = id, title
		return res, nil
	}}
}

// genericReport renders a one-member run: every collected series plus
// steady-state digest notes. Presets, command-line override runs and
// data-loaded specs (JSON files, fuzz inputs, hypothesis workloads) share
// it; the figures bring their own.
func genericReport(runs []MemberRun) *Result {
	r := runs[0]
	spec := r.Spec
	res := &Result{Series: r.Series}
	half := spec.Duration / 2
	for _, s := range res.Series {
		res.Notes = append(res.Notes, fmt.Sprintf("%-24s mean=%10.1f, second half=%10.1f",
			s.Name, s.Mean(), s.MeanBetween(half, spec.Duration)))
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"topology %s, %d receivers declared, %d flows, %d timed events, %.0fs",
		spec.Topology.Kind, r.Recvs, r.Flows, len(spec.Events), spec.Duration.Seconds()))
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
	return SpecJob(id, spec), nil
}

// SpecJob runs an arbitrary (typically data-loaded) spec as a Result
// named id: a JSON document, a fuzz input, a hypothesis workload.
func SpecJob(id string, spec *scenario.Spec) Job {
	return membersJob(id, spec.Title, []Member{{Spec: spec}}, genericReport)
}

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
