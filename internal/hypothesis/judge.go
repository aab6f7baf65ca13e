package hypothesis

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// SeedMeasure is one seed's judgement of one expectation.
type SeedMeasure struct {
	Seed     int64   `json:"seed"`
	Pass     bool    `json:"pass"`
	Measured float64 `json:"measured"` // what the run produced (units per kind)
	Bound    float64 `json:"bound"`    // the bound it was judged against
	Detail   string  `json:"detail,omitempty"`
}

// ExpectationVerdict is one expectation judged across every seed.
type ExpectationVerdict struct {
	Kind    string        `json:"kind"`
	Desc    string        `json:"desc"`
	Pass    bool          `json:"pass"`
	PerSeed []SeedMeasure `json:"per_seed"`
}

// Verdict is the structured report of one judged hypothesis.
type Verdict struct {
	ID           string               `json:"id"`
	Title        string               `json:"title,omitempty"`
	Workload     string               `json:"workload"`
	SeedBase     int64                `json:"seed_base"`
	SeedCount    int                  `json:"seed_count"`
	Pass         bool                 `json:"pass"`
	Expectations []ExpectationVerdict `json:"expectations"`
}

// Report renders the verdict for terminals: one line per expectation
// with the worst seed's measured-vs-bound, plus per-seed failure lines.
func (v *Verdict) Report() string {
	var b strings.Builder
	status := "PASS"
	if !v.Pass {
		status = "FAIL"
	}
	fmt.Fprintf(&b, "%s %s (%s, seeds %d..%d)\n", status, v.ID, v.Workload,
		v.SeedBase, v.SeedBase+int64(v.SeedCount)-1)
	for _, ev := range v.Expectations {
		mark := "pass"
		if !ev.Pass {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "  [%s] %s: %s\n", mark, ev.Kind, ev.Desc)
		for _, m := range ev.PerSeed {
			if !m.Pass || !ev.Pass {
				fmt.Fprintf(&b, "         seed %d: %s\n", m.Seed, m.Detail)
			}
		}
	}
	return b.String()
}

// Resolve materialises the workload's scenario spec (chaos applied) and
// a stable name for it: the sweep job's id and the verdict's Workload.
func (w Workload) Resolve() (*scenario.Spec, string, error) {
	var spec *scenario.Spec
	var name string
	set := 0
	if w.Scenario != "" {
		set++
		s, err := experiments.EntrySpec(w.Scenario, scenario.None())
		if err != nil {
			return nil, "", fmt.Errorf("hypothesis: workload scenario: %w", err)
		}
		spec, name = s, w.Scenario
	}
	if w.Spec != nil {
		set++
		spec, name = w.Spec, "inline-"+w.Spec.Name
	}
	if set != 1 {
		return nil, "", fmt.Errorf("hypothesis: workload must set exactly one of scenario, spec (has %d)", set)
	}
	if w.Chaos != nil {
		perturbed, err := w.Chaos.Apply(spec)
		if err != nil {
			return nil, "", err
		}
		spec = perturbed
		name = fmt.Sprintf("%s-chaos%d-s%d", name, w.Chaos.Level, w.Chaos.seed())
	}
	return spec, name, nil
}

// Run executes and judges one hypothesis: the workload runs once per
// seed of the hypothesis' own seed set (cfg's seed fields are replaced
// by it) as one experiments.Sweep of SpecJob(name, spec) with the
// invariant checker armed, and every expectation is then judged against
// the sweep's per-seed runs in seed order, making the verdict
// independent of the worker count. cfg.EngineWorkers >= 2 judges the
// workload on the region engine: its own deterministic universe
// (per-region random streams), so expectations judge a different —
// equally valid — trajectory than the serial engine's. Every
// expectation kind judges on either engine.
// The returned error covers malformed hypotheses (bad workload ref,
// mis-populated expectation, a seed count above sweep.MaxSeeds);
// workload build/run failures are judged (they fail every expectation),
// not returned.
func Run(h *Hypothesis, cfg sweep.Config) (*Verdict, error) {
	if h.ID == "" {
		return nil, fmt.Errorf("hypothesis: missing id")
	}
	if len(h.Expect) == 0 {
		return nil, fmt.Errorf("hypothesis %s: no expectations", h.ID)
	}
	if h.Seeds.Count > sweep.MaxSeeds {
		return nil, fmt.Errorf("hypothesis %s: seeds.count %d exceeds the cap of %d", h.ID, h.Seeds.Count, sweep.MaxSeeds)
	}
	spec, name, err := h.Workload.Resolve()
	if err != nil {
		return nil, fmt.Errorf("hypothesis %s: %w", h.ID, err)
	}
	for _, e := range h.Expect {
		if _, _, err := e.kind(); err != nil {
			return nil, fmt.Errorf("hypothesis %s: %w", h.ID, err)
		}
	}

	seeds := h.Seeds.normalized()
	cfg.Seeds, cfg.Base, cfg.Step, cfg.Check = seeds.Count, seeds.Base, 1, true
	runs := experiments.Sweep(experiments.SpecJob(name, spec), cfg).Runs

	v := &Verdict{
		ID: h.ID, Title: h.Title, Workload: name,
		SeedBase: seeds.Base, SeedCount: seeds.Count, Pass: true,
	}
	for _, e := range h.Expect {
		kind, desc, _ := e.kind()
		ev := ExpectationVerdict{Kind: kind, Desc: desc, Pass: true}
		for i := range runs {
			m := e.judge(&runs[i])
			m.Seed = runs[i].Seed
			if !m.Pass {
				ev.Pass = false
			}
			ev.PerSeed = append(ev.PerSeed, m)
		}
		if !ev.Pass {
			v.Pass = false
		}
		v.Expectations = append(v.Expectations, ev)
	}
	return v, nil
}

// judge evaluates the expectation against one seed's run.
func (e Expectation) judge(o *experiments.SeedRun) SeedMeasure {
	if o.Err != nil {
		msg := o.Err.Error()
		var p sweep.SeedError
		if errors.As(o.Err, &p) {
			msg = p.Msg // the worker that ran the seed is not part of the verdict
		}
		return SeedMeasure{Detail: "run failed: " + msg}
	}
	switch {
	case e.RecoverWithin != nil:
		return e.RecoverWithin.judge(o)
	case e.RateFloor != nil:
		return e.RateFloor.judgeFloor(o)
	case e.RateCeiling != nil:
		return e.RateCeiling.judgeCeiling(o)
	case e.NoInvariantViolations != nil:
		return e.NoInvariantViolations.judge(o)
	case e.CLRReelectedBy != nil:
		return e.CLRReelectedBy.judge(o)
	case e.CounterBound != nil:
		return e.CounterBound.judge(o)
	}
	return SeedMeasure{Detail: "empty expectation"} // unreachable: kind() validated
}

// lookup finds a run's collected series by name (the last of that name).
func lookup(o *experiments.SeedRun, name string) (*stats.Series, SeedMeasure, bool) {
	for i := len(o.Result.Series) - 1; i >= 0; i-- {
		s := o.Result.Series[i]
		if s.Name != name {
			continue
		}
		if len(s.Points) == 0 {
			break
		}
		return s, SeedMeasure{}, true
	}
	return nil, SeedMeasure{Detail: fmt.Sprintf("series %q not collected (or empty)", name)}, false
}

func (r *RecoverWithin) judge(o *experiments.SeedRun) SeedMeasure {
	s, fail, ok := lookup(o, r.Series)
	if !ok {
		return fail
	}
	to := r.BaselineTo
	if to == 0 {
		to = r.After
	}
	if !slices.ContainsFunc(s.Points, func(p stats.Point) bool { return p.T >= r.BaselineFrom && p.T < to }) {
		// An empty window has no baseline: a target of 0 would pass at the
		// first sample after the trigger whatever the series did.
		return SeedMeasure{Detail: fmt.Sprintf("series %q has no samples in baseline window [%v, %v)", r.Series, r.BaselineFrom, to)}
	}
	baseline := s.MeanBetween(r.BaselineFrom, to)
	target := r.frac() * baseline
	bound := r.Within.Seconds()
	for _, p := range s.Points {
		if p.T >= r.After && p.V >= target {
			rec := (p.T - r.After).Seconds()
			return SeedMeasure{
				Pass: rec <= bound, Measured: rec, Bound: bound,
				Detail: fmt.Sprintf("re-attained %.1f (%.0f%% of baseline %.1f) after %.2fs vs bound %.2fs",
					target, r.frac()*100, baseline, rec, bound),
			}
		}
	}
	return SeedMeasure{
		Pass: false, Measured: -1, Bound: bound,
		Detail: fmt.Sprintf("never re-attained %.1f (%.0f%% of baseline %.1f) after t=%v vs bound %.2fs",
			target, r.frac()*100, baseline, r.After, bound),
	}
}

// extreme scans the window for the min (floor) or max (ceiling) sample;
// any NaN poisons the result.
func (r *RateBound) extreme(o *experiments.SeedRun, wantMin bool) (float64, int, bool) {
	s, _, ok := lookup(o, r.Series)
	if !ok {
		return 0, 0, false
	}
	to := r.To
	if to == 0 {
		to = sim.MaxTime
	}
	ext, n := math.NaN(), 0
	for _, p := range s.Points {
		if p.T < r.From || p.T >= to {
			continue
		}
		n++
		if math.IsNaN(p.V) {
			return math.NaN(), n, true
		}
		if n == 1 || (wantMin && p.V < ext) || (!wantMin && p.V > ext) {
			ext = p.V
		}
	}
	return ext, n, true
}

func (r *RateBound) judgeFloor(o *experiments.SeedRun) SeedMeasure {
	lo, n, ok := r.extreme(o, true)
	if !ok {
		_, fail, _ := lookup(o, r.Series)
		return fail
	}
	if n == 0 {
		return SeedMeasure{Detail: fmt.Sprintf("series %q has no samples in %s", r.Series, r.window())}
	}
	return SeedMeasure{
		Pass: lo >= r.Bound, Measured: sanitize(lo), Bound: r.Bound,
		Detail: fmt.Sprintf("min %.2f vs floor %.2f over %s (%d samples)", lo, r.Bound, r.window(), n),
	}
}

func (r *RateBound) judgeCeiling(o *experiments.SeedRun) SeedMeasure {
	hi, n, ok := r.extreme(o, false)
	if !ok {
		_, fail, _ := lookup(o, r.Series)
		return fail
	}
	if n == 0 {
		return SeedMeasure{Detail: fmt.Sprintf("series %q has no samples in %s", r.Series, r.window())}
	}
	return SeedMeasure{
		Pass: hi <= r.Bound, Measured: sanitize(hi), Bound: r.Bound,
		Detail: fmt.Sprintf("max %.2f vs ceiling %.2f over %s (%d samples)", hi, r.Bound, r.window(), n),
	}
}

func (nv *NoInvariantViolations) judge(o *experiments.SeedRun) SeedMeasure {
	n := int64(len(o.Violations)) + o.Dropped
	m := SeedMeasure{
		Pass: n <= int64(nv.Allow), Measured: float64(n), Bound: float64(nv.Allow),
		Detail: fmt.Sprintf("%d violations vs allowed %d", n, nv.Allow),
	}
	if !m.Pass && len(o.Violations) > 0 {
		m.Detail += ": " + o.Violations[0].String()
	}
	return m
}

func (c *CLRReelectedBy) judge(o *experiments.SeedRun) SeedMeasure {
	st := o.Stats
	worst := st.ReelectNS.Seconds()
	bound := c.Within.Seconds()
	switch {
	case st.CLRLosses < c.minLosses():
		return SeedMeasure{Measured: float64(st.CLRLosses), Bound: float64(c.minLosses()),
			Detail: fmt.Sprintf("%d CLR losses vs required >= %d", st.CLRLosses, c.minLosses())}
	case st.Reelections < st.CLRLosses:
		return SeedMeasure{Measured: float64(st.Reelections), Bound: float64(st.CLRLosses),
			Detail: fmt.Sprintf("only %d of %d CLR losses re-elected a successor", st.Reelections, st.CLRLosses)}
	default:
		return SeedMeasure{
			Pass: worst <= bound, Measured: worst, Bound: bound,
			Detail: fmt.Sprintf("%d losses all re-elected, worst %.2fs vs bound %.2fs", st.CLRLosses, worst, bound),
		}
	}
}

func (c *CounterBound) judge(o *experiments.SeedRun) SeedMeasure {
	u, ok := o.Stats.Lookup(c.Counter)
	if !ok {
		return SeedMeasure{Detail: fmt.Sprintf("unknown counter %q", c.Counter)}
	}
	v := int64(u)
	pass := (c.Min == nil || v >= *c.Min) && (c.Max == nil || v <= *c.Max)
	return SeedMeasure{
		Pass: pass, Measured: float64(v),
		Detail: fmt.Sprintf("%s = %d vs bounds %s", c.Counter, v, c.bounds()),
	}
}

// sanitize maps non-finite measurements to -1 so verdicts always
// marshal to valid JSON; the detail string carries the real story.
func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return -1
	}
	return v
}
