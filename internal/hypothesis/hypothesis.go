// Package hypothesis turns protocol predictions into judged runs: a
// Hypothesis names a workload (a registry scenario or an inline spec,
// optionally perturbed by a seeded chaos fault schedule), a seed set,
// and a list of typed Expectations ("after the heal at
// t=90s the sender re-attains 80% of its steady rate within 30s", "the
// rate never leaves [floor, ceiling]", "no invariant violations"). The
// judge runs the workload as one experiments.Sweep over the seed set
// with the run-level invariant checker armed, judges each seed's
// experiments.SeedRun, and produces a structured Verdict: pass/fail per
// expectation, measured vs bound, per-seed breakdown.
//
// Hypotheses serialise to JSON like scenario specs, so prediction suites
// ship as data (`tfmcchyp -run spec.json`); the committed suite
// (suite.go) gates CI through cmd/tfmcchyp.
package hypothesis

import (
	"fmt"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// Workload selects what a hypothesis runs. Exactly one of Scenario or
// Spec is set; Chaos optionally layers a seeded fault schedule over the
// selected spec.
type Workload struct {
	Scenario string         `json:"scenario,omitempty"` // Spec-backed registry entry id
	Spec     *scenario.Spec `json:"spec,omitempty"`     // inline spec
	Chaos    *ChaosPlan     `json:"chaos,omitempty"`    // seeded fault schedule on top
}

// SeedSet is a contiguous seed range, the same shape sweep.Config fans
// out. Zero values mean base 1, count 1.
type SeedSet struct {
	Base  int64 `json:"base,omitempty"`
	Count int   `json:"count,omitempty"`
}

func (s SeedSet) normalized() SeedSet {
	if s.Base == 0 {
		s.Base = 1
	}
	if s.Count < 1 {
		s.Count = 1
	}
	return s
}

// Hypothesis is one judged prediction: workload + seeds + expectations.
type Hypothesis struct {
	ID       string        `json:"id"`
	Title    string        `json:"title,omitempty"`
	Workload Workload      `json:"workload,omitzero"`
	Seeds    SeedSet       `json:"seeds,omitzero"`
	Expect   []Expectation `json:"expect,omitempty"`
}

// Expectation is one typed pass criterion. Exactly one field is set,
// mirroring the one-of convention of scenario.Step and scenario.Event.
type Expectation struct {
	RecoverWithin         *RecoverWithin         `json:"recover_within,omitempty"`
	RateFloor             *RateBound             `json:"rate_floor,omitempty"`
	RateCeiling           *RateBound             `json:"rate_ceiling,omitempty"`
	NoInvariantViolations *NoInvariantViolations `json:"no_invariant_violations,omitempty"`
	CLRReelectedBy        *CLRReelectedBy        `json:"clr_reelected_by,omitempty"`
	CounterBound          *CounterBound          `json:"counter_bound,omitempty"`
}

// RecoverWithin asserts that a sampled series re-attains a fraction of
// its pre-fault baseline within a deadline of a trigger instant — the
// "after the heal at t=After the rate recovers within Within" shape.
// The baseline is the series mean over [BaselineFrom, BaselineTo)
// (BaselineTo 0 means After, so the default baseline window ends at the
// trigger).
type RecoverWithin struct {
	Series       string   `json:"series"`
	After        sim.Time `json:"after_ns"`       // trigger instant (crash, heal)
	Within       sim.Time `json:"within_ns"`      // recovery deadline from After
	Frac         float64  `json:"frac,omitempty"` // required baseline fraction; default 0.8
	BaselineFrom sim.Time `json:"baseline_from_ns,omitempty"`
	BaselineTo   sim.Time `json:"baseline_to_ns,omitempty"` // 0 = After
}

// RateBound asserts that every sample of a series inside [From, To)
// stays above (RateFloor) or below (RateCeiling) Bound. To 0 means the
// end of the run. A NaN sample fails either direction, so a floor of
// zero doubles as a "rate never NaNs" check.
type RateBound struct {
	Series string   `json:"series"`
	From   sim.Time `json:"from_ns,omitempty"`
	To     sim.Time `json:"to_ns,omitempty"`
	Bound  float64  `json:"bound"`
}

// NoInvariantViolations asserts the run-level invariant checker (always
// armed on judged runs) recorded at most Allow violations for the seed.
type NoInvariantViolations struct {
	Allow int `json:"allow,omitempty"`
}

// CLRReelectedBy asserts the sender lost its CLR at least MinLosses
// times (default 1) and that every loss found a successor, the worst
// episode taking at most Within of simulated time.
type CLRReelectedBy struct {
	Within    sim.Time `json:"within_ns"`
	MinLosses int64    `json:"min_losses,omitempty"`
}

// CounterBound brackets one engine counter for the seed's run. Nil ends
// are unbounded; Counter is a report key of experiments.EngineStats
// (events, packets_sent, packets_delivered, unreachable, corrupted,
// duplicated, clr_losses, reelections, rate_recoveries, ...).
type CounterBound struct {
	Counter string `json:"counter"`
	Min     *int64 `json:"min,omitempty"`
	Max     *int64 `json:"max,omitempty"`
}

// judged is the payload of an expectation kind: it describes itself for
// the verdict and judges one seed's run.
type judged interface {
	desc() string
	judge(*experiments.SeedRun) SeedMeasure
}

// kinds declares each expectation kind once: its json key, and its
// payload in an expectation together with whether the expectation sets
// it. The payload's type describes and judges.
var kinds = []struct {
	key string
	of  func(Expectation) (judged, bool)
}{
	{"recover_within", func(e Expectation) (judged, bool) { return e.RecoverWithin, e.RecoverWithin != nil }},
	{"rate_floor", func(e Expectation) (judged, bool) { return rateBound{e.RateFloor, true}, e.RateFloor != nil }},
	{"rate_ceiling", func(e Expectation) (judged, bool) { return rateBound{e.RateCeiling, false}, e.RateCeiling != nil }},
	{"no_invariant_violations", func(e Expectation) (judged, bool) { return e.NoInvariantViolations, e.NoInvariantViolations != nil }},
	{"clr_reelected_by", func(e Expectation) (judged, bool) { return e.CLRReelectedBy, e.CLRReelectedBy != nil }},
	{"counter_bound", func(e Expectation) (judged, bool) { return e.CounterBound, e.CounterBound != nil }},
}

// kind returns the json key and payload of the one kind the expectation
// sets, or an error when the one-of is mis-populated.
func (e Expectation) kind() (string, judged, error) {
	var keys []string
	var payload judged
	for _, k := range kinds {
		if j, ok := k.of(e); ok {
			keys, payload = append(keys, k.key), j
		}
	}
	if len(keys) != 1 {
		return "", nil, fmt.Errorf("hypothesis: expectation must set exactly one kind, has %v", keys)
	}
	return keys[0], payload, nil
}

func (r *RecoverWithin) frac() float64 {
	if r.Frac == 0 {
		return 0.8
	}
	return r.Frac
}

func (r *RateBound) window() string {
	if r.To == 0 {
		return fmt.Sprintf("[%v, end)", r.From)
	}
	return fmt.Sprintf("[%v, %v)", r.From, r.To)
}

func (c *CLRReelectedBy) minLosses() int64 {
	if c.MinLosses == 0 {
		return 1
	}
	return c.MinLosses
}

func (c *CounterBound) bounds() string {
	lo, hi := "-inf", "+inf"
	if c.Min != nil {
		lo = fmt.Sprint(*c.Min)
	}
	if c.Max != nil {
		hi = fmt.Sprint(*c.Max)
	}
	return fmt.Sprintf("[%s, %s]", lo, hi)
}

// --- JSON codec (scenario's strict document codec) ---------------------

// Encode renders the hypothesis as an indented JSON document.
func (h *Hypothesis) Encode() ([]byte, error) { return scenario.EncodeDoc(h) }

// Decode parses one hypothesis document strictly (see scenario.DecodeDoc).
func Decode(data []byte) (*Hypothesis, error) {
	return scenario.DecodeDoc[Hypothesis]("hypothesis: decode", data)
}

// Load reads a hypothesis document from disk.
func Load(path string) (*Hypothesis, error) {
	return scenario.LoadDoc[Hypothesis]("hypothesis: decode", path)
}
