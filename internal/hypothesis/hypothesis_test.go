package hypothesis

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/invariant"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// TestSuiteJSONRoundTrip pins the wire format of every committed-suite
// hypothesis: Encode -> Decode -> Encode must be a byte fixpoint, so
// hypothesis documents exported from the suite can be committed, hand
// edited and re-run without drift.
func TestSuiteJSONRoundTrip(t *testing.T) {
	for _, h := range Suite() {
		enc, err := h.Encode()
		if err != nil {
			t.Fatalf("%s: encode: %v", h.ID, err)
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", h.ID, err)
		}
		enc2, err := dec.Encode()
		if err != nil {
			t.Fatalf("%s: re-encode: %v", h.ID, err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Errorf("%s: Encode->Decode->Encode is not a fixpoint", h.ID)
		}
	}
}

func TestDecodeRejectsUnknownAndTrailing(t *testing.T) {
	if _, err := Decode([]byte(`{"id":"x","bogus_field":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := Decode([]byte(`{"id":"x"}{"id":"y"}`)); err == nil {
		t.Error("trailing document accepted")
	}
}

// TestDecodeRejectsRemovedAndNestedUnknownKeys: a hypothesis document
// is decoded strictly all the way down — a workload naming the removed
// file key, a chaos plan naming the removed bursts or window keys, or an
// inline spec carrying a key the spec format does not have, fails Decode
// with an error naming the key.
func TestDecodeRejectsRemovedAndNestedUnknownKeys(t *testing.T) {
	for key, doc := range map[string]string{
		"file":      `{"id":"x","workload":{"file":"spec.json"}}`,
		"bogus_key": `{"id":"x","workload":{"spec":{"name":"s","duration_ns":1,"bogus_key":1}}}`,
		"partition": `{"id":"x","workload":{"spec":{"name":"s","duration_ns":1,"events":[{"partition":[{"site":-1}]}]}}}`,
		"bursts":    `{"id":"x","workload":{"scenario":"partition","chaos":{"level":1,"bursts":100000000}}}`,
		"from_ns":   `{"id":"x","workload":{"scenario":"partition","chaos":{"level":1,"from_ns":1}}}`,
	} {
		if _, err := Decode([]byte(doc)); err == nil || !strings.Contains(err.Error(), `"`+key+`"`) {
			t.Errorf("%s: %v, want a decode error naming the key", key, err)
		}
	}
}

// chaosDigests pins the committed suite's four chaos schedules (the base
// spec's events plus the drawn faults) as sha256 over one line per event:
// time, effect — down, up, impair with its rates and reorder delay, or
// crash with its slot — and target links. The text names no event verb,
// so it was computed before the script vocabulary was cut to one link
// verb and must not move with it.
var chaosDigests = map[string]string{
	"chaos-deeptree-l1":  "e7630970054cee4e7358d26d1b442a4c8b0b1a6237886322f1b5d3f212c4cf79",
	"chaos-massleave-l2": "5e8d5262f288fb751897d5978ab4a942b8badcb353165ec68c9cc47b12601f93",
	"chaos-partition-l2": "44341e52c8867185d7c3f0313bf0fd5999ea6f29cb3e1677e50bd17f46d4b5d1",
	"chaos-corruptfb-l3": "12ccdcacdf9c890ed3bec8f2fb5312dcceb8b7b0ae0ccbd5ab385a02f570b6f0",
}

// scheduleText renders an event script in the verb-free form
// chaosDigests hashes.
func scheduleText(t *testing.T, events []scenario.Event) string {
	t.Helper()
	var b strings.Builder
	for _, ev := range events {
		fmt.Fprintf(&b, "%d ", int64(ev.At))
		var links []scenario.LinkRef
		switch m := ev.SetLink; {
		case ev.Crash != nil:
			fmt.Fprintf(&b, "crash %d", *ev.Crash)
		case m != nil && m.Down != nil && *m.Down && m.Impair == nil:
			b.WriteString("down")
			links = m.Links
		case m != nil && m.Down != nil && !*m.Down && m.Impair == nil:
			b.WriteString("up")
			links = m.Links
		case m != nil && m.Impair != nil && m.Down == nil:
			im := m.Impair
			// The trailing 0 keeps the pinned digests: it is the reorder
			// bound the schedule text has always printed, and no plan sets one.
			fmt.Fprintf(&b, "impair %.17g %.17g %.17g 0", im.Corrupt, im.Duplicate, im.Reorder)
			links = m.Links
		default:
			t.Fatalf("event outside the chaos vocabulary: %+v", ev)
		}
		if m := ev.SetLink; m != nil && (m.BW != nil || m.Delay != nil || m.Loss != nil) {
			t.Fatalf("chaos event retunes a link: %+v", m)
		}
		for _, l := range links {
			fmt.Fprintf(&b, " %d:%d:%t", l.Site, l.Hop, l.Up)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestChaosSchedulesPinned: the committed chaos plans draw the same
// fault schedules over the same targets, whatever vocabulary spells
// them and however the targets are counted (today: from a scratch build
// of the spec).
func TestChaosSchedulesPinned(t *testing.T) {
	seen := 0
	for _, h := range Suite() {
		if h.Workload.Chaos == nil {
			continue
		}
		seen++
		spec, _, err := h.Workload.Resolve()
		if err != nil {
			t.Fatalf("%s: %v", h.ID, err)
		}
		text := scheduleText(t, spec.Events)
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(text))); got != chaosDigests[h.ID] {
			t.Errorf("%s: schedule digest %s, want %s; schedule:\n%s", h.ID, got, chaosDigests[h.ID], text)
		}
	}
	if seen != len(chaosDigests) {
		t.Errorf("%d chaos hypotheses in the suite, %d pinned", seen, len(chaosDigests))
	}
}

// TestLevelsPrintSeconds pins one chaos level line as tfmcchyp -list
// prints it: outage bounds in plain seconds.
func TestLevelsPrintSeconds(t *testing.T) {
	const want = "4 bursts, outages 2s-6s, impairment rates <= 15%, up to 25% of receivers crash"
	if got := Levels()[2]; got != want {
		t.Errorf("level 2 reads %q, want %q", got, want)
	}
}

// TestHostileSizesRefused: a seed count that would only exhaust memory is
// an error naming its field, returned before anything is allocated for
// it.
func TestHostileSizesRefused(t *testing.T) {
	h := &Hypothesis{
		ID:       "huge",
		Workload: Workload{Scenario: "partition"},
		Seeds:    SeedSet{Count: 1_000_000_000},
		Expect:   []Expectation{{NoInvariantViolations: &NoInvariantViolations{}}},
	}
	if _, err := Run(h, sweep.Config{}); err == nil || !strings.Contains(err.Error(), "seeds.count") {
		t.Errorf("seeds.count 1e9: %v, want an error naming seeds.count", err)
	}
}

// TestChaosScheduleDeterministic pins the chaos generator contract: the
// same plan over the same spec always appends the same fault script,
// independent of how often or where it is applied; a different schedule
// seed draws a different script.
func TestChaosScheduleDeterministic(t *testing.T) {
	p := &ChaosPlan{Level: 2, Seed: 5}
	a, err := p.Apply(scenario.Partition())
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Apply(scenario.Partition())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Error("same plan and spec produced different schedules")
	}
	c, err := (&ChaosPlan{Level: 2, Seed: 6}).Apply(scenario.Partition())
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Error("different schedule seeds drew identical schedules")
	}
	if a.Name == "partition" {
		t.Errorf("applied spec not renamed: name=%q", a.Name)
	}
	if d, err := p.Apply(scenario.Degrade()); err != nil || !d.HalveOnSilence {
		t.Errorf("chaos over degrade does not halve on silence (err %v)", err)
	}
	if len(a.Events) <= len(scenario.Partition().Events) {
		t.Error("no chaos events appended")
	}
}

// TestChaosHealsInsideRun checks every drawn outage heals strictly
// before the end of the run, so post-chaos expectations always observe a
// fully healed network.
func TestChaosHealsInsideRun(t *testing.T) {
	for lvl := 1; lvl <= 3; lvl++ {
		for seed := int64(1); seed <= 20; seed++ {
			sp, err := (&ChaosPlan{Level: lvl, Seed: seed}).Apply(scenario.Partition())
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range sp.Events {
				if e.At >= sp.Duration {
					t.Fatalf("level %d seed %d: event at %v >= duration %v", lvl, seed, e.At, sp.Duration)
				}
			}
		}
	}
}

// brokenHypothesis is a cheap workload with a deliberately impossible
// bound: the sender rate of a short partition run can never reach
// 1e12 B/s.
func brokenHypothesis() *Hypothesis {
	sp := scenario.Partition()
	sp.Name = "partition-short"
	sp.Duration = 20 * sim.Second
	return &Hypothesis{
		ID:       "broken-bound",
		Workload: Workload{Spec: sp},
		Seeds:    SeedSet{Base: 1, Count: 1},
		Expect: []Expectation{
			{RateFloor: &RateBound{Series: "sender rate", Bound: 1e12}},
		},
	}
}

// TestBrokenBoundFails pins the failure path end to end: an impossible
// bound must produce a failing verdict whose report carries the measured
// value against the bound it was judged by.
func TestBrokenBoundFails(t *testing.T) {
	if testing.Short() {
		t.Skip("full-simulation run")
	}
	v, err := Run(brokenHypothesis(), sweep.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if v.Pass {
		t.Fatal("impossible bound passed")
	}
	rep := v.Report()
	if !strings.Contains(rep, "FAIL") || !strings.Contains(rep, "vs floor 1000000000000.00") {
		t.Errorf("report lacks measured-vs-bound detail:\n%s", rep)
	}
	m := v.Expectations[0].PerSeed[0]
	if m.Pass || m.Bound != 1e12 || m.Measured >= 1e12 || m.Measured < 0 {
		t.Errorf("per-seed measure = %+v, want failing measured<bound", m)
	}
}

// TestJudgedRunDeterministic runs the same hypothesis twice and expects
// verdicts identical down to every measured value.
func TestJudgedRunDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full-simulation run")
	}
	h := brokenHypothesis()
	a, err := Run(h, sweep.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(h, sweep.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("verdicts differ across runs/worker counts:\n%+v\nvs\n%+v", a, b)
	}
}

// TestExpectationOneOf rejects empty and doubly-populated expectations.
func TestExpectationOneOf(t *testing.T) {
	h := &Hypothesis{
		ID:       "bad",
		Workload: Workload{Scenario: "partition"},
		Expect:   []Expectation{{}},
	}
	if _, err := Run(h, sweep.Config{}); err == nil {
		t.Error("empty expectation accepted")
	}
	h.Expect = []Expectation{{
		RateFloor:             &RateBound{Series: "x"},
		NoInvariantViolations: &NoInvariantViolations{},
	}}
	if _, err := Run(h, sweep.Config{}); err == nil {
		t.Error("doubly-populated expectation accepted")
	}
}

// TestWorkloadOneOf rejects workloads with zero or two sources.
func TestWorkloadOneOf(t *testing.T) {
	if _, _, err := (Workload{}).Resolve(); err == nil {
		t.Error("empty workload resolved")
	}
	w := Workload{Scenario: "partition", Spec: scenario.Partition()}
	if _, _, err := w.Resolve(); err == nil {
		t.Error("doubly-populated workload resolved")
	}
}

// TestNoInvariantViolationsCountsDropped: the judge counts the breaches
// the checker stopped storing past its cap (experiments'
// TestDroppedViolationsCounted shows a sweep reports them), so an
// allowance of 64 or more no longer passes however many there were.
func TestNoInvariantViolationsCountsDropped(t *testing.T) {
	run := &experiments.SeedRun{Seed: 1, Violations: make([]invariant.Violation, 64), Dropped: 36, Result: &experiments.Result{}}
	if m := (&NoInvariantViolations{Allow: 64}).judge(run); m.Pass || m.Measured != 100 {
		t.Errorf("64 stored + 36 dropped against allow 64: %+v, want a failure measuring 100", m)
	}
	if m := (&NoInvariantViolations{Allow: 100}).judge(run); !m.Pass || m.Measured != 100 {
		t.Errorf("64 stored + 36 dropped against allow 100: %+v, want a pass measuring 100", m)
	}
}

// TestRecoverWithinNeedsBaselineSamples: a baseline window that holds no
// samples fails, naming the window. Its mean used to read 0, so the
// first sample after the trigger "re-attained" the target and passed.
func TestRecoverWithinNeedsBaselineSamples(t *testing.T) {
	rate := &stats.Series{Name: "rate"}
	for at := sim.Time(0); at < 120*sim.Second; at += sim.Second {
		rate.Add(at, 1000)
	}
	run := &experiments.SeedRun{Seed: 1, Result: &experiments.Result{Series: []*stats.Series{rate}}}
	empty := &RecoverWithin{Series: "rate", After: 60 * sim.Second, Within: 10 * sim.Second,
		BaselineFrom: 500 * sim.Second, BaselineTo: 600 * sim.Second}
	if m := empty.judge(run); m.Pass || !strings.Contains(m.Detail, "no samples in baseline window [500.000000s, 600.000000s)") {
		t.Errorf("empty baseline window [500 s, 600 s): %+v, want a failure naming the window", m)
	}
	held := &RecoverWithin{Series: "rate", After: 60 * sim.Second, Within: 10 * sim.Second, BaselineFrom: 30 * sim.Second}
	if m := held.judge(run); !m.Pass || m.Measured != 0 {
		t.Errorf("baseline [30 s, 60 s) of a flat series: %+v, want a pass at the trigger", m)
	}
}

// TestKindKeysAreJSONKeys: the committed suite sets every expectation
// kind, and the key the kinds table gives each kind — the verdict's Kind
// — is the key its expectation encodes under.
func TestKindKeysAreJSONKeys(t *testing.T) {
	seen := map[string]bool{}
	for _, h := range Suite() {
		for _, e := range h.Expect {
			key, _, err := e.kind()
			if err != nil {
				t.Fatalf("%s: %v", h.ID, err)
			}
			enc, err := json.Marshal(e)
			if err != nil {
				t.Fatal(err)
			}
			var doc map[string]json.RawMessage
			if err := json.Unmarshal(enc, &doc); err != nil || len(doc) != 1 || doc[key] == nil {
				t.Errorf("%s: kind %q encodes as %s", h.ID, key, enc)
			}
			seen[key] = true
		}
	}
	for _, k := range kinds {
		if !seen[k.key] {
			t.Errorf("no suite expectation sets kind %q", k.key)
		}
	}
}

// verdictDigests pins the sha256 of every committed-suite verdict's JSON
// (encoding/json, compact), so a change to the run path, the judge or the
// document codec that moves a measured value, a detail or a description
// fails here rather than in a hand diff of tfmcchyp -suite -json.
var verdictDigests = map[string]string{
	"clrfail-reelection":      "3611deca301c5a9297374d23aaeb197d38b28ec9e2751cdbe88cb3ef581e2f3d",
	"partition-heal-recovery": "d4868f65d8b47b0d51e9ca816c8c4f7dd120092e648023ff7a96f6f9531e600f",
	"corruptfb-tolerance":     "e09d5df6135fd20d946d4cc97b4de7215650b8b379a99844ddffc6ed5b27f0b7",
	"chaos-deeptree-l1":       "0c6d11ab81e6ddd185eb72b9c5ca325182f36802be97909a666ca338425b7371",
	"chaos-massleave-l2":      "c8399d000ad6d557792ab133e7e3fb75d00c2d39f4f5ddad07544d5895be1745",
	"chaos-partition-l2":      "beee4d1ae81afb3e46d380bb9453d7d4fcecc4f2626aee3e68f2dab4dab1f9d8",
	"chaos-corruptfb-l3":      "6f0483e17514ca8fa783e2d09a84e4e884c382dcedd959d6ce90fa64ce0e310a",
}

// TestSuiteVerdictsPinned judges the committed suite at two sweep
// workers (verdicts do not depend on the count) and compares each
// verdict's digest with its pin.
func TestSuiteVerdictsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full-simulation runs")
	}
	suite := Suite()
	if len(suite) != len(verdictDigests) {
		t.Errorf("%d suite hypotheses, %d pinned", len(suite), len(verdictDigests))
	}
	for _, h := range suite {
		v, err := Run(h, sweep.Config{Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", h.ID, err)
		}
		enc, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: %v", h.ID, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(enc)); got != verdictDigests[h.ID] {
			t.Errorf("%s: verdict digest %s, want %s; verdict:\n%s", h.ID, got, verdictDigests[h.ID], v.Report())
		}
	}
}
