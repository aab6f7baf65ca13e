package benchreport

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sweep"
)

// cheapOnly is a selection that exercises analytic figures, one real
// engine figure and the session scenario while staying fast enough to
// measure repeatedly in a unit test.
var cheapOnly = []string{"1", "2", "14", "17", "session100x10"}

func TestPlanEnumeration(t *testing.T) {
	plan, err := NewPlan(nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 35 { // 21 figures + 13 scenario presets + session
		t.Fatalf("full plan has %d items, want 35", len(plan))
	}
	if plan[len(plan)-1].ID != SessionID {
		t.Fatalf("session not last: %s", plan[len(plan)-1].ID)
	}
	noSess, err := NewPlan(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(noSess) != 34 {
		t.Fatalf("sessionless plan has %d items, want 34", len(noSess))
	}
	// Scenario presets keep their names as report ids and are selectable.
	sel, err := NewPlan([]string{"flashcrowd"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 1 || sel[0].ID != "flashcrowd" || sel[0].FigureID != "flashcrowd" {
		t.Fatalf("preset selection wrong: %+v", sel)
	}
}

func TestPlanOnlySelection(t *testing.T) {
	// Bare figure ids, report ids and the session alias all resolve, and
	// selection keeps enumeration order regardless of argument order.
	plan, err := NewPlan([]string{"session", "figure9", "1"}, true)
	if err != nil {
		t.Fatal(err)
	}
	got := []string{plan[0].ID, plan[1].ID, plan[2].ID}
	want := []string{"figure1", "figure9", SessionID}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("selection order %v, want %v", got, want)
	}
}

func TestPlanOnlyErrors(t *testing.T) {
	if _, err := NewPlan([]string{"999"}, true); err == nil {
		t.Fatal("unknown id must error")
	}
	if _, err := NewPlan([]string{"9", "9"}, true); err == nil {
		t.Fatal("duplicate id must error")
	}
	if _, err := NewPlan([]string{"9", "figure9"}, true); err == nil {
		t.Fatal("duplicate id via alias must error")
	}
	// The session id is not selectable when the session is excluded.
	if _, err := NewPlan([]string{"session100x10"}, false); err == nil {
		t.Fatal("session id without session must error")
	}
}

// measure runs a real (small) measurement of a selection.
func measure(t *testing.T, sel []string, cfg sweep.Config) *Report {
	t.Helper()
	plan, err := NewPlan(sel, true)
	if err != nil {
		t.Fatal(err)
	}
	return Measure(plan, cfg, io.Discard)
}

// engine wraps counters into a Metrics literal's embedded field.
type engine = experiments.EngineStats

func TestCompareGatesRegressions(t *testing.T) {
	mk := func(events uint64, allocs float64) *Report {
		return &Report{Seeds: 4, Scenarios: []Metrics{
			{ID: "figure9", Runs: 4, EngineStats: engine{Events: events, PacketsSent: 700, PacketsDelivered: 690},
				NSPerEvent: 100, AllocsPerEvt: allocs},
			{ID: "figure1", Runs: 4, Analytic: true, WallNS: 1},
		}}
	}
	base := mk(1000, 0.010)
	if regs, _ := Compare(base, mk(1000, 0.011), 0.15); len(regs) != 0 {
		t.Fatalf("10%% allocs/event drift gated: %v", regs)
	}
	if regs, _ := Compare(base, mk(1000, 0.012), 0.15); len(regs) != 1 || regs[0].Metric != "allocs/event" {
		t.Fatalf("20%% allocs/event regression not gated: %v", regs)
	}
	// The baseline is a counter ledger: one event, or one packet, of drift
	// over the same seeds fails, in either direction.
	for _, events := range []uint64{999, 1001} {
		regs, _ := Compare(base, mk(events, 0.010), 0.15)
		if len(regs) != 1 || regs[0].ID != "figure9" || regs[0].Metric != "events drift" {
			t.Fatalf("%d events against a baseline of 1000 not gated: %v", events, regs)
		}
	}
	pkts := mk(1000, 0.010)
	pkts.Scenarios[0].PacketsSent++
	pkts.Scenarios[0].PacketsDelivered--
	if regs, _ := Compare(base, pkts, 0.15); len(regs) != 2 {
		t.Fatalf("packet counter drift not gated on both counters: %v", regs)
	}
	// Another seed count or another engine is another universe: counters
	// are not comparable, which is a note, not a failure.
	for name, mut := range map[string]func(*Report){
		"seed count": func(r *Report) { r.Scenarios[0].Runs = 2 },
		"engine":     func(r *Report) { r.Scenarios[0].EngineShards = 2; r.Scenarios[0].ControlEvents = 500 },
	} {
		other := mk(500, 0.010)
		mut(other)
		regs, notes := Compare(base, other, 0.15)
		if len(regs) != 0 || len(notes) == 0 {
			t.Fatalf("different %s: want a note and no regression, got %v / %v", name, regs, notes)
		}
	}
	// Analytic figures are exempt however much their wall time moves.
	slow := mk(1000, 0.010)
	slow.Scenarios[1].WallNS = 1e12
	if regs, _ := Compare(base, slow, 0.15); len(regs) != 0 {
		t.Fatalf("analytic figure gated: %v", regs)
	}
	// A scenario missing on either side is a note, not a silent pass.
	missing := &Report{Scenarios: []Metrics{base.Scenarios[0]}}
	if _, notes := Compare(base, missing, 0.15); len(notes) == 0 {
		t.Fatal("missing scenario must be noted")
	}
}

// TestCompareNormalizesMachineSpeed: Compare's verdict does not depend
// on the machine. Wall-clock rates are not gated at all — neither a
// uniformly slower runner nor one scenario that is slower than the rest
// fails (bench/ is the timing authority) — while allocs/event, which is
// machine-independent, stays an absolute gate.
func TestCompareNormalizesMachineSpeed(t *testing.T) {
	mk := func(scale float64, slowOne bool) *Report {
		r := &Report{}
		for i := 0; i < 5; i++ {
			ns := 100.0 * scale
			if slowOne && i == 0 {
				ns *= 1.4
			}
			r.Scenarios = append(r.Scenarios, Metrics{
				ID: fmt.Sprintf("figure%d", 9+i), Runs: 4, EngineStats: engine{Events: 1000}, NSPerEvent: ns, AllocsPerEvt: 0.01,
			})
		}
		return r
	}
	base := mk(1, false)
	for _, fresh := range []*Report{mk(2, false), mk(2, true), mk(0.5, true)} {
		if regs, _ := Compare(base, fresh, 0.15); len(regs) != 0 {
			t.Fatalf("ns/event gated: %v", regs)
		}
	}
	worse := mk(2, false)
	for i := range worse.Scenarios {
		worse.Scenarios[i].AllocsPerEvt = 0.012
	}
	if regs, _ := Compare(base, worse, 0.15); len(regs) != 5 {
		t.Fatalf("allocs regression not gated absolutely: %v", regs)
	}
}

func TestStripDropsTimingFields(t *testing.T) {
	rep := measure(t, cheapOnly, sweep.Config{Seeds: 2, Workers: 1, Base: 1})
	s := rep.Strip()
	if !s.Deterministic || s.Generated != "" || s.Workers != 0 || s.WallNS != 0 {
		t.Fatalf("strip left header fields: %+v", s)
	}
	for _, m := range s.Scenarios {
		if m.WallNS != 0 || m.Allocs != 0 || m.NSPerEvent != 0 || m.Setup != nil {
			t.Fatalf("strip left timing fields on %s: %+v", m.ID, m)
		}
	}
	// The original is untouched and engine scenarios kept their counters.
	hasEvents := false
	for _, m := range rep.Scenarios {
		if m.Events > 0 {
			hasEvents = true
		}
	}
	if !hasEvents {
		t.Fatal("measurement produced no engine events at all")
	}
	if strings.Contains(string(mustEncode(t, s)), "wall_ns") {
		t.Fatal("stripped encoding still mentions wall_ns")
	}
}

func mustEncode(t *testing.T, r *Report) []byte {
	t.Helper()
	enc, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestShardedMeasurement: -engineworkers measurements carry per-shard
// counters that satisfy conservation and pass the gate.
func TestShardedMeasurement(t *testing.T) {
	plan, err := NewPlan([]string{"flashcrowd", "wireless"}, false)
	if err != nil {
		t.Fatal(err)
	}
	full := Measure(plan, sweep.Config{Seeds: 2, Workers: 1, Base: 1, EngineWorkers: 2}, io.Discard)
	for _, m := range full.Scenarios {
		if m.EngineShards < 2 || m.EngineWorkers != 2 {
			t.Fatalf("%s: expected sharded counters, got %+v", m.ID, m)
		}
		var sum uint64
		for _, v := range m.ShardEvents {
			sum += v
		}
		if m.Events != m.ControlEvents+sum || m.HandoffsSent != m.HandoffsRecv {
			t.Fatalf("%s: conservation broken in measurement: %+v", m.ID, m)
		}
		if m.ShardSteps == 0 || m.ShardSteps > uint64(m.EngineShards)*m.Windows || m.ShardSteps > sum {
			t.Fatalf("%s: %d shard steps over %d windows of %d shards running %d shard events",
				m.ID, m.ShardSteps, m.Windows, m.EngineShards, sum)
		}
	}
	if regs, _ := Compare(full, full, 0.15); len(regs) != 0 {
		t.Fatalf("self-compare of a sharded report regressed: %v", regs)
	}
}

// TestConservationGate: broken handoff or event accounting on a sharded
// report fails Compare with zero tolerance, independent of rates.
func TestConservationGate(t *testing.T) {
	m := Metrics{
		ID: "x", EngineWorkers: 2, NSPerEvent: 1,
		EngineStats: engine{Events: 100, ControlEvents: 10, ShardEvents: shards(50, 40),
			EngineShards: 2, HandoffsSent: 7, HandoffsRecv: 7},
	}
	base := &Report{Scenarios: []Metrics{m}}
	if regs, _ := Compare(base, &Report{Scenarios: []Metrics{m}}, 0.15); len(regs) != 0 {
		t.Fatalf("intact conservation flagged: %v", regs)
	}
	bad := m
	bad.HandoffsRecv = 6
	bad.ShardEvents = shards(50, 39)
	regs, _ := Compare(base, &Report{Scenarios: []Metrics{bad}}, 0.15)
	if len(regs) != 2 {
		t.Fatalf("want 2 conservation regressions, got %v", regs)
	}
	// Window accounting (full reports): between zero and Shards shards are
	// stepped per window, each running at least one event.
	full := m
	full.Batches, full.Windows, full.ShardSteps = 60, 10, 15
	for _, tc := range []struct {
		steps uint64
		want  int
	}{{15, 0}, {20, 0}, {21, 1}, {0, 1}} {
		c := full
		c.ShardSteps = tc.steps
		if regs, _ := Compare(base, &Report{Scenarios: []Metrics{c}}, 0.15); len(regs) != tc.want {
			t.Errorf("%d shard steps over 10 windows of 2 shards: want %d regressions, got %v", tc.steps, tc.want, regs)
		}
	}
	c := full
	c.ShardEvents, c.ControlEvents, c.ShardSteps = shards(8, 4), 88, 13
	if regs, _ := Compare(base, &Report{Scenarios: []Metrics{c}}, 0.15); len(regs) != 1 {
		t.Errorf("13 shard steps running 12 shard events: want 1 regression, got %v", regs)
	}
}

// shards fills the fixed per-region array from a short list.
func shards(v ...uint64) (out [len(engine{}.ShardEvents)]uint64) {
	copy(out[:], v)
	return out
}

// setCounter stores v in the named EngineStats field by reflection
// (v·(i+1) in element i of an array counter).
func setCounter(s *engine, field string, v uint64) {
	f := reflect.ValueOf(s).Elem().FieldByName(field)
	set := func(f reflect.Value, v uint64) {
		if f.CanUint() {
			f.SetUint(v)
		} else {
			f.SetInt(int64(v))
		}
	}
	if f.Kind() != reflect.Array {
		set(f, v)
		return
	}
	for i := 0; i < f.Len(); i++ {
		set(f.Index(i), v*uint64(i+1))
	}
}

// TestCounterTable: the EngineStats field tags are the only place a
// counter lives. Every field has exactly one rule, and for each field
// Add applies the declared merge, the JSON round trip through Metrics
// keeps it under its report key, Strip drops it iff it is a diagnostic,
// and Compare flags a one-off drift iff it is gated exact.
func TestCounterTable(t *testing.T) {
	rules := experiments.Counters()
	typ := reflect.TypeOf(engine{})
	if len(rules) != typ.NumField() {
		t.Fatalf("%d rules for %d EngineStats fields", len(rules), typ.NumField())
	}
	// Zero counters vanish from the report, so BENCH_engine.json stays
	// byte-stable for fault-free serial scenarios.
	zero, err := json.Marshal(Metrics{ID: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"id":"x","title":"","runs":0,"events":0,"packets_sent":0,"packets_delivered":0}`; string(zero) != want {
		t.Fatalf("zero metrics encode as %s, want %s", zero, want)
	}
	for i := 0; i < typ.NumField(); i++ {
		field, c := typ.Field(i).Name, rules[i]
		if key, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ","); c.Name != key {
			t.Fatalf("rule %d is for %q, field %s encodes as %q", i, c.Name, field, key)
		}
		var a, b, want engine
		setCounter(&a, field, 500)
		setCounter(&b, field, 300)
		setCounter(&want, field, 800)
		if c.Max {
			want = a
		}
		sum := a
		sum.Add(b)
		if sum != want {
			t.Errorf("%s: Add gives %+v, want %+v under max=%v", field, sum, want, c.Max)
		}

		enc, err := json.Marshal(Metrics{ID: "x", EngineStats: a})
		if err != nil {
			t.Fatal(err)
		}
		var keys map[string]json.RawMessage
		var back Metrics
		if err := json.Unmarshal(enc, &keys); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatal(err)
		}
		if _, ok := keys[c.Name]; !ok || back.EngineStats != a {
			t.Errorf("%s: JSON round trip under key %q lost it: %s", field, c.Name, enc)
		}

		stripped := (&Report{Scenarios: []Metrics{{ID: "x", EngineStats: a}}}).Strip().Scenarios[0].EngineStats
		if gone := stripped == (engine{}); gone != c.Diagnostic {
			t.Errorf("%s: dropped by Strip = %v, diagnostic = %v", field, gone, c.Diagnostic)
		}

		for _, fresh := range []uint64{499, 501} {
			var f engine
			setCounter(&f, field, fresh)
			regs, _ := Compare(
				&Report{Scenarios: []Metrics{{ID: "x", Runs: 1, EngineStats: a}}},
				&Report{Scenarios: []Metrics{{ID: "x", Runs: 1, EngineStats: f}}}, 0.15)
			drift := false
			for _, r := range regs {
				drift = drift || r.Metric == c.Name+" drift"
			}
			if drift != c.Exact {
				t.Errorf("%s: %d against a baseline of 500 flagged as drift = %v, exact = %v", field, fresh, drift, c.Exact)
			}
		}
	}
	// Add runs once per run inside bench/'s measured passes.
	var acc engine
	sample := engine{Events: 1, ReelectNS: 2, ShardEvents: shards(3, 4)}
	if n := testing.AllocsPerRun(100, func() { acc.Add(sample) }); n != 0 {
		t.Errorf("EngineStats.Add allocates %v times per call", n)
	}
}

// TestWorkerCountStripIdentity is the report-level determinism contract:
// the deterministic form of a measurement does not depend on how many
// workers the seeds were fanned over (CI repeats it across processes
// with cmp).
func TestWorkerCountStripIdentity(t *testing.T) {
	sel := []string{"1", "15", SessionID}
	one := mustEncode(t, measure(t, sel, sweep.Config{Seeds: 3, Workers: 1, Base: 1}).Strip())
	two := mustEncode(t, measure(t, sel, sweep.Config{Seeds: 3, Workers: 2, Base: 1}).Strip())
	if string(one) != string(two) {
		t.Fatalf("-workers 1 and -workers 2 disagree in deterministic form:\n%s\nvs\n%s", one, two)
	}
}
