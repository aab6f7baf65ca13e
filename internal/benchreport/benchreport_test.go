package benchreport

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"
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
	for i, it := range plan {
		if it.Seq != i {
			t.Fatalf("item %d (%s) has seq %d", i, it.ID, it.Seq)
		}
		if it.Cost <= 0 {
			t.Fatalf("item %s has no cost weight", it.ID)
		}
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

func TestShardPartitionsDisjointAndComplete(t *testing.T) {
	plan, err := NewPlan(nil, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 3, 4, 5, 7, len(plan), len(plan) + 3} {
		seen := map[int]string{}
		for i := 1; i <= n; i++ {
			items, err := Shard(plan, i, n)
			if err != nil {
				t.Fatal(err)
			}
			last := -1
			for _, it := range items {
				if prev, dup := seen[it.Seq]; dup {
					t.Fatalf("n=%d: %s in shards %s and %d", n, it.ID, prev, i)
				}
				seen[it.Seq] = fmt.Sprint(i)
				if it.Seq <= last {
					t.Fatalf("n=%d shard %d not in plan order", n, i)
				}
				last = it.Seq
			}
		}
		if len(seen) != len(plan) {
			t.Fatalf("n=%d: %d of %d items covered", n, len(seen), len(plan))
		}
	}
}

func TestShardBalancesCost(t *testing.T) {
	plan, err := NewPlan(nil, true)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	maxCost := 0.0
	for _, it := range plan {
		total += it.Cost
		if it.Cost > maxCost {
			maxCost = it.Cost
		}
	}
	const n = 3
	for i := 1; i <= n; i++ {
		items, err := Shard(plan, i, n)
		if err != nil {
			t.Fatal(err)
		}
		load := 0.0
		for _, it := range items {
			load += it.Cost
		}
		// Greedy LPT keeps every shard within one max-item of the mean.
		if load > total/n+maxCost {
			t.Fatalf("shard %d/%d load %.1f exceeds mean %.1f + max item %.1f",
				i, n, load, total/n, maxCost)
		}
	}
}

func TestShardErrors(t *testing.T) {
	plan, _ := NewPlan(nil, true)
	for _, bad := range [][2]int{{0, 3}, {4, 3}, {1, 0}} {
		if _, err := Shard(plan, bad[0], bad[1]); err == nil {
			t.Fatalf("Shard(%d, %d) must error", bad[0], bad[1])
		}
	}
	for _, spec := range []string{"", "x", "3", "0/2", "3/2", "-1/2", "2/3junk", "2/3/5", "1 /2"} {
		if _, _, err := ParseShardSpec(spec); err == nil {
			t.Fatalf("ParseShardSpec(%q) must error", spec)
		}
	}
}

func TestSeedRange(t *testing.T) {
	for _, c := range []struct {
		total, n int
		bases    []int64
		counts   []int
	}{
		{4, 2, []int64{1, 3}, []int{2, 2}},
		{5, 2, []int64{1, 4}, []int{3, 2}},
		{7, 3, []int64{1, 4, 6}, []int{3, 2, 2}},
		{3, 3, []int64{1, 2, 3}, []int{1, 1, 1}},
	} {
		for i := 1; i <= c.n; i++ {
			base, count, err := SeedRange(c.total, i, c.n)
			if err != nil {
				t.Fatal(err)
			}
			if base != c.bases[i-1] || count != c.counts[i-1] {
				t.Fatalf("SeedRange(%d, %d, %d) = (%d, %d), want (%d, %d)",
					c.total, i, c.n, base, count, c.bases[i-1], c.counts[i-1])
			}
		}
	}
	if _, _, err := SeedRange(2, 1, 3); err == nil {
		t.Fatal("more fragments than seeds must error")
	}
	if _, _, err := SeedRange(4, 0, 2); err == nil {
		t.Fatal("shard 0 must error")
	}
}

// measureSeedShard runs the cheap selection over one seed sub-range.
func measureSeedShard(t *testing.T, shard, n, totalSeeds int) *Report {
	t.Helper()
	plan, err := NewPlan(cheapOnly, true)
	if err != nil {
		t.Fatal(err)
	}
	base, count, err := SeedRange(totalSeeds, shard, n)
	if err != nil {
		t.Fatal(err)
	}
	rep := MeasureOpts(plan, plan, Options{
		Seeds: count, SeedBase: base, TotalSeeds: totalSeeds, Workers: 1,
		SeedShard: fmt.Sprintf("%d/%d", shard, n),
	}, io.Discard)
	return rep
}

// TestSeedMergeByteIdentical is the seed-sharding acceptance property:
// merging the whole plan measured over disjoint seed sub-ranges
// reproduces the full-range report byte-for-byte in deterministic form.
func TestSeedMergeByteIdentical(t *testing.T) {
	const totalSeeds = 4
	plan, err := NewPlan(cheapOnly, true)
	if err != nil {
		t.Fatal(err)
	}
	full := MeasureOpts(plan, plan, Options{Seeds: totalSeeds, Workers: 1}, io.Discard)
	want, err := full.Strip().Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 3} {
		frags := make([]*Report, n)
		for i := 1; i <= n; i++ {
			frags[i-1] = measureSeedShard(t, i, n, totalSeeds)
		}
		frags[0], frags[n-1] = frags[n-1], frags[0] // order must not matter
		merged, err := Merge(frags)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(merged.Fragments) != n {
			t.Fatalf("n=%d: merged report records %d fragments", n, len(merged.Fragments))
		}
		got, err := merged.Strip().Encode()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("n=%d: seed-merged report differs from full-range run:\n%s\nvs\n%s", n, got, want)
		}
	}
}

func TestSeedMergeValidation(t *testing.T) {
	a := measureSeedShard(t, 1, 2, 4)
	b := measureSeedShard(t, 2, 2, 4)
	if _, err := Merge([]*Report{a}); err == nil {
		t.Fatal("incomplete seed fragment set must error")
	}
	if _, err := Merge([]*Report{a, a}); err == nil {
		t.Fatal("duplicate seed shard must error")
	}
	scen := measure(t, 1, 2)
	if _, err := Merge([]*Report{a, scen}); err == nil {
		t.Fatal("mixing seed and scenario fragments must error")
	}
	gap := *b
	gap.SeedBase = 4 // pretends to start one seed late
	if _, err := Merge([]*Report{a, &gap}); err == nil {
		t.Fatal("non-chaining seed ranges must error")
	}
	merged, err := Merge([]*Report{b, a})
	if err != nil {
		t.Fatal(err)
	}
	if merged.SeedShard != "" || merged.SeedBase != 0 {
		t.Fatalf("merged report still carries seed-shard identity: %q %d", merged.SeedShard, merged.SeedBase)
	}
	if merged.Seeds != 4 {
		t.Fatalf("merged seeds = %d, want 4", merged.Seeds)
	}
}

// measure runs a real (small) measurement of the cheap selection,
// optionally as one shard of n.
func measure(t *testing.T, shard, n int) *Report {
	t.Helper()
	plan, err := NewPlan(cheapOnly, true)
	if err != nil {
		t.Fatal(err)
	}
	items := plan
	if n > 0 {
		items, err = Shard(plan, shard, n)
		if err != nil {
			t.Fatal(err)
		}
	}
	rep := MeasureOpts(items, plan, Options{Seeds: 2, Workers: 1}, io.Discard)
	if n > 0 {
		rep.Shard = fmt.Sprintf("%d/%d", shard, n)
	}
	return rep
}

// TestMergeByteIdentical is the acceptance property: for any shard count,
// merging the (shuffled) fragments reproduces the unsharded report
// byte-for-byte once timing-dependent fields are stripped.
func TestMergeByteIdentical(t *testing.T) {
	unsharded, err := measure(t, 0, 0).Strip().Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 3, 5} {
		frags := make([]*Report, n)
		for i := 1; i <= n; i++ {
			frags[i-1] = measure(t, i, n)
		}
		// Shuffle deterministically: merge order must not matter.
		for i := range frags {
			j := (i*7 + 3) % len(frags)
			frags[i], frags[j] = frags[j], frags[i]
		}
		merged, err := Merge(frags)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got, err := merged.Strip().Encode()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(unsharded) {
			t.Fatalf("n=%d: merged report differs from unsharded run:\n%s\nvs\n%s",
				n, got, unsharded)
		}
	}
}

func TestMergeValidation(t *testing.T) {
	a := measure(t, 1, 2)
	b := measure(t, 2, 2)

	if _, err := Merge(nil); err == nil {
		t.Fatal("empty fragment set must error")
	}
	if _, err := Merge([]*Report{a}); err == nil {
		t.Fatal("incomplete fragment set must error")
	}
	if _, err := Merge([]*Report{a, a}); err == nil {
		t.Fatal("duplicate shard must error")
	}
	full := measure(t, 0, 0)
	if _, err := Merge([]*Report{full, b}); err == nil {
		t.Fatal("fragment without shard spec must error")
	}
	seeds := *a
	seeds.Seeds++
	if _, err := Merge([]*Report{&seeds, b}); err == nil {
		t.Fatal("header mismatch must error")
	}
	// Fragments of two different -only selections must not recombine,
	// even when their sizes and seq coverage happen to line up.
	other := *a
	other.PlanIDs = append([]string{"figureX"}, a.PlanIDs[1:]...)
	if _, err := Merge([]*Report{&other, b}); err == nil {
		t.Fatal("differing plan selections must error")
	}
	if len(a.Scenarios) == 0 {
		t.Fatal("shard 1/2 unexpectedly empty")
	}
	tampered := *a
	tampered.Scenarios = a.Scenarios[1:]
	if _, err := Merge([]*Report{&tampered, b}); err == nil {
		t.Fatal("missing scenario must error")
	}

	merged, err := Merge([]*Report{b, a})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Shard != "" {
		t.Fatalf("merged report still carries shard %q", merged.Shard)
	}
	if len(merged.Scenarios) != merged.PlanSize {
		t.Fatalf("merged %d scenarios, plan %d", len(merged.Scenarios), merged.PlanSize)
	}
}

func TestCompareGatesRegressions(t *testing.T) {
	mk := func(events uint64, allocs float64) *Report {
		return &Report{Seeds: 4, Scenarios: []Metrics{
			{ID: "figure9", Runs: 4, Events: events, PacketsSent: 700, PacketsDeliv: 690,
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
	pkts.Scenarios[0].PacketsDeliv--
	if regs, _ := Compare(base, pkts, 0.15); len(regs) != 2 {
		t.Fatalf("packet counter drift not gated on both counters: %v", regs)
	}
	// Other seeds (count, base) or another engine are another universe:
	// counters are not comparable, which is a note, not a failure.
	for name, mut := range map[string]func(*Report){
		"seed count": func(r *Report) { r.Scenarios[0].Runs = 2 },
		"seed base":  func(r *Report) { r.SeedBase = 5 },
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
				ID: fmt.Sprintf("figure%d", 9+i), Runs: 4, Events: 1000, NSPerEvent: ns, AllocsPerEvt: 0.01,
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
	rep := measure(t, 0, 0)
	s := rep.Strip()
	if !s.Deterministic || s.Generated != "" {
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

// TestRecoveryFieldsJSONAndMerge pins the recovery metrics' report
// contract: zero values vanish from the JSON (BENCH_engine.json stays
// byte-stable for fault-free scenarios), and a seed-range merge sums the
// episode counts while taking the worst (max) episode durations.
func TestRecoveryFieldsJSONAndMerge(t *testing.T) {
	zero, err := json.Marshal(Metrics{ID: "x"})
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"clr_losses", "reelections", "rate_recoveries", "reelect_ns", "rate_recover_ns"} {
		if strings.Contains(string(zero), field) {
			t.Errorf("zero recovery field %q serialised: %s", field, zero)
		}
	}

	frag := func(shard string, losses, reelectNS int64) *Report {
		return &Report{
			Seeds: 4, SeedShard: shard, SeedBase: map[string]int64{"1/2": 1, "2/2": 3}[shard],
			Scenarios: []Metrics{{
				ID: "x", Runs: 2,
				CLRLosses: losses, Reelections: losses, RateRecoveries: losses,
				ReelectNS: reelectNS, RateRecoverNS: reelectNS + 5,
			}},
		}
	}
	merged, err := Merge([]*Report{frag("1/2", 2, 100), frag("2/2", 1, 400)})
	if err != nil {
		t.Fatal(err)
	}
	m := merged.Scenarios[0]
	if m.CLRLosses != 3 || m.Reelections != 3 || m.RateRecoveries != 3 {
		t.Errorf("merged counts = %d/%d/%d, want 3/3/3", m.CLRLosses, m.Reelections, m.RateRecoveries)
	}
	if m.ReelectNS != 400 || m.RateRecoverNS != 405 {
		t.Errorf("merged maxima = %d/%d, want 400/405", m.ReelectNS, m.RateRecoverNS)
	}
}

// measure2D runs one cell of a scenario-shard x seed-shard matrix.
func measure2D(t *testing.T, sel []string, shard, n, sshard, sn, totalSeeds, engineWorkers int) *Report {
	t.Helper()
	plan, err := NewPlan(sel, true)
	if err != nil {
		t.Fatal(err)
	}
	items, err := Shard(plan, shard, n)
	if err != nil {
		t.Fatal(err)
	}
	base, count, err := SeedRange(totalSeeds, sshard, sn)
	if err != nil {
		t.Fatal(err)
	}
	rep := MeasureOpts(items, plan, Options{
		Seeds: count, SeedBase: base, TotalSeeds: totalSeeds, Workers: 1,
		SeedShard:     fmt.Sprintf("%d/%d", sshard, sn),
		EngineWorkers: engineWorkers,
	}, io.Discard)
	rep.Shard = fmt.Sprintf("%d/%d", shard, n)
	return rep
}

// Test2DMergeByteIdentical: a scenario-shard x seed-shard matrix merges
// back to the unsharded report byte-for-byte in deterministic form.
func Test2DMergeByteIdentical(t *testing.T) {
	const totalSeeds = 4
	plan, err := NewPlan(cheapOnly, true)
	if err != nil {
		t.Fatal(err)
	}
	full := MeasureOpts(plan, plan, Options{Seeds: totalSeeds, Workers: 1}, io.Discard)
	want, err := full.Strip().Encode()
	if err != nil {
		t.Fatal(err)
	}
	var frags []*Report
	for s := 1; s <= 2; s++ {
		for j := 1; j <= 2; j++ {
			frags = append(frags, measure2D(t, cheapOnly, s, 2, j, 2, totalSeeds, 0))
		}
	}
	frags[0], frags[3] = frags[3], frags[0] // order must not matter
	merged, err := Merge(frags)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Shard != "" || merged.SeedShard != "" {
		t.Fatalf("merged report keeps shard identity: %q %q", merged.Shard, merged.SeedShard)
	}
	got, err := merged.Strip().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("2-D merged report differs from unsharded run:\n%s\nvs\n%s", got, want)
	}
	// Dimensionality must be uniform across fragments.
	if _, err := Merge([]*Report{frags[0], measure(t, 1, 2)}); err == nil {
		t.Fatal("mixing 2-D and scenario-only fragments must error")
	}
}

// TestShardedMeasurement: -engineworkers measurements carry per-shard
// counters that satisfy conservation, survive seed merges and pass the
// gate.
func TestShardedMeasurement(t *testing.T) {
	sel := []string{"flashcrowd", "wireless"}
	const totalSeeds = 2
	plan, err := NewPlan(sel, false)
	if err != nil {
		t.Fatal(err)
	}
	full := MeasureOpts(plan, plan, Options{Seeds: totalSeeds, Workers: 1, EngineWorkers: 2}, io.Discard)
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
	// Seed fragments of the sharded measurement merge byte-identically.
	want, err := full.Strip().Encode()
	if err != nil {
		t.Fatal(err)
	}
	mk := func(sshard int) *Report {
		base, count, err := SeedRange(totalSeeds, sshard, 2)
		if err != nil {
			t.Fatal(err)
		}
		return MeasureOpts(plan, plan, Options{
			Seeds: count, SeedBase: base, TotalSeeds: totalSeeds, Workers: 1,
			SeedShard: fmt.Sprintf("%d/2", sshard), EngineWorkers: 2,
		}, io.Discard)
	}
	merged, err := Merge([]*Report{mk(2), mk(1)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := merged.Strip().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("seed-merged sharded report differs from full run:\n%s\nvs\n%s", got, want)
	}
	// The window diagnostics are stripped from the identity above but sum
	// across seed fragments all the same.
	for i, m := range merged.Scenarios {
		if f := full.Scenarios[i]; m.Windows != f.Windows || m.ShardSteps != f.ShardSteps {
			t.Errorf("%s: merged windows/shard steps %d/%d, full run %d/%d", m.ID, m.Windows, m.ShardSteps, f.Windows, f.ShardSteps)
		}
	}
}

// TestConservationGate: broken handoff or event accounting on a sharded
// report fails Compare with zero tolerance, independent of rates.
func TestConservationGate(t *testing.T) {
	m := Metrics{
		ID: "x", Events: 100, ControlEvents: 10, ShardEvents: []uint64{50, 40},
		EngineShards: 2, EngineWorkers: 2, HandoffsSent: 7, HandoffsRecv: 7,
		NSPerEvent: 1,
	}
	base := &Report{Scenarios: []Metrics{m}}
	if regs, _ := Compare(base, &Report{Scenarios: []Metrics{m}}, 0.15); len(regs) != 0 {
		t.Fatalf("intact conservation flagged: %v", regs)
	}
	bad := m
	bad.HandoffsRecv = 6
	bad.ShardEvents = []uint64{50, 39}
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
	c.ShardEvents, c.ControlEvents, c.ShardSteps = []uint64{8, 4}, 88, 13
	if regs, _ := Compare(base, &Report{Scenarios: []Metrics{c}}, 0.15); len(regs) != 1 {
		t.Errorf("13 shard steps running 12 shard events: want 1 regression, got %v", regs)
	}
}
