package hypothesis

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/sim"
)

func i64(v int64) *int64 { return &v }

// longPartition is the partition preset with the run extended to 300s:
// after total feedback silence the sender has halved down to
// tfmcc.MinRate, and the congestion-avoidance climb back from 125 B/s
// takes on the order of 100s — the preset's 180s run ends mid-ramp on
// unlucky seeds. The extension also exercises the inline-spec workload
// path.
func longPartition() *scenario.Spec {
	sp := scenario.Partition()
	sp.Duration = 300 * sim.Second
	return sp
}

// Suite returns the committed hypothesis suite cmd/tfmcchyp gates CI
// with: three fault presets judged against the recovery behaviour
// sections 4-5 of the paper predict, and four seeded chaos
// workloads asserting the protocol stays sane — rate positive, finite
// and floored at tfmcc.MinRate, no invariant violations — under
// randomized fault schedules. Every hypothesis is deterministic: fixed workload,
// fixed seeds, fixed chaos schedule.
func Suite() []*Hypothesis {
	return []*Hypothesis{
		{
			ID:       "clrfail-reelection",
			Title:    "After the CLR crashes at t=60s the sender re-elects a successor and ramps back",
			Workload: Workload{Scenario: "clrfail"},
			Seeds:    SeedSet{Base: 1, Count: 3},
			Expect: []Expectation{
				{CounterBound: &CounterBound{Counter: "clr_losses", Min: i64(1)}},
				{CLRReelectedBy: &CLRReelectedBy{Within: 45 * sim.Second}},
				{RecoverWithin: &RecoverWithin{
					Series: "sender rate", After: 60 * sim.Second, Within: 50 * sim.Second,
					Frac: 0.5, BaselineFrom: 40 * sim.Second,
				}},
				{NoInvariantViolations: &NoInvariantViolations{}},
			},
		},
		{
			ID:       "partition-heal-recovery",
			Title:    "A 30s core partition drops traffic, and the rate recovers after the heal at t=90s",
			Workload: Workload{Spec: longPartition()},
			Seeds:    SeedSet{Base: 1, Count: 3},
			Expect: []Expectation{
				{CounterBound: &CounterBound{Counter: "unreachable", Min: i64(1)}},
				{RecoverWithin: &RecoverWithin{
					Series: "sender rate", After: 90 * sim.Second, Within: 120 * sim.Second,
					Frac: 0.3, BaselineFrom: 30 * sim.Second, BaselineTo: 60 * sim.Second,
				}},
				{RateFloor: &RateBound{Series: "sender rate", Bound: 100}},
				{NoInvariantViolations: &NoInvariantViolations{}},
			},
		},
		{
			ID:       "corruptfb-tolerance",
			Title:    "A corrupted/duplicated/reordered feedback path neither collapses nor unleashes the rate",
			Workload: Workload{Scenario: "corruptfb"},
			Seeds:    SeedSet{Base: 1, Count: 3},
			Expect: []Expectation{
				{CounterBound: &CounterBound{Counter: "corrupted", Min: i64(1)}},
				{CounterBound: &CounterBound{Counter: "duplicated", Min: i64(1)}},
				{RateFloor: &RateBound{Series: "sender rate", Bound: 100}},
				{RateCeiling: &RateBound{Series: "sender rate", Bound: 5e6}},
				{NoInvariantViolations: &NoInvariantViolations{}},
			},
		},
		chaosSanity("chaos-deeptree-l1", "deeptree", 1, 11, 3),
		chaosSanity("chaos-massleave-l2", "massleave", 2, 7, 2),
		chaosSanity("chaos-partition-l2", "partition", 2, 5, 2),
		chaosSanity("chaos-corruptfb-l3", "corruptfb", 3, 3, 2),
	}
}

// chaosSanity is the shared shape of the chaos hypotheses: under a
// seeded fault schedule of the given level, the sampled sender rate
// stays a positive finite number at or above (near) the tfmcc.MinRate
// floor, and the run-level invariants — rate authorization, CLR liveness,
// packet-pool conservation — hold throughout.
func chaosSanity(id, scenarioID string, level int, chaosSeed int64, seeds int) *Hypothesis {
	return &Hypothesis{
		ID:    id,
		Title: fmt.Sprintf("%s under chaos level %d: rate stays finite and floored, invariants hold", scenarioID, level),
		Workload: Workload{
			Scenario: scenarioID,
			Chaos:    &ChaosPlan{Level: level, Seed: chaosSeed},
		},
		Seeds: SeedSet{Base: 1, Count: seeds},
		Expect: []Expectation{
			// tfmcc.MinRate is 125 B/s; silence halving stops there. The sampled
			// rate passing 100 therefore also proves it never NaNs.
			{RateFloor: &RateBound{Series: "sender rate", Bound: 100}},
			{RateCeiling: &RateBound{Series: "sender rate", Bound: 5e7}},
			{NoInvariantViolations: &NoInvariantViolations{}},
		},
	}
}

// ByID returns the committed-suite hypothesis with the given id.
func ByID(id string) (*Hypothesis, bool) {
	for _, h := range Suite() {
		if h.ID == id {
			return h, true
		}
	}
	return nil, false
}

// SuiteIDs lists the committed suite's hypothesis ids in order.
func SuiteIDs() []string {
	var out []string
	for _, h := range Suite() {
		out = append(out, h.ID)
	}
	return out
}
