package experiments

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

func init() {
	registerSpec("12", Figure12Spec, figure12)
	registerFamily("13", "Responsiveness to changes in the RTT", figure13Members, figure13)
}

// Figure12Spec declares the 1000-receiver RTT-measurement scenario: a
// modest dumbbell bottleneck (perfectly correlated loss), receiver tails
// with randomised 9..49 ms one-way delay, and a 2 s valid-RTT sampler.
func Figure12Spec() *scenario.Spec {
	return &scenario.Spec{
		Name:  "figure12",
		Title: "Rate of initial RTT measurements (1000 receivers)",
		Topology: scenario.Topology{Kind: scenario.Dumbbell,
			Core: scenario.LinkP{BW: 1 * mbit, Delay: 20 * sim.Millisecond, Queue: 30}},
		Pop: &scenario.Population{
			Count:  1000,
			Parent: scenario.AttachPoint(0),
			// A FastHop whose one-way delay is drawn from 9..49 ms =>
			// link RTTs ~60..140 ms.
			Jitter: &scenario.Jitter{MinMs: 9, SpanMs: 41},
		},
		Steps: []scenario.Step{{Sample: &scenario.SampleSpec{
			Name: "receivers with valid RTT", What: scenario.SampleValidRTT, Every: 2 * sim.Second}}},
		Duration: 200 * sim.Second,
	}
}

// figure12 reports how many of 1000 receivers behind a single bottleneck
// (perfectly correlated loss — the worst case for RTT measurement,
// because every receiver keeps wanting to report) have obtained a valid
// RTT measurement over time. Link RTTs vary between 60 and 140 ms; the
// initial RTT is 500 ms.
func figure12(sc *scenario.Scenario) *Result {
	counts := sc.Samples[0]

	res := &Result{}
	res.Series = append(res.Series, counts)
	res.Notes = append(res.Notes, fmt.Sprintf(
		"valid-RTT receivers after 50s: %.0f, 100s: %.0f, 200s: %.0f (paper: ~700 at 200s)",
		counts.MeanBetween(48*sim.Second, 52*sim.Second),
		counts.MeanBetween(98*sim.Second, 102*sim.Second),
		counts.MeanBetween(196*sim.Second, 200*sim.Second)))
	return res
}

// Figure 13's points: group sizes, and instants of the RTT change.
var (
	rttGroups      = []int{40, 200}
	rttChangeTimes = []sim.Time{0, 10 * sim.Second, 20 * sim.Second, 40 * sim.Second, 80 * sim.Second}
)

// familySeeds is how many members, at spaced seed offsets, each point of
// figures 13 and 14 averages, so no single run's luck dominates it.
const familySeeds = 3

// figure13Members declares, for each group size n and change instant tc,
// an equal-loss star of n receivers with 28 ms tail delays whose receiver
// 0's tail delay rises to 148 ms (one way) at tc. A member stops at the
// first check after tc at which receiver 0 is CLR, or at tc + 200 s.
func figure13Members() []Member {
	var ms []Member
	for _, n := range rttGroups {
		for _, tc := range rttChangeTimes {
			spec := &scenario.Spec{
				Name:     fmt.Sprintf("figure13-n%d", n),
				Title:    "Responsiveness to changes in the RTT",
				Topology: scenario.Topology{Kind: scenario.Star},
				Pop: &scenario.Population{Count: n, Parent: scenario.AttachPoint(0),
					Hop: scenario.LossyHop(28*sim.Millisecond, 0.02)},
				Events: []scenario.Event{
					scenario.SetDelayEvent(tc, scenario.SiteLink(0, 0, false), 148*sim.Millisecond)},
				Duration: tc + 200*sim.Second,
			}
			stop := func(sc *scenario.Scenario, now sim.Time) bool {
				return now > tc && sc.Sess.Sender.CLR() == 0
			}
			for k := range int64(familySeeds) {
				ms = append(ms, Member{Spec: spec, Seed: 1000*k + int64(n), Stop: stop})
			}
		}
	}
	return ms
}

// figure13 reports how long TFMCC needs to find a receiver whose RTT
// suddenly increases, among n receivers with independent equal loss. The
// x axis is the instant tc of the RTT change; the y value the delay until
// that receiver becomes CLR, the end of each member's run less tc.
func figure13(runs []MemberRun) *Result {
	res := &Result{}
	for _, n := range rttGroups {
		s := &stats.Series{Name: fmt.Sprintf("%d receivers", n)}
		for _, tc := range rttChangeTimes {
			var sum float64
			for _, r := range runs[:familySeeds] {
				sum += (r.End - tc).Seconds()
			}
			runs = runs[familySeeds:]
			s.Add(tc, sum/familySeeds)
		}
		res.Series = append(res.Series, s)
	}
	res.Notes = append(res.Notes,
		"y = delay (s) until the high-RTT receiver is selected as CLR",
		"the paper's 1000-receiver curve is not reproduced (ROADMAP item 6)")
	return res
}
