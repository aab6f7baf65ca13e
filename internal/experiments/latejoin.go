package experiments

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
)

func init() {
	registerSpec("15", Figure15Spec, lateJoin)
	registerSpec("16", Figure16Spec, lateJoin)
}

// lateJoinSpec declares the figure 15/16 scenario: an eight-member
// session plus 7 TCP flows on an 8 Mbit/s dumbbell, and a 200 Kbit/s
// tail circuit whose receiver joins from t=50s to t=100s (with an
// optional competing TCP flow on the tail for figure 16).
func lateJoinSpec(name, title string, tcpOnSlowLink bool) *scenario.Spec {
	var steps []scenario.Step
	for i := 0; i < 8; i++ {
		steps = append(steps,
			scenario.Step{Site: &scenario.SiteSpec{Parent: scenario.AttachPoint(0), Hops: []scenario.Hop{scenario.FastHop()}}},
			scenario.Step{Recv: &scenario.RecvSpec{At: scenario.Site(i), Meter: scenario.MeterFirst(i, "TFMCC flow")}})
	}
	var tcps []string
	for i := 0; i < 7; i++ {
		n := fmt.Sprintf("tcp%d", i)
		steps = append(steps, scenario.Step{TCP: &scenario.TCPSpec{
			Name: n, From: scenario.Core(0), To: scenario.Core(1),
			Port: simnet.Port(10 + i), Meter: n}})
		tcps = append(tcps, n)
	}
	steps = append(steps, scenario.Step{Agg: &scenario.AggSpec{Name: "aggregated TCP flows", Flows: tcps}})

	// The slow tail: 200 Kbit/s behind the right router.
	steps = append(steps, scenario.Step{Site: &scenario.SiteSpec{
		Parent: scenario.AttachPoint(0),
		Hops: []scenario.Hop{
			scenario.FastHop(),
			scenario.SymHop(scenario.LinkP{BW: 200 * kbit, Delay: 10 * sim.Millisecond, Queue: 12}),
		}}})
	if tcpOnSlowLink {
		steps = append(steps, scenario.Step{TCP: &scenario.TCPSpec{
			Name: "TCP on 200KBit/s link", From: scenario.SiteMid(8), To: scenario.Site(8),
			Port: 50, Meter: "TCP on 200KBit/s link"}})
	}
	steps = append(steps, scenario.Step{Recv: &scenario.RecvSpec{
		At: scenario.Site(8), JoinAt: 50 * sim.Second, LeaveAt: 100 * sim.Second}})

	return &scenario.Spec{
		Name:  name,
		Title: title,
		Topology: scenario.Topology{Kind: scenario.Dumbbell,
			Core: scenario.LinkP{BW: 8 * mbit, Delay: 20 * sim.Millisecond, Queue: 80}},
		Steps:    steps,
		Duration: 140 * sim.Second,
	}
}

// Figure15Spec declares the late-join scenario.
func Figure15Spec() *scenario.Spec {
	return lateJoinSpec("figure15", "Late-join of low-rate receiver", false)
}

// Figure16Spec is Figure15Spec with a competing TCP on the slow tail.
func Figure16Spec() *scenario.Spec {
	return lateJoinSpec("figure16", "Additional TCP flow on the slow link", true)
}

// lateJoin reports the late-join experiment: an eight-member TFMCC
// session shares an 8 Mbit/s link with 7 TCP flows (fair rate 1 Mbit/s).
// From t=50s to t=100s an extra receiver joins behind a 200 Kbit/s
// bottleneck; TFMCC must adopt it as CLR within a few seconds and recover
// after it leaves. In figure 16 a TCP flow shares that tail for the whole
// run: it inevitably times out when the link floods at join time, but
// both recover and share the tail fairly.
//
// The run collects the rate at receiver 0, one series per TCP on the
// dumbbell, figure 16's TCP on the slow tail and the dumbbell TCPs'
// aggregate.
func lateJoin(runs []MemberRun) *Result {
	r := runs[0]
	mT, agg := r.Series[0], r.Series[len(r.Series)-1]
	var slow *stats.Series
	if r.Flows > 7 { // figure 16's eighth flow
		slow = r.Series[r.Flows]
	}
	tcpOnSlowLink := slow != nil

	res := &Result{}
	res.Series = append(res.Series, agg, mT)
	if tcpOnSlowLink {
		res.Series = append(res.Series, slow)
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("TFMCC before join (20-50s): %.0f Kbit/s (fair: 1000)",
			mT.MeanBetween(20*sim.Second, 50*sim.Second)),
		fmt.Sprintf("TFMCC during slow join (60-100s): %.0f Kbit/s (tail: 200%s)",
			mT.MeanBetween(60*sim.Second, 100*sim.Second),
			map[bool]string{true: ", shared with TCP", false: ""}[tcpOnSlowLink]),
		fmt.Sprintf("TFMCC after leave (120-140s): %.0f Kbit/s",
			mT.MeanBetween(120*sim.Second, 140*sim.Second)))
	if tcpOnSlowLink {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"TCP on slow link: before join %.0f, during %.0f, after %.0f Kbit/s",
			slow.MeanBetween(20*sim.Second, 50*sim.Second),
			slow.MeanBetween(60*sim.Second, 100*sim.Second),
			slow.MeanBetween(120*sim.Second, 140*sim.Second)))
	}
	return res
}
