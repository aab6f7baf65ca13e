package experiments

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simnet"
)

func init() {
	registerSpec("9", Figure9Spec, figure9)
	registerSpec("10", Figure10Spec, figure10)
	registerSpec("21", Figure21Spec, figure21)
}

// Figure9Spec declares the figure 9 scenario: one metered TFMCC receiver
// behind the dumbbell plus 15 TCP flows across the bottleneck.
func Figure9Spec() *scenario.Spec {
	steps := []scenario.Step{
		{Site: &scenario.SiteSpec{Parent: scenario.AttachPoint(0), Hops: []scenario.Hop{scenario.FastHop()}}},
		{Recv: &scenario.RecvSpec{At: scenario.Site(0), Meter: "TFMCC"}},
	}
	for i := 0; i < 15; i++ {
		steps = append(steps, scenario.Step{TCP: &scenario.TCPSpec{
			Name: fmt.Sprintf("tcp%d", i), From: scenario.Core(0), To: scenario.Core(1),
			Port: simnet.Port(10 + i), Meter: fmt.Sprintf("TCP %d", i+1)}})
	}
	return &scenario.Spec{
		Name:  "figure9",
		Title: "1 TFMCC and 15 TCP over one 8 Mbit/s bottleneck",
		Topology: scenario.Topology{Kind: scenario.Dumbbell,
			Core: scenario.LinkP{BW: 8 * mbit, Delay: 20 * sim.Millisecond, Queue: 80}},
		Steps:    steps,
		Duration: 200 * sim.Second,
	}
}

// figure9 reports one TFMCC flow against 15 TCP flows over a single
// 8 Mbit/s bottleneck: the TFMCC rate plus two sample TCP rates over
// time. Paper shape: matching means, smoother TFMCC.
func figure9(sc *scenario.Scenario) *Result {
	mT := sc.Recvs[0].Meter

	res := &Result{}
	res.Series = append(res.Series, sc.Flows[0].Meter.Series, sc.Flows[1].Meter.Series, mT.Series)
	var tcpSum float64
	for _, f := range sc.Flows {
		tcpSum += f.Meter.Series.MeanBetween(60*sim.Second, 200*sim.Second)
	}
	tcpMean := tcpSum / 15
	tf := mT.Series.MeanBetween(60*sim.Second, 200*sim.Second)
	res.Notes = append(res.Notes,
		fmt.Sprintf("steady state (60-200s): TFMCC=%.0f Kbit/s, mean TCP=%.0f Kbit/s, ratio=%.2f", tf, tcpMean, tf/tcpMean),
		fmt.Sprintf("smoothness: CoV TFMCC=%.2f vs CoV TCP1=%.2f (paper: TFMCC smoother)",
			mT.Series.CoV(), sc.Flows[0].Meter.Series.CoV()))
	return res
}

// Figure10Spec declares sixteen two-hop tail circuits off a star hub:
// per site one receiver and one TCP flow sharing the 1 Mbit/s tail.
func Figure10Spec() *scenario.Spec {
	var steps []scenario.Step
	for i := 0; i < 16; i++ {
		steps = append(steps,
			scenario.Step{Site: &scenario.SiteSpec{Parent: scenario.AttachPoint(0), Hops: []scenario.Hop{
				scenario.SymHop(scenario.LinkP{Delay: 4 * sim.Millisecond}),
				scenario.SymHop(scenario.LinkP{BW: 1 * mbit, Delay: 16 * sim.Millisecond, Queue: 25}),
			}}},
			scenario.Step{Recv: &scenario.RecvSpec{At: scenario.Site(i), Meter: scenario.MeterFirst(i, "TFMCC")}},
			scenario.Step{TCP: &scenario.TCPSpec{
				Name: fmt.Sprintf("tcp%d", i), From: scenario.SiteMid(i), To: scenario.Site(i),
				Port: simnet.Port(10 + i), Meter: fmt.Sprintf("TCP %d", i+1)}})
	}
	return &scenario.Spec{
		Name:     "figure10",
		Title:    "1 TFMCC vs 16 TCP on sixteen individual 1 Mbit/s bottlenecks",
		Topology: scenario.Topology{Kind: scenario.Star},
		Steps:    steps,
		Duration: 200 * sim.Second,
	}
}

// figure10 reports 16 receivers, each on its own 1 Mbit/s tail circuit
// shared with one TCP flow. The loss-path-multiplicity effect limits
// TFMCC to roughly 70% of TCP's throughput.
func figure10(sc *scenario.Scenario) *Result {
	mT := sc.Recvs[0].Meter

	res := &Result{}
	res.Series = append(res.Series, sc.Flows[0].Meter.Series, sc.Flows[1].Meter.Series, mT.Series)
	var tcpSum float64
	for _, f := range sc.Flows {
		tcpSum += f.Meter.Series.MeanBetween(60*sim.Second, 200*sim.Second)
	}
	tcpMean := tcpSum / 16
	tf := mT.Series.MeanBetween(60*sim.Second, 200*sim.Second)
	res.Notes = append(res.Notes, fmt.Sprintf(
		"steady state: TFMCC=%.0f Kbit/s, mean TCP=%.0f Kbit/s, TFMCC/TCP=%.2f (paper: ~0.70)",
		tf, tcpMean, tf/tcpMean))
	return res
}

// Figure21Spec declares the staircase-congestion scenario: TCP groups of
// 1, 2, 4 and 8 flows start at 50 s intervals, each group aggregated
// into one series.
func Figure21Spec() *scenario.Spec {
	steps := []scenario.Step{
		{Site: &scenario.SiteSpec{Parent: scenario.AttachPoint(0), Hops: []scenario.Hop{scenario.FastHop()}}},
		{Recv: &scenario.RecvSpec{At: scenario.Site(0), Meter: "TFMCC"}},
	}
	groups := []struct {
		at    sim.Time
		count int
	}{{50 * sim.Second, 1}, {100 * sim.Second, 2}, {150 * sim.Second, 4}, {200 * sim.Second, 8}}
	port := 10
	for gi, g := range groups {
		var names []string
		for i := 0; i < g.count; i++ {
			name := fmt.Sprintf("tcp%d-%d", gi, i)
			steps = append(steps, scenario.Step{TCP: &scenario.TCPSpec{
				Name: name, From: scenario.Core(0), To: scenario.Core(1),
				Port: simnet.Port(port), StartAt: g.at, Meter: name}})
			port++
			names = append(names, name)
		}
		steps = append(steps, scenario.Step{Agg: &scenario.AggSpec{
			Name: fmt.Sprintf("TCP group %d (n=%d)", gi+1, g.count), Flows: names}})
	}
	return &scenario.Spec{
		Name:  "figure21",
		Title: "Responsiveness to increased congestion (flow count doubles every 50s)",
		Topology: scenario.Topology{Kind: scenario.Dumbbell,
			Core: scenario.LinkP{BW: 16 * mbit, Delay: 20 * sim.Millisecond, Queue: 120}},
		Steps:    steps,
		Duration: 250 * sim.Second,
	}
}

// figure21 reports one TFMCC flow on a 16 Mbit/s link whose competing
// TCP flows double every 50 s (+1, +2, +4, +8). Both should settle at
// roughly half the bandwidth of the previous interval.
func figure21(sc *scenario.Scenario) *Result {
	mT := sc.Recvs[0].Meter

	res := &Result{}
	res.Series = append(res.Series, mT.Series)
	res.Series = append(res.Series, sc.Aggs...)
	for i, win := range [][2]sim.Time{
		{10 * sim.Second, 50 * sim.Second}, {60 * sim.Second, 100 * sim.Second},
		{110 * sim.Second, 150 * sim.Second}, {160 * sim.Second, 200 * sim.Second},
		{210 * sim.Second, 250 * sim.Second}} {
		res.Notes = append(res.Notes, fmt.Sprintf("interval %d: TFMCC mean %.0f Kbit/s",
			i+1, mT.Series.MeanBetween(win[0], win[1])))
	}
	return res
}
