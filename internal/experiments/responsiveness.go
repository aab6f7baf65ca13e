package experiments

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simnet"
)

func init() {
	registerSpec("11", Figure11Spec, joinLeave)
	registerSpec("20", Figure20Spec, joinLeave)
}

// joinLeaveSpec declares the figure 11/20 churn script: per-receiver
// lossy star tails with one reference TCP each; receiver 0 stays for the
// whole run, the rest join 50 s apart and leave in reverse order.
func joinLeaveSpec(name, title string, loss []float64, delay []sim.Time) *scenario.Spec {
	var steps []scenario.Step
	for i := range loss {
		steps = append(steps, scenario.Step{Site: &scenario.SiteSpec{
			Parent: scenario.AttachPoint(0),
			Hops: []scenario.Hop{{
				Down: scenario.LinkP{Delay: delay[i], Loss: loss[i]},
				Up:   scenario.LinkP{Delay: delay[i]},
			}}}})
	}
	for i := range loss {
		steps = append(steps, scenario.Step{TCP: &scenario.TCPSpec{
			Name: fmt.Sprintf("tcp%d", i), From: scenario.AttachPoint(0), To: scenario.Site(i),
			Port: simnet.Port(10 + i), Meter: fmt.Sprintf("TCP %d", i+1)}})
	}
	n := len(loss)
	for i := 0; i < n; i++ {
		r := &scenario.RecvSpec{At: scenario.Site(i), Meter: "TFMCC"}
		if i > 0 {
			r.JoinAt = sim.Time(50+50*i) * sim.Second
			r.LeaveAt = sim.Time(250+50*(n-1-i)) * sim.Second
		}
		steps = append(steps, scenario.Step{Recv: r})
	}
	return &scenario.Spec{
		Name:     name,
		Title:    title,
		Topology: scenario.Topology{Kind: scenario.Star},
		Steps:    steps,
		Duration: 400 * sim.Second,
	}
}

// Figure11Spec declares the join/leave experiment: four receivers with
// loss rates 0.1%, 0.5%, 2.5% and 12.5% (RTT 60 ms) join the session 50 s
// apart and later leave in reverse order. A TCP flow to each receiver
// runs throughout as the fairness reference.
func Figure11Spec() *scenario.Spec {
	return joinLeaveSpec("figure11", "Responsiveness to changes in the loss rate",
		[]float64{0.001, 0.005, 0.025, 0.125},
		[]sim.Time{28 * sim.Millisecond, 28 * sim.Millisecond, 28 * sim.Millisecond, 28 * sim.Millisecond})
}

// Figure20Spec is the same experiment with the loss rate held at 0.5% and
// the one-way tail delays set to 30/60/120/240 ms-equivalent RTTs,
// receivers joining in RTT order.
func Figure20Spec() *scenario.Spec {
	return joinLeaveSpec("figure20", "Responsiveness to network delay",
		[]float64{0.005, 0.005, 0.005, 0.005},
		[]sim.Time{13 * sim.Millisecond, 28 * sim.Millisecond, 58 * sim.Millisecond, 118 * sim.Millisecond})
}

// joinLeave reports figures 11 and 20: every TCP reference and the TFMCC
// rate at receiver 0, with per-phase TFMCC/TCP notes.
func joinLeave(sc *scenario.Scenario) *Result {
	res := &Result{}
	for _, f := range sc.Flows {
		res.Series = append(res.Series, f.Meter.Series)
	}
	// The TFMCC rate as observed at the always-present receiver 0.
	res.Series = append(res.Series, sc.Recvs[0].Meter.Series)
	// Shape notes: mean TFMCC vs mean of the worst-receiver TCP in each
	// phase where that receiver is the CLR.
	phases := []struct {
		name     string
		from, to sim.Time
		tcpIdx   int
	}{
		{"only r0", 40 * sim.Second, 100 * sim.Second, 0},
		{"r0-r1", 120 * sim.Second, 150 * sim.Second, 1},
		{"r0-r2", 170 * sim.Second, 200 * sim.Second, 2},
		{"all", 220 * sim.Second, 250 * sim.Second, 3},
		{"after leaves", 370 * sim.Second, 400 * sim.Second, 0},
	}
	for _, ph := range phases {
		tf := sc.Recvs[0].Meter.Series.MeanBetween(ph.from, ph.to)
		tcp := sc.Flows[ph.tcpIdx].Meter.Series.MeanBetween(ph.from, ph.to)
		ratio := 0.0
		if tcp > 0 {
			ratio = tf / tcp
		}
		res.Notes = append(res.Notes, fmt.Sprintf(
			"phase %-12s TFMCC=%7.0f Kbit/s, limiting TCP=%7.0f Kbit/s, ratio=%.2f",
			ph.name, tf, tcp, ratio))
	}
	return res
}
