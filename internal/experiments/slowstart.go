package experiments

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/sweep"
)

func init() { register("14", "Maximum slowstart rate vs number of receivers", Figure14) }

// Figure14 measures the maximum rate reached during slowstart as a
// function of the receiver-set size, in three settings with a fair rate
// of 1 Mbit/s: TFMCC alone on a 1 Mbit/s link, TFMCC with one competing
// TCP on 2 Mbit/s, and high statistical multiplexing (7 TCPs on
// 8 Mbit/s). Paper shape: alone ≈ 2× bottleneck, decreasing with
// receiver count and competition.
func Figure14(c *RunCtx, seed int64) *Result {
	res := &Result{Figure: "14", Title: "Maximum slowstart rate vs number of receivers"}
	counts := []int{2, 8, 32, 128}
	settings := []struct {
		name   string
		linkBW float64
		numTCP int
		queue  int
	}{
		{"only TFMCC", 1 * mbit, 0, 25},
		{"one competing TCP", 2 * mbit, 1, 35},
		{"high stat. mux.", 8 * mbit, 7, 80},
	}
	for _, cfg := range settings {
		s := &stats.Series{Name: cfg.name}
		for _, n := range counts {
			// Average the peak over a few seeds: a single unlucky early
			// loss otherwise dominates the competing-TCP settings. The
			// sweep runs inline (one worker) so it can share this runner's
			// environment arena.
			mean := sweep.Mean(sweep.Config{Seeds: 3, Base: seed, Step: 100},
				func(_ int, s int64) float64 {
					return maxSlowstartRate(c, n, cfg.linkBW, cfg.numTCP, cfg.queue, s)
				})
			s.Add(sim.FromSeconds(float64(n)), mean*8/1000) // Kbit/s
		}
		res.Series = append(res.Series, s)
	}
	fair := &stats.Series{Name: "Fair Rate"}
	for _, n := range counts {
		fair.Add(sim.FromSeconds(float64(n)), 1000)
	}
	res.Series = append(res.Series, fair)
	res.Notes = append(res.Notes, "x = number of receivers (time column); y = max slowstart rate in Kbit/s")
	return res
}

// slowstartSpec declares one figure 14 sub-run: a dumbbell of the given
// capacity, nRecv fast receiver tails and numTCP competing flows.
func slowstartSpec(nRecv int, bw float64, numTCP, qlen int) *scenario.Spec {
	var steps []scenario.Step
	for i := 0; i < numTCP; i++ {
		n := fmt.Sprintf("tcp%d", i)
		steps = append(steps, scenario.Step{TCP: &scenario.TCPSpec{
			Name: n, From: scenario.Core(0), To: scenario.Core(1),
			Port: simnet.Port(10 + i), Meter: n}})
	}
	return &scenario.Spec{
		Name:  fmt.Sprintf("figure14-n%d-tcp%d", nRecv, numTCP),
		Title: "Maximum slowstart rate vs number of receivers",
		Topology: scenario.Topology{Kind: scenario.Dumbbell,
			Core: scenario.LinkP{BW: bw, Delay: 20 * sim.Millisecond, Queue: qlen}},
		Pop:   &scenario.Population{Count: nRecv, Parent: scenario.AttachPoint(0)},
		Steps: steps,
	}
}

// maxSlowstartRate runs one figure 14 sub-run, scoped under its spec name
// so the figure's 36 sub-runs rewind one environment per spec shape.
func maxSlowstartRate(c *RunCtx, nRecv int, bw float64, numTCP, qlen int, seed int64) float64 {
	spec := slowstartSpec(nRecv, bw, numTCP, qlen)
	defer c.begin(spec.Name)()
	sc := mustScenario(c.build(spec, seed+int64(nRecv)))
	// All flows start together, as in the paper.
	sc.Start()
	sch := sc.Env.Sch
	peak := 0.0
	for sc.Sess.Sender.InSlowstart() && sch.Now() < 120*sim.Second {
		sc.RunUntil(sch.Now() + 100*sim.Millisecond)
		if r := sc.Sess.Sender.Rate(); r > peak {
			peak = r
		}
	}
	return peak
}
