package experiments

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
)

func init() {
	addEntry(Entry{ID: "14", Title: "Maximum slowstart rate vs number of receivers", Members: figure14Members, Report: figure14})
}

// Figure 14's points: three settings with a fair rate of 1 Mbit/s, each
// at four receiver counts.
var (
	slowstartCounts   = []int{2, 8, 32, 128}
	slowstartSettings = []struct {
		name   string
		linkBW float64
		numTCP int
		queue  int
	}{
		{"only TFMCC", 1 * mbit, 0, 25},
		{"one competing TCP", 2 * mbit, 1, 35},
		{"high stat. mux.", 8 * mbit, 7, 80},
	}
)

// figure14Members declares slowstartSpec for every setting and receiver
// count, each member stopping once slowstart is over.
func figure14Members() []Member {
	stop := func(sc *scenario.Scenario, _ sim.Time) bool { return !sc.Sess.Sender.InSlowstart() }
	var ms []Member
	for _, cfg := range slowstartSettings {
		for _, n := range slowstartCounts {
			spec := slowstartSpec(n, cfg.linkBW, cfg.numTCP, cfg.queue)
			for k := range int64(familySeeds) {
				ms = append(ms, Member{Spec: spec, Seed: 100*k + int64(n), Stop: stop})
			}
		}
	}
	return ms
}

// figure14 reports the maximum rate reached during slowstart as a
// function of the receiver-set size — the peak of each member's
// sender-rate samples — in three settings: TFMCC alone on a 1 Mbit/s
// link, TFMCC with one competing TCP on 2 Mbit/s, and high statistical
// multiplexing (7 TCPs on 8 Mbit/s). Paper shape: alone ≈ 2× bottleneck,
// decreasing with receiver count and competition.
func figure14(runs []MemberRun) *Result {
	res := &Result{}
	for _, cfg := range slowstartSettings {
		s := &stats.Series{Name: cfg.name}
		for _, n := range slowstartCounts {
			var sum float64
			for _, r := range runs[:familySeeds] {
				sum += r.Series[len(r.Series)-1].Max() // the sender-rate samples, after the TCP meters
			}
			runs = runs[familySeeds:]
			s.Add(sim.FromSeconds(float64(n)), sum/familySeeds*8/1000) // Kbit/s
		}
		res.Series = append(res.Series, s)
	}
	fair := &stats.Series{Name: "Fair Rate"}
	for _, n := range slowstartCounts {
		fair.Add(sim.FromSeconds(float64(n)), 1000)
	}
	res.Series = append(res.Series, fair)
	res.Notes = append(res.Notes, "x = number of receivers (time column); y = max slowstart rate in Kbit/s")
	return res
}

// slowstartSpec declares one figure 14 member: a dumbbell of the given
// capacity, nRecv fast receiver tails and numTCP competing flows, all
// starting together as in the paper, with the sender's rate sampled
// every 100 ms for up to 120 s.
func slowstartSpec(nRecv int, bw float64, numTCP, qlen int) *scenario.Spec {
	var steps []scenario.Step
	for i := 0; i < numTCP; i++ {
		n := fmt.Sprintf("tcp%d", i)
		steps = append(steps, scenario.Step{TCP: &scenario.TCPSpec{
			Name: n, From: scenario.Core(0), To: scenario.Core(1),
			Port: simnet.Port(10 + i), Meter: n}})
	}
	steps = append(steps, scenario.Step{Sample: &scenario.SampleSpec{
		Name: "sender rate", What: scenario.SampleSenderRate, Every: 100 * sim.Millisecond}})
	return &scenario.Spec{
		Name:  fmt.Sprintf("figure14-n%d-tcp%d", nRecv, numTCP),
		Title: "Maximum slowstart rate vs number of receivers",
		Topology: scenario.Topology{Kind: scenario.Dumbbell,
			Core: scenario.LinkP{BW: bw, Delay: 20 * sim.Millisecond, Queue: qlen}},
		Pop:      &scenario.Population{Count: nRecv, Parent: scenario.AttachPoint(0), Hop: scenario.FastHop()},
		Steps:    steps,
		Duration: 120 * sim.Second,
	}
}
