// Videostream: the application domain that motivates TFMCC — a long-lived
// media stream that needs a *smooth* TCP-friendly rate. One TFMCC session
// with four receivers shares an 8 Mbit/s bottleneck with 15 TCP flows
// (the paper's Figure 9 setting) and the example compares mean rate and
// rate smoothness (coefficient of variation) against TCP.
//
//	go run ./examples/videostream
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/tcpsim"
	"repro/internal/tfmcc"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run drives the example and writes its report to out.
func run(out io.Writer) error {
	w := bufio.NewWriter(out) // a failed write shows at Flush

	sch := sim.NewScheduler()
	net := simnet.New(sch, sim.NewRand(1))

	r1 := net.AddNode("r1")
	r2 := net.AddNode("r2")
	net.AddDuplex(r1, r2, 8*125_000, 20*sim.Millisecond, 80)

	sender := net.AddNode("video-src")
	net.AddDuplex(sender, r1, 0, sim.Millisecond, 0)
	sess := tfmcc.NewSession(net, sender, 1, 100, tfmcc.DefaultConfig(), sim.NewRand(2))

	var viewer *stats.Meter
	for i := 0; i < 4; i++ {
		leaf := net.AddNode(fmt.Sprintf("viewer%d", i))
		net.AddDuplex(r2, leaf, 0, sim.Time(2+i)*sim.Millisecond, 0)
		rcv := sess.AddReceiver(leaf)
		if i == 0 {
			viewer = stats.NewMeter("viewer0", sch, sim.Second)
			rcv.Meter = viewer
			viewer.Start()
		}
	}

	var tcpMeters []*stats.Meter
	for i := 0; i < 15; i++ {
		a := net.AddNode("web-src")
		b := net.AddNode("web-dst")
		net.AddDuplex(a, r1, 0, sim.Millisecond, 0)
		net.AddDuplex(r2, b, 0, sim.Millisecond, 0)
		snd, snk := tcpsim.NewFlow("web", net, a, b, simnet.Port(10+i), tcpsim.DefaultConfig())
		m := stats.NewMeter("tcp", sch, sim.Second)
		snk.Meter = m
		m.Start()
		snd.Start()
		tcpMeters = append(tcpMeters, m)
	}

	sess.Start()
	sch.RunUntil(200 * sim.Second)

	steady := func(s *stats.Series) (mean, cov float64) {
		var trimmed stats.Series
		for _, p := range s.Points {
			if p.T >= 60*sim.Second {
				trimmed.Points = append(trimmed.Points, p)
			}
		}
		return trimmed.Mean(), trimmed.CoV()
	}
	vMean, vCov := steady(viewer.Series)
	var tSum, tCovSum float64
	for _, m := range tcpMeters {
		mm, cc := steady(m.Series)
		tSum += mm
		tCovSum += cc
	}
	tMean, tCov := tSum/15, tCovSum/15

	fmt.Fprintln(w, "Steady state (60-200s), 8 Mbit/s shared with 15 TCP flows:")
	fmt.Fprintf(w, "  video stream (TFMCC): %7.0f Kbit/s   rate CoV %.2f\n", vMean, vCov)
	fmt.Fprintf(w, "  mean TCP flow:        %7.0f Kbit/s   rate CoV %.2f\n", tMean, tCov)
	fmt.Fprintf(w, "  fairness ratio: %.2f  (1.0 = perfectly TCP-friendly)\n", vMean/tMean)
	fmt.Fprintf(w, "  smoothness advantage: TFMCC rate varies %.1fx less than TCP\n", tCov/vCov)
	return w.Flush()
}
