// Stockticker: the paper's other motivating workload — a long-lived,
// low-rate data feed to a very large receiver set. 1000 receivers with
// heterogeneous access links join one TFMCC session; the example shows
// that the session settles at the rate of the most constrained receiver,
// that RTT measurement scales (Figure 12's mechanism), and how little
// feedback traffic reaches the sender.
//
//	go run ./examples/stockticker
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"repro/internal/sim"
	"repro/internal/simnet"
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
	rng := sim.NewRand(2)

	hub := net.AddNode("hub")
	src := net.AddNode("ticker")
	net.AddDuplex(src, hub, 0, sim.Millisecond, 0)

	sess := tfmcc.NewSession(net, src, 1, 100, tfmcc.DefaultConfig(), sim.NewRand(3))
	const n = 1000
	for i := 0; i < n; i++ {
		leaf := net.AddNode(fmt.Sprintf("sub%d", i))
		delay := sim.Time(5+rng.Intn(70)) * sim.Millisecond
		down, _ := net.AddDuplex(hub, leaf, 0, delay, 0)
		// A handful of subscribers sit behind genuinely bad links.
		switch {
		case i < 5:
			down.LossProb = rng.Uniform(0.05, 0.10)
		case i < 50:
			down.LossProb = rng.Uniform(0.01, 0.03)
		default:
			down.LossProb = rng.Uniform(0.001, 0.01)
		}
		sess.AddReceiver(leaf)
	}

	sess.Start()
	fmt.Fprintln(w, "time    rate_kbit  CLR   valid_RTTs  reports_total")
	for _, t := range []int{10, 30, 60, 120, 180, 240, 300} {
		sch.RunUntil(sim.Time(t) * sim.Second)
		fmt.Fprintf(w, "%4ds %10.0f %5d %10d %14d\n",
			t, sess.Sender.Rate()*8/1000, sess.Sender.CLR(),
			sess.ValidRTTCount(), sess.Sender.ReportsRecv)
	}

	// Feedback economy: reports per data packet.
	perData := float64(sess.Sender.ReportsRecv) / float64(sess.Sender.PacketsSent)
	fmt.Fprintf(w, "\n%d receivers produced %.2f reports per data packet (implosion avoided)\n",
		n, perData)
	clr := sess.Sender.CLR()
	if clr >= 0 {
		fmt.Fprintf(w, "CLR is receiver %d — one of the high-loss subscribers: %v\n",
			clr, clr < 5)
	}
	return w.Flush()
}
