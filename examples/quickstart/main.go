// Quickstart: one TFMCC sender and eight receivers behind a shared
// 1 Mbit/s bottleneck. Prints the sending rate once per second and shows
// the current limiting receiver (CLR) converging onto the path.
//
//	go run ./examples/quickstart
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

	// Topology: sender -- r1 ==1 Mbit/s== r2 -- 8 receivers.
	sender := net.AddNode("sender")
	r1 := net.AddNode("r1")
	r2 := net.AddNode("r2")
	net.AddDuplex(sender, r1, 0, sim.Millisecond, 0)
	net.AddDuplex(r1, r2, 125_000, 20*sim.Millisecond, 30)

	const group = simnet.GroupID(1)
	const port = simnet.Port(100)
	sess := tfmcc.NewSession(net, sender, group, port, tfmcc.DefaultConfig(), sim.NewRand(2))
	for i := 0; i < 8; i++ {
		leaf := net.AddNode(fmt.Sprintf("rcv%d", i))
		net.AddDuplex(r2, leaf, 0, sim.Time(2+i)*sim.Millisecond, 0)
		sess.AddReceiver(leaf)
	}

	sess.Start()
	fmt.Fprintln(w, "time    rate_kbit  slowstart  CLR  valid_RTTs")
	for t := 1; t <= 60; t++ {
		sch.RunUntil(sim.Time(t) * sim.Second)
		fmt.Fprintf(w, "%3ds %10.0f %10v %4d %6d\n",
			t, sess.Sender.Rate()*8/1000, sess.Sender.InSlowstart(),
			sess.Sender.CLR(), sess.ValidRTTCount())
	}
	fmt.Fprintf(w, "\nfinal: %.0f Kbit/s on a 1000 Kbit/s bottleneck, %d packets sent\n",
		sess.Sender.Rate()*8/1000, sess.Sender.PacketsSent)
	return w.Flush()
}
