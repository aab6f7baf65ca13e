package tfmcc

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// BenchmarkReceiverCopy prices one delivered data packet at a receiver —
// Recv on an in-order copy — round-robin over the r receivers of one
// session: r=1 keeps the receiver in cache, r=1000 touches figure 12's
// working set, where a copy costs the receiver lines it pulls in. In the
// pending runs every receiver has seen a loss, armed its feedback timer
// and gets a finite suppression echo, so each copy also takes
// maybeSuppress's ε check; in the plain runs no timer is armed.
func BenchmarkReceiverCopy(b *testing.B) {
	for _, r := range []int{1, 1000} {
		for _, pending := range []bool{false, true} {
			mode := "plain"
			if pending {
				mode = "pending"
			}
			b.Run(fmt.Sprintf("r=%d/%s", r, mode), func(b *testing.B) {
				b.ReportAllocs()
				sch := sim.NewScheduler()
				net := simnet.New(sch, sim.NewRand(1))
				snd := net.AddNode("snd")
				sess := NewSession(net, snd, 1, 100, DefaultConfig(), sim.NewRand(2))
				for i := 0; i < r; i++ {
					leaf := net.AddNode("r")
					net.AddDuplex(snd, leaf, 0, sim.Millisecond, 0)
					sess.AddReceiver(leaf)
				}
				// Some other receiver is CLR: a lossless receiver stays out of
				// the feedback process, a lossy one below the rate joins it.
				d := &Data{Rate: 1e9, Round: 1, RoundT: 2 * sim.Second, MaxRTT: 500 * sim.Millisecond,
					CLR: 1 << 30, EchoRcvr: noReceiver, SuppressRate: math.Inf(1)}
				pkt := &simnet.Packet{Size: 1000, Payload: d}
				packet := func() {
					for _, rc := range sess.Receivers {
						rc.Recv(pkt)
					}
					d.Seq++
				}
				for i := 0; i < 8; i++ {
					packet()
				}
				if pending {
					d.Seq++ // one loss each
					packet()
					d.Round, d.SuppressRate, d.SuppressLoss = 2, 1e12, true
					packet()
				}
				for i, rc := range sess.Receivers {
					if rc.fbPending != pending {
						b.Fatalf("receiver %d: feedback timer armed = %v, want %v", i, rc.fbPending, pending)
					}
				}
				b.ResetTimer()
				k := 0
				for i := 0; i < b.N; i++ {
					sess.Receivers[k].Recv(pkt)
					if k++; k == r {
						k = 0
						d.Seq++
					}
				}
				b.StopTimer()
				losses := int64(0)
				if pending {
					losses = 1
				}
				for i, rc := range sess.Receivers {
					if rc.fbPending != pending || rc.Losses != losses {
						b.Fatalf("receiver %d: timer armed %v, %d losses after the run", i, rc.fbPending, rc.Losses)
					}
				}
			})
		}
	}
}
