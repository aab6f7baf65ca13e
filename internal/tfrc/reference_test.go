package tfrc

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/tfmcc"
)

// TestSingleReceiverTracksTFRC is the degenerate-case faithfulness check
// of the multicast extension: the paper defines TFMCC as TFRC extended to
// groups, so a TFMCC session with one receiver must settle at the rate
// this package's unicast TFRC reaches on the same path — one 30 ms link
// with 2% random loss, 300 s, means over 60–300 s. Measured ratio
// TFMCC/TFRC on seeds 1–8: 0.976–1.000.
func TestSingleReceiverTracksTFRC(t *testing.T) {
	path := func(seed int64) (*sim.Scheduler, *simnet.Network, simnet.NodeID, simnet.NodeID, *stats.Meter) {
		sch := sim.NewScheduler()
		net := simnet.New(sch, sim.NewRand(seed))
		a, b := net.AddNode("a"), net.AddNode("b")
		down, _ := net.AddDuplex(a, b, 0, 30*sim.Millisecond, 0)
		down.LossProb = 0.02
		m := stats.NewMeter("rate", sch, sim.Second)
		m.Start()
		return sch, net, a, b, m
	}
	steady := func(sch *sim.Scheduler, m *stats.Meter) float64 {
		sch.RunUntil(300 * sim.Second)
		return m.Series.MeanBetween(60*sim.Second, 300*sim.Second)
	}
	for seed := int64(1); seed <= 8; seed++ {
		sch, net, a, b, m := path(seed)
		sess := tfmcc.NewSession(net, a, 1, 100, tfmcc.DefaultConfig(), sim.NewRand(seed+7))
		sess.AddReceiver(b).Meter = m
		sess.Start()
		multicast := steady(sch, m)

		sch, net, a, b, m = path(seed)
		snd, rcv := NewFlow(net, a, b, 100)
		rcv.Meter = m
		snd.Start()
		unicast := steady(sch, m)

		ratio := multicast / unicast
		t.Logf("seed %d: TFMCC %.0f vs TFRC %.0f Kbit/s, ratio %.3f", seed, multicast, unicast, ratio)
		if ratio < 0.95 || ratio > 1.05 {
			t.Errorf("seed %d: TFMCC/TFRC = %.3f (TFMCC %.0f, TFRC %.0f Kbit/s), want within [0.95, 1.05]",
				seed, ratio, multicast, unicast)
		}
	}
}
