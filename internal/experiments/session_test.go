package experiments

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/tfmcc"
)

// sessionThroughput is the hand-wired session fixture the warm-path
// allocation budget and the session benchmarks time: one sender, n
// receivers behind a 1 Mbit/s bottleneck, run for the given number of
// simulated seconds on c's rewound environment. It returns the sender's
// final rate (bytes/s) and folds the run's counters into c, as RunCtx.run
// does for a spec.
func sessionThroughput(c *RunCtx, n int, seconds int) float64 {
	e := c.newEnv(1)
	r1 := e.Net.AddNode("r1")
	r2 := e.Net.AddNode("r2")
	e.Net.AddDuplex(r1, r2, 1*mbit, 20*sim.Millisecond, 30)
	snd := e.Net.AddNode("src")
	e.Net.AddDuplex(snd, r1, 0, sim.Millisecond, 0)
	sess := tfmcc.NewSession(e.Net, snd, 1, 100, tfmcc.DefaultConfig(), e.Rng)
	defer c.harvest(sess.Sender)
	for i := 0; i < n; i++ {
		leaf := e.Net.AddNode("leaf")
		e.Net.AddDuplex(r2, leaf, 0, sim.Time(2+i%40)*sim.Millisecond, 0)
		sess.AddReceiver(leaf)
	}
	sess.Start()
	e.Sch.RunUntil(sim.Time(seconds) * sim.Second)
	return sess.Sender.Rate()
}

// BenchmarkTFMCCSession measures end-to-end simulation cost: one sender,
// 100 receivers, a 1 Mbit/s bottleneck, 10 simulated seconds per
// iteration on one warm context. Engine-level metrics (events/sec,
// packets/sec, ns/event) make -bench output machine-comparable across
// changes.
func BenchmarkTFMCCSession(b *testing.B) {
	b.ReportAllocs()
	ctx := NewRunCtx()
	for b.Loop() {
		sessionThroughput(ctx, 100, 10)
	}
	st := ctx.Stats()
	sec := b.Elapsed().Seconds()
	if sec > 0 && st.Events > 0 {
		b.ReportMetric(float64(st.Events)/sec, "events/sec")
		b.ReportMetric(float64(st.PacketsDelivered)/sec, "packets/sec")
		b.ReportMetric(sec*1e9/float64(st.Events), "ns/event")
	}
}

// BenchmarkTFMCCSessionCold is the same session on a fresh context every
// iteration: the delta against BenchmarkTFMCCSession is the setup cost
// the arena reuse amortises away.
func BenchmarkTFMCCSessionCold(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		sessionThroughput(NewRunCtx(), 100, 10)
	}
}
