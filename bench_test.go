// Package repro's root benchmarks regenerate every figure of the TFMCC
// paper and the scenario presets. Run with:
//
//	go test -bench=. -benchmem
//
// Each registry sub-benchmark executes the full scenario behind its
// entry once per iteration and logs the headline numbers via b.Log; the
// session benchmarks report engine metrics.
package repro

import (
	"testing"

	"repro/internal/experiments"
)

// BenchmarkRegistry runs every registry entry, the paper's figures and
// the scenario presets alike, as one sub-benchmark named by its id
// (-bench 'Registry/^12$' selects figure 12). One context serves all
// iterations of an entry: after the first (cold) run, each iteration
// rewinds the cached scenario arena instead of rebuilding.
func BenchmarkRegistry(b *testing.B) {
	for _, e := range experiments.Entries() {
		b.Run(e.ID, func(b *testing.B) {
			b.ReportAllocs()
			ctx := experiments.NewRunCtx()
			var res *experiments.Result
			for i := 0; i < b.N; i++ {
				r, err := experiments.RunWith(ctx, e.ID, 1)
				if err != nil {
					b.Fatal(err)
				}
				res = r
			}
			if res != nil {
				b.Log(res.Summary())
			}
		})
	}
}

// BenchmarkTFMCCSession measures end-to-end simulation cost: one sender,
// 100 receivers, a 1 Mbit/s bottleneck, 10 simulated seconds per
// iteration. Engine-level metrics (events/sec, packets/sec, ns/event)
// make -bench output machine-comparable across PRs.
func BenchmarkTFMCCSession(b *testing.B) {
	b.ReportAllocs()
	ctx := experiments.NewRunCtx()
	for i := 0; i < b.N; i++ {
		ctx.SessionThroughput(100, 10)
	}
	st := ctx.Stats()
	sec := b.Elapsed().Seconds()
	if sec > 0 && st.Events > 0 {
		b.ReportMetric(float64(st.Events)/sec, "events/sec")
		b.ReportMetric(float64(st.PacketsDelivered)/sec, "packets/sec")
		b.ReportMetric(sec*1e9/float64(st.Events), "ns/event")
	}
}

// BenchmarkTFMCCSessionChecked is BenchmarkTFMCCSession with the
// run-level invariant checker sampling every 100 simulated milliseconds;
// the delta between the two is the checker's overhead, which
// PERFORMANCE.md pins under 5%.
func BenchmarkTFMCCSessionChecked(b *testing.B) {
	b.ReportAllocs()
	ctx := experiments.NewRunCtx()
	ctx.EnableInvariants()
	for i := 0; i < b.N; i++ {
		ctx.SessionThroughput(100, 10)
	}
	if v := ctx.Violations(); len(v) != 0 {
		b.Fatalf("invariant violations in benchmark scenario: %v", v)
	}
	st := ctx.Stats()
	sec := b.Elapsed().Seconds()
	if sec > 0 && st.Events > 0 {
		b.ReportMetric(float64(st.Events)/sec, "events/sec")
		b.ReportMetric(float64(st.PacketsDelivered)/sec, "packets/sec")
		b.ReportMetric(sec*1e9/float64(st.Events), "ns/event")
	}
}

// BenchmarkTFMCCSessionCold is the same scenario on a fresh context every
// iteration: the delta against BenchmarkTFMCCSession is the setup cost
// the arena reuse amortises away.
func BenchmarkTFMCCSessionCold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.SessionThroughput(100, 10)
	}
}
