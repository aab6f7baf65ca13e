// Package repro's root benchmarks regenerate every figure of the TFMCC
// paper and the scenario presets. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark executes the full scenario behind the figure once per
// iteration and reports the headline numbers via b.Log / custom metrics.
package repro

import (
	"testing"

	"repro/internal/experiments"
)

func benchFigure(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	// One context for all iterations: after the first (cold) run, each
	// iteration rewinds the cached scenario arena instead of rebuilding.
	ctx := experiments.NewRunCtx()
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunWith(ctx, id, 1)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	if res != nil {
		b.Log(res.Summary())
	}
}

func BenchmarkFigure1(b *testing.B)  { benchFigure(b, "1") }
func BenchmarkFigure2(b *testing.B)  { benchFigure(b, "2") }
func BenchmarkFigure3(b *testing.B)  { benchFigure(b, "3") }
func BenchmarkFigure4(b *testing.B)  { benchFigure(b, "4") }
func BenchmarkFigure5(b *testing.B)  { benchFigure(b, "5") }
func BenchmarkFigure6(b *testing.B)  { benchFigure(b, "6") }
func BenchmarkFigure7(b *testing.B)  { benchFigure(b, "7") }
func BenchmarkFigure9(b *testing.B)  { benchFigure(b, "9") }
func BenchmarkFigure10(b *testing.B) { benchFigure(b, "10") }
func BenchmarkFigure11(b *testing.B) { benchFigure(b, "11") }
func BenchmarkFigure12(b *testing.B) { benchFigure(b, "12") }
func BenchmarkFigure13(b *testing.B) { benchFigure(b, "13") }
func BenchmarkFigure14(b *testing.B) { benchFigure(b, "14") }
func BenchmarkFigure15(b *testing.B) { benchFigure(b, "15") }
func BenchmarkFigure16(b *testing.B) { benchFigure(b, "16") }
func BenchmarkFigure17(b *testing.B) { benchFigure(b, "17") }
func BenchmarkFigure18(b *testing.B) { benchFigure(b, "18") }
func BenchmarkFigure19(b *testing.B) { benchFigure(b, "19") }
func BenchmarkFigure20(b *testing.B) { benchFigure(b, "20") }
func BenchmarkFigure21(b *testing.B) { benchFigure(b, "21") }

// Scenario presets ride the same harness as the figures.
func BenchmarkScenarioDeeptree(b *testing.B)   { benchFigure(b, "deeptree") }
func BenchmarkScenarioDegrade(b *testing.B)    { benchFigure(b, "degrade") }
func BenchmarkScenarioFlashcrowd(b *testing.B) { benchFigure(b, "flashcrowd") }
func BenchmarkScenarioMassleave(b *testing.B)  { benchFigure(b, "massleave") }
func BenchmarkScenarioTCPBurst(b *testing.B)   { benchFigure(b, "tcpburst") }
func BenchmarkScenarioWireless(b *testing.B)   { benchFigure(b, "wireless") }
func BenchmarkScenarioChainloss(b *testing.B)  { benchFigure(b, "chainloss") }

// Fault-injection presets.
func BenchmarkScenarioCLRFail(b *testing.B)   { benchFigure(b, "clrfail") }
func BenchmarkScenarioPartition(b *testing.B) { benchFigure(b, "partition") }
func BenchmarkScenarioCorruptFB(b *testing.B) { benchFigure(b, "corruptfb") }

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
