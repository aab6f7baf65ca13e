package feedback

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func BenchmarkDelayModifiedOffset(b *testing.B) {
	b.ReportAllocs()
	c := DefaultConfig(100 * sim.Millisecond)
	rng := sim.NewRand(1)
	for i := 0; i < b.N; i++ {
		_ = c.Delay(0.7, rng.Float64())
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "delays/sec")
}

func BenchmarkSimulateRound1000(b *testing.B) {
	c := DefaultConfig(100 * sim.Millisecond)
	rng := sim.NewRand(1)
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = rng.Uniform(0.3, 0.9)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SimulateRound(c, vals, 50*sim.Millisecond, rng)
	}
	b.ReportAllocs()
	b.ReportMetric(float64(b.N)*float64(len(vals))/b.Elapsed().Seconds(), "receivers/sec")
}

func BenchmarkExpectedResponses(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ExpectedResponses(1000, 10000, sim.Second, 3*sim.Second)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "calls/sec")
}

// BenchmarkMeanOverRounds10000 is one point of Figures 5 and 6 at their
// largest group: 15 rounds of 10⁴ receivers, T = 4 s, 250 ms suppression
// delay, ε = 1, modified offset.
func BenchmarkMeanOverRounds10000(b *testing.B) {
	c := DefaultConfig(sim.Second)
	c.Eps = 1
	rng := sim.NewRand(1)
	vals := make([]float64, 10000)
	mk := func(r *sim.Rand) []float64 {
		for i := range vals {
			vals[i] = r.Uniform(0.5, 1.0)
		}
		return vals
	}
	const trials = 15
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MeanOverRounds(c, mk, 250*sim.Millisecond, trials, rng)
	}
	b.ReportMetric(float64(b.N)*trials*float64(len(vals))/b.Elapsed().Seconds(), "receivers/sec")
}

// BenchmarkExpectedResponsesCurve is one curve of Figure 4: 16 receiver
// counts log-spaced from 1 to 10⁵, d = 1 s, T' = 4 s, N = 10⁴.
func BenchmarkExpectedResponsesCurve(b *testing.B) {
	ns := make([]int, 16)
	for i := range ns {
		ns[i] = int(math.Round(math.Pow(1e5, float64(i)/15)))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ExpectedResponsesCurve(ns, 10000, sim.Second, 4*sim.Second)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "curves/sec")
}
