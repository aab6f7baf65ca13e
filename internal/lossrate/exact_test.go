package lossrate

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sim"
)

// floatAvgInterval is AvgInterval as it was when the weights were
// float64 and both weighted sums were accumulated in float64, kept
// verbatim as the reference for the integer sums.
func floatAvgInterval(e *Estimator) float64 {
	if !e.haveLoss {
		return 0
	}
	weights := make([]float64, len(e.weights))
	for i, w := range e.weights {
		weights[i] = float64(w)
	}
	// One pass accumulates both averages, each over the weights in order:
	// withOpen over intervals[0..], closed over intervals[1..].
	var numOpen, denOpen, numClosed, denClosed float64
	iv := e.intervals
	for i, w := range weights {
		if i >= len(iv) {
			break
		}
		numOpen += w * float64(iv[i])
		denOpen += w
		if i+1 < len(iv) {
			numClosed += w * float64(iv[i+1])
			denClosed += w
		}
	}
	return math.Max(floatRatio(numClosed, denClosed), floatRatio(numOpen, denOpen))
}

func floatRatio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// TestIntegerSumsMatchFloatReference: with integer weights, AvgInterval
// sums exact integers; the float64 sums it replaced were exact too (every
// product and partial sum is an integer below 2⁵³), so every average and
// every rate is bit-equal to the old loop's, at each depth from 1 to 32,
// with gaps from 0 up to figure 7's cap of 2³⁰ packets and with Appendix
// B's synthetic first interval set and rescaled.
func TestIntegerSumsMatchFloatReference(t *testing.T) {
	checked, synthetic, large := 0, 0, 0
	for depth := 1; depth <= 32; depth++ {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(depth)))
			e := NewEstimator(Weights(depth))
			now := sim.Time(0)
			for op := 0; op < 400; op++ {
				switch k := rng.Intn(8); {
				case k < 3:
					e.OnPackets(rng.Intn(200))
				case k == 3:
					e.OnPackets(1<<30 - 1 - rng.Intn(2))
				case k < 6:
					now += sim.Time(rng.Intn(120)) * sim.Millisecond
					e.OnLoss(now, 50*sim.Millisecond)
				case k == 6:
					e.InitFirstInterval(1 + rng.Intn(1<<30))
				default:
					if e.AdjustInitInterval(4 * rng.Float64()) {
						synthetic++
					}
				}
				got, want := e.AvgInterval(), floatAvgInterval(e)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("depth %d seed %d op %d: AvgInterval %v, float64 reference %v (history %v)",
						depth, seed, op, got, want, e.intervals)
				}
				if want > 0 && e.LossEventRate() != 1/want {
					t.Fatalf("depth %d seed %d op %d: LossEventRate %v, float64 reference %v",
						depth, seed, op, e.LossEventRate(), 1/want)
				}
				if slices.Max(e.intervals) >= 1<<29 {
					large++
				}
				checked++
			}
		}
	}
	// Guard against a vacuous run: large intervals and rescaled synthetic
	// ones must have been in the histories compared.
	t.Logf("%d averages compared, %d with an interval ≥ 2²⁹, %d synthetic intervals rescaled", checked, large, synthetic)
	if large < checked/4 || synthetic < 100 {
		t.Fatalf("vacuous: %d of %d histories held a large interval, %d rescales", large, checked, synthetic)
	}
}

// TestStopRecordingKeepsRates: an estimator that never records recent
// losses (figure 7's) gives the same loss event rate after every
// operation as one that records, and one that stops recording after its
// one re-aggregation (a tfmcc receiver's, at its first RTT measurement)
// the same as one that keeps recording. Reset makes a stopped estimator
// record again, on the storage it kept.
func TestStopRecordingKeepsRates(t *testing.T) {
	for _, depth := range []int{1, 8, 32} {
		splits := 0
		for seed := int64(1); seed <= 10; seed++ {
			rng := rand.New(rand.NewSource(seed))
			recording, never := NewEstimator(Weights(depth)), NewEstimator(Weights(depth))
			never.StopRecording()
			kept, stopped := NewEstimator(Weights(depth)), NewEstimator(Weights(depth))
			all := []*Estimator{recording, never, kept, stopped}
			reaggregateAt := 100 + rng.Intn(200)
			now := sim.Time(0)
			for op := 0; op < 600; op++ {
				switch k := rng.Intn(10); {
				case k < 5:
					n := rng.Intn(40)
					for _, e := range all {
						e.OnPackets(n)
					}
				case k < 9:
					now += sim.Time(rng.Intn(120)) * sim.Millisecond
					for _, e := range all {
						e.OnLoss(now, 80*sim.Millisecond)
					}
				default:
					p := 1 + rng.Intn(300)
					for _, e := range all {
						e.InitFirstInterval(p)
					}
				}
				if op == reaggregateAt {
					rtt := sim.Time(1+rng.Intn(20)) * sim.Millisecond
					a, b := kept.Reaggregate(rtt), stopped.Reaggregate(rtt)
					if a != b {
						t.Fatalf("depth %d seed %d: re-aggregation split %d and %d events", depth, seed, a, b)
					}
					splits += a
					stopped.StopRecording()
				}
				if recording.LossEventRate() != never.LossEventRate() || kept.LossEventRate() != stopped.LossEventRate() {
					t.Fatalf("depth %d seed %d op %d: rates %v (recording) %v (never), %v (kept) %v (stopped)", depth, seed, op,
						recording.LossEventRate(), never.LossEventRate(), kept.LossEventRate(), stopped.LossEventRate())
				}
			}
			if len(never.recentLosses) != 0 || cap(never.recentLosses) != 0 {
				t.Fatalf("depth %d seed %d: an estimator that never recorded holds %d records (cap %d)",
					depth, seed, len(never.recentLosses), cap(never.recentLosses))
			}
			if stopped.Reaggregate(sim.Microsecond) != 0 {
				t.Fatalf("depth %d seed %d: a stopped estimator re-aggregated", depth, seed)
			}
			store := cap(stopped.recentLosses)
			stopped.Reset(Weights(depth))
			for i := 0; i < 6*depth; i++ {
				stopped.OnPackets(20)
				stopped.OnLoss(sim.Time(i+1)*sim.Second, 100*sim.Millisecond)
				stopped.OnLoss(sim.Time(i+1)*sim.Second+sim.Millisecond, 100*sim.Millisecond)
			}
			if cap(stopped.recentLosses) != store || stopped.Reaggregate(sim.Microsecond) == 0 {
				t.Fatalf("depth %d seed %d: after Reset the store holds cap %d (was %d) and re-aggregates nothing",
					depth, seed, cap(stopped.recentLosses), store)
			}
		}
		if splits == 0 {
			t.Fatalf("depth %d: vacuous, no re-aggregation split an event", depth)
		}
	}
}
