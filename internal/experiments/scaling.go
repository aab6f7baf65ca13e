package experiments

import (
	"math"

	"repro/internal/lossrate"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcpmodel"
)

// Figure 7 operates at the estimator level (no discrete-event engine),
// so it is registered as analytic.
func init() { registerAnalytic("7", "Scaling: throughput vs number of receivers", Figure7) }

// Figure7 reproduces the throughput-degradation analysis of section 3:
// with n receivers seeing independent loss, TFMCC tracks the minimum of
// the receivers' calculated rates, which shrinks with n. Two loss
// distributions are compared: every receiver at a constant 10% loss
// (worst case), and a multicast-tree-like distribution where only
// c·log(n) receivers have high loss. RTT 50 ms, so the one-receiver fair
// rate is ~300 Kbit/s.
//
// The simulation operates at the estimator level, like the paper's own
// analysis: each receiver maintains a TFMCC loss-interval history fed by
// geometric inter-loss gaps, and each "round" the sender adopts the
// minimum calculated rate.
//
// The two curves share nothing (each has its own seed and its own 10⁴
// estimators, 1.76 MB), so they run on their own goroutines.
func Figure7(seed int64) *Result {
	res := &Result{}
	model := tcpmodel.Default()
	const rtt = 0.050
	ns := logSpace(1, 10000, 9)
	curves := []struct {
		name string
		loss func(n int) []float64
		seed int64
	}{
		{"constant", func(n int) []float64 { return constantLoss(n, 0.10) }, seed},
		{"distrib.", treeLoss, seed + 1},
	}
	res.Series = eachSeries(len(curves), func(c int) *stats.Series {
		s := &stats.Series{Name: curves[c].name}
		ests := make([]lossrate.Estimator, ns[len(ns)-1])
		for _, n := range ns {
			s.Add(sim.FromSeconds(float64(n)), minRateSim(model, rtt, curves[c].loss(n), curves[c].seed, ests))
		}
		toKbit(s)
		return s
	})
	res.Notes = append(res.Notes,
		"x axis = number of receivers (time column); y = sustained rate in Kbit/s",
		"single receiver fair rate at p=10%, RTT=50ms is ~300 Kbit/s")
	return res
}

func toKbit(s *stats.Series) {
	for i := range s.Points {
		s.Points[i].V = s.Points[i].V * 8 / 1000
	}
}

// constantLoss gives every receiver the same loss probability p, as the
// argument sim.Rand.Geometric takes for it, ln(1−p).
func constantLoss(n int, p float64) []float64 {
	out := make([]float64, n)
	lnq := sim.GeometricParam(p)
	for i := range out {
		out[i] = lnq
	}
	return out
}

// treeLoss mimics a multicast distribution tree (section 3): a small
// number (~2·log n) of receivers in the 5-10% range, a few more at 2-5%,
// and the vast majority between 0.5% and 2%. Like constantLoss, it
// returns each receiver's ln(1−p).
func treeLoss(n int) []float64 {
	out := make([]float64, n)
	rng := sim.NewRand(int64(n) * 13)
	high := int(2 * math.Log(float64(n)+1))
	mid := 2 * high
	for i := range out {
		var p float64
		switch {
		case i < high:
			p = rng.Uniform(0.05, 0.10)
		case i < high+mid:
			p = rng.Uniform(0.02, 0.05)
		default:
			p = rng.Uniform(0.005, 0.02)
		}
		out[i] = sim.GeometricParam(p)
	}
	return out
}

// minRateSim runs the estimator-level minimum-tracking simulation: each
// receiver's loss history advances by geometric gaps, a gap of g packets
// entering as g−1 arrivals (one OnPackets call) and one loss; every round
// the minimum calculated rate over all receivers is sampled. lnq holds
// each receiver's ln(1−p) (see constantLoss). Returns the mean of the
// minimum rate in bytes/s.
//
// The round's minimum rate is the model's rate at the round's highest
// loss event rate: Throughput is non-increasing in p (p <= 0 gives +Inf,
// p > 1 reads as 1, and in between it is s over a sum of products of
// non-negative terms each non-decreasing in p, every operation rounded
// monotonically), so min over i of Throughput(p_i) is
// Throughput(max p_i) exactly, and the model runs once per round.
//
// The receivers are the first len(lnq) entries of ests, reset here, so
// one slice serves every call of a curve. Their RTT is fixed, so no
// Appendix A re-aggregation follows and they record no recent losses:
// an estimator is 176 bytes, and a curve's 10⁴ of them fit in one
// core's L2 cache.
func minRateSim(model tcpmodel.Params, rtt float64, lnq []float64, seed int64, ests []lossrate.Estimator) float64 {
	ests = ests[:len(lnq)]
	rng := sim.NewRand(seed)
	now := sim.Time(0)
	const rounds = 260
	const warmup = 60
	for i := range ests {
		ests[i].Reset(lossrate.DefaultWeights)
		ests[i].StopRecording()
		// Prime each history with 8 intervals.
		for k := 0; k < 9; k++ {
			ests[i].OnPackets(rng.Geometric(lnq[i]) - 1)
			now += sim.Second
			ests[i].OnLoss(now, sim.FromSeconds(rtt))
		}
	}
	var sum float64
	for r := 0; r < rounds; r++ {
		maxP := 0.0
		for i := range ests {
			// Advance one loss interval per round.
			ests[i].OnPackets(rng.Geometric(lnq[i]) - 1)
			now += sim.Second
			ests[i].OnLoss(now, sim.FromSeconds(rtt))
			if p := ests[i].LossEventRate(); p > maxP {
				maxP = p
			}
		}
		if r >= warmup {
			sum += model.Throughput(maxP, rtt)
		}
	}
	return sum / float64(rounds-warmup)
}
