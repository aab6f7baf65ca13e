package feedback

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/sim"
)

// sortThenDecideRound is the round as it was decided before the segment
// order: every response sorted by expiry with slices.SortFunc, then each
// timer decided in that order against a scan of the whole sent log. Kept
// verbatim as the oracle for simulateRound.
func sortThenDecideRound(cfg Config, values []float64, delay sim.Time, rng *sim.Rand) RoundResult {
	n := len(values)
	res := RoundResult{TrueMin: math.Inf(1)}
	res.Responses = make([]Response, 0, n)
	for i, x := range values {
		if x < res.TrueMin {
			res.TrueMin = x
		}
		res.Responses = append(res.Responses, Response{
			Receiver: i,
			Value:    x,
			At:       cfg.Delay(x, rng.Float64()),
		})
	}
	slices.SortFunc(res.Responses, func(a, b Response) int { return cmp.Compare(a.At, b.At) })

	log := make([]sentResp, 0, n)
	res.FirstAt = -1
	res.BestValue = math.Inf(1)
	for i := range res.Responses {
		r := &res.Responses[i]
		// Lowest echo audible at r.At.
		echo := math.Inf(1)
		for _, s := range log {
			if s.at+delay <= r.At && s.val < echo {
				echo = s.val
			}
		}
		if !math.IsInf(echo, 1) && cfg.Cancel(r.Value, echo) {
			continue // timer cancelled
		}
		r.Sent = true
		res.NumSent++
		if res.FirstAt < 0 {
			res.FirstAt = r.At
		}
		if r.Value < res.BestValue {
			res.BestValue = r.Value
			res.BestAt = r.At
		}
		log = append(log, sentResp{at: r.At, val: r.Value})
	}
	return res
}

// TestSegmentOrderMatchesSortThenDecide plays every round twice, through
// simulateRound (one buffer shared by every case, so stale storage from a
// larger or smaller round is in play) and through the sort-then-decide
// oracle, and requires the same outcome per receiver and the same
// summary. It covers all four biases, ε ∈ {0, 0.1, 1}, continuous and
// tied feedback values, n from 1 to 10⁴, and delays that take each path:
// counted segments, the sorted order with runs of segments (more segments
// than timers), and the sorted order timer by timer (delay <= 0). A
// timer scale of 20 ns quantises the expiries to a few values, forcing
// equal expiries. SimulateRound's Responses must equal the oracle's,
// order included.
func TestSegmentOrderMatchesSortThenDecide(t *testing.T) {
	type scale struct {
		T      sim.Time
		delays []sim.Time
	}
	scales := []scale{
		{4 * sim.Second, []sim.Time{0, sim.Nanosecond, 50 * sim.Millisecond, 250 * sim.Millisecond, -sim.Millisecond}},
		{20 * sim.Nanosecond, []sim.Time{0, sim.Nanosecond, 3 * sim.Nanosecond}},
	}
	var buf roundBuf
	var counted, sortedRuns, equalExpiries int
	seed := int64(0)
	for _, sc := range scales {
		for _, bias := range []BiasMethod{BiasNone, BiasModifyN, BiasOffset, BiasModifiedOffset} {
			for _, eps := range []float64{0, 0.1, 1} {
				for _, delay := range sc.delays {
					for _, n := range []int{1, 2, 3, 7, 40, 300, 10000, 90} {
						for _, tied := range []bool{false, true} {
							if n == 10000 && (tied || sc.T < sim.Second) {
								continue // the oracle is quadratic in the sent count
							}
							seed++
							c := Config{T: sc.T, N: 10000, Delta: 0.25, Eps: eps, Bias: bias}
							vals := make([]float64, n)
							vr := sim.NewRand(seed)
							for i := range vals {
								if tied {
									vals[i] = 0.3 + 0.1*float64(vr.Intn(5))
								} else {
									vals[i] = vr.Uniform(0.05, 1)
								}
							}
							want := sortThenDecideRound(c, vals, delay, sim.NewRand(seed))
							got := simulateRound(c, vals, delay, sim.NewRand(seed), &buf)
							where := fmt.Sprintf("bias %v n %d delay %v eps %v tied %v", bias, n, delay, eps, tied)
							if got.NumSent != want.NumSent || got.FirstAt != want.FirstAt ||
								got.BestValue != want.BestValue || got.BestAt != want.BestAt || got.TrueMin != want.TrueMin {
								t.Fatalf("%s: round %+v, oracle %+v", where, summary(got), summary(want))
							}
							for k, r := range want.Responses {
								if buf.sent[r.Receiver] != r.Sent || buf.at[r.Receiver] != r.At {
									t.Fatalf("%s: receiver %d sent %v at %v, oracle %v at %v",
										where, r.Receiver, buf.sent[r.Receiver], buf.at[r.Receiver], r.Sent, r.At)
								}
								if k > 0 && r.At == want.Responses[k-1].At {
									equalExpiries++
								}
							}
							if delay > 0 && n > 1 {
								span := want.Responses[n-1].At - want.Responses[0].At
								if span/delay < sim.Time(n) {
									counted++
								} else {
									sortedRuns++
								}
							}
							if n <= 300 {
								pub := SimulateRound(c, vals, delay, sim.NewRand(seed))
								if !slices.Equal(pub.Responses, want.Responses) {
									t.Fatalf("%s: SimulateRound's Responses differ from the oracle's", where)
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("rounds on counted segments %d, on sorted runs %d; equal adjacent expiries %d", counted, sortedRuns, equalExpiries)
	if counted == 0 || sortedRuns == 0 || equalExpiries == 0 {
		t.Fatal("a decision path or the equal-expiry case went unexercised")
	}
}

func summary(r RoundResult) RoundResult {
	r.Responses = nil
	return r
}

// perNExpectedResponses is the one-n quadrature as it was before the
// curve shared F(s) and F(s+d) across n. Kept verbatim as the oracle.
func perNExpectedResponses(n int, N float64, d, Tprime sim.Time) float64 {
	if n <= 0 {
		return 0
	}
	if n == 1 {
		return 1
	}
	T := float64(Tprime)
	dd := float64(d)
	lnN := math.Log(N)
	F := func(t float64) float64 {
		if t <= 0 {
			return 1 / N
		}
		if t >= T {
			return 1
		}
		return math.Pow(N, t/T-1)
	}
	nf := float64(n)
	// Atom: the minimum of the others is exactly 0.
	atom := 1 - math.Pow(1-1/N, nf-1)
	sum := F(dd) * atom
	// Continuous part: dG(s) = (n-1)(1-F(s))^(n-2) f(s) ds with
	// f(s) = F(s)·lnN/T.
	const steps = 40000
	h := T / steps
	for i := 0; i < steps; i++ {
		s := (float64(i) + 0.5) * h
		fs := F(s)
		g := (nf - 1) * math.Pow(1-fs, nf-2) * fs * lnN / T
		sum += F(s+dd) * g * h
	}
	v := nf * sum
	if v < 1 {
		return 1
	}
	return v
}

// TestExpectedResponsesCurveBitEqual: every point of the one-quadrature
// curve, and every lone ExpectedResponses call, equals the per-n
// quadrature bit for bit, Figure 4's receiver counts and the n <= 1 edges
// included.
func TestExpectedResponsesCurveBitEqual(t *testing.T) {
	ns := []int{0, 1, 2, 3, 22, 464, 10000, 100000}
	for _, c := range []struct {
		N     float64
		d, tp sim.Time
	}{{10000, sim.Second, 2 * sim.Second}, {10000, 0, 6 * sim.Second}, {100, 250 * sim.Millisecond, 3 * sim.Second}} {
		curve := ExpectedResponsesCurve(ns, c.N, c.d, c.tp)
		for k, n := range ns {
			want := perNExpectedResponses(n, c.N, c.d, c.tp)
			if math.Float64bits(curve[k]) != math.Float64bits(want) {
				t.Fatalf("%+v n %d: curve %v, per-n %v", c, n, curve[k], want)
			}
			if got := ExpectedResponses(n, c.N, c.d, c.tp); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%+v n %d: ExpectedResponses %v, per-n %v", c, n, got, want)
			}
		}
	}
}
