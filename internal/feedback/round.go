package feedback

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/sim"
)

// Response describes one receiver's behaviour in a simulated feedback
// round.
type Response struct {
	Receiver int
	Value    float64  // feedback value x = X_calc/X_send
	At       sim.Time // timer expiry
	Sent     bool     // false when suppressed before expiry
}

// RoundResult summarises a simulated feedback round.
type RoundResult struct {
	Responses []Response // all receivers, sorted by timer expiry
	NumSent   int
	FirstAt   sim.Time // expiry of the first response actually sent
	BestValue float64  // lowest value among sent responses
	BestAt    sim.Time // when the best value was sent
	TrueMin   float64  // lowest value in the receiver set
}

// Quality returns (bestSent - trueMin)/trueMin, the paper's Figure 6
// metric: how far the best reported rate is above the true minimum.
func (r RoundResult) Quality() float64 {
	if r.TrueMin <= 0 || r.NumSent == 0 {
		return 0
	}
	return (r.BestValue - r.TrueMin) / r.TrueMin
}

// SimulateRound plays out one feedback round among receivers holding the
// given feedback values. delay is the end-to-end suppression latency: a
// response sent at t can cancel other timers from t+delay on (unicast
// report up, echo down with the next data packet). The sender echoes only
// reports lower than everything echoed before; receivers apply the
// ε-cancellation rule against the lowest echo heard so far.
//
// Responses come back in a new slice, sorted by timer expiry with
// slices.SortFunc. That sort only presents the round: the outcome is
// decided before it, in the order simulateRound documents. The sort is not
// stable, so equal expiries keep the order its pdqsort leaves them in,
// which Figure 2's golden ledger row pins. MeanOverRounds plays the same
// round on reused storage and never builds Responses.
func SimulateRound(cfg Config, values []float64, delay sim.Time, rng *sim.Rand) RoundResult {
	var buf roundBuf
	res := simulateRound(cfg, values, delay, rng, &buf)
	res.Responses = make([]Response, len(values))
	for i, x := range values {
		res.Responses[i] = Response{Receiver: i, Value: x, At: buf.at[i], Sent: buf.sent[i]}
	}
	slices.SortFunc(res.Responses, func(a, b Response) int { return cmp.Compare(a.At, b.At) })
	return res
}

// sentResp is the (time, value) of a sent response.
type sentResp struct {
	at  sim.Time
	val float64
}

// roundBuf is the storage of one round, reused by the next round that is
// handed the same buffer: each receiver's expiry and outcome, the decision
// order with its group bounds, and the log of sent responses.
type roundBuf struct {
	at     []sim.Time
	sent   []bool
	order  []int32
	bounds []int32
	log    []sentResp
}

// simulateRound decides one round on buf's storage and leaves each
// receiver's expiry and outcome in buf.at and buf.sent; the result carries
// no Responses.
//
// A timer expiring at t hears exactly the responses sent at or before
// t−delay. The timers are decided group by group, in an order where every
// timer of a group comes after every timer of an earlier group that it
// could hear, and no timer hears another of its own group. A timer of
// group g then hears every response sent in groups up to g−2 (their
// running minimum) and is checked one by one only against those sent in
// group g−1. With delay > 0 the groups are delay-wide segments counted
// from the first expiry, laid out by one counting pass: a response in the
// same segment is less than delay earlier, one two segments back at
// least delay earlier. Where there would be more segments than timers,
// or delay <= 0, the timers are sorted by expiry as SimulateRound sorts
// its Responses (same comparator, same starting order, so the same
// permutation) and each group is a run of equal segments, or with
// delay <= 0 a single timer. Each decision depends only on which earlier
// responses were sent, so the outcome equals that of deciding the timers
// one by one in expiry order.
func simulateRound(cfg Config, values []float64, delay sim.Time, rng *sim.Rand, buf *roundBuf) RoundResult {
	n := len(values)
	if cap(buf.at) < n {
		buf.at = make([]sim.Time, n)
		buf.sent = make([]bool, n)
		buf.order = make([]int32, n)
		buf.bounds = make([]int32, n+2)
		buf.log = make([]sentResp, 0, n)
	}
	at, sent, order := buf.at[:n], buf.sent[:n], buf.order[:n]
	res := RoundResult{TrueMin: math.Inf(1), FirstAt: -1, BestValue: math.Inf(1)}
	if n == 0 {
		return res
	}
	first, last := sim.MaxTime, sim.Time(math.MinInt64)
	for i, x := range values {
		if x < res.TrueMin {
			res.TrueMin = x
		}
		t := cfg.Delay(x, rng.Float64())
		at[i], sent[i] = t, false
		first, last = min(first, t), max(last, t)
	}

	var bounds []int32
	if delay > 0 && (last-first)/delay < sim.Time(n) {
		// Counting pass: segment k's timers, in index order, fill
		// order[bounds[k]:bounds[k+1]].
		segs := int((last-first)/delay) + 1
		bounds = buf.bounds[:segs+2]
		clear(bounds)
		for _, t := range at {
			bounds[(t-first)/delay+2]++
		}
		for k := 2; k < len(bounds); k++ {
			bounds[k] += bounds[k-1]
		}
		for i, t := range at {
			k := (t-first)/delay + 1
			order[bounds[k]] = int32(i)
			bounds[k]++
		}
		bounds = bounds[:segs+1]
	} else {
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(at[a], at[b]) })
		bounds = append(buf.bounds[:0], 0)
		for j := 1; j < n; j++ {
			if delay <= 0 || (at[order[j]]-first)/delay != (at[order[j-1]]-first)/delay {
				bounds = append(bounds, int32(j))
			}
		}
		bounds = append(bounds, int32(n))
	}

	log := buf.log[:0]
	heard := math.Inf(1) // lowest response sent in groups up to g−2
	prev := 0            // log[prev:] holds the responses sent in group g−1
	for g := 1; g < len(bounds); g++ {
		cur := len(log)
		for _, i := range order[bounds[g-1]:bounds[g]] {
			t, x := at[i], values[i]
			// Lowest echo audible at t.
			echo := heard
			for _, s := range log[prev:cur] {
				if t-s.at >= delay && s.val < echo {
					echo = s.val
				}
			}
			if !math.IsInf(echo, 1) && cfg.Cancel(x, echo) {
				continue // timer cancelled
			}
			sent[i] = true
			res.NumSent++
			if res.FirstAt < 0 || t < res.FirstAt {
				res.FirstAt = t
			}
			if x < res.BestValue || (x == res.BestValue && t < res.BestAt) {
				res.BestValue = x
				res.BestAt = t
			}
			log = append(log, sentResp{at: t, val: x})
		}
		for _, s := range log[prev:cur] {
			if s.val < heard {
				heard = s.val
			}
		}
		prev = cur
	}
	return res
}

// MeanOverRounds runs trials feedback rounds and averages the number of
// sent responses, first-response time, and quality. It backs Figures 3, 5
// and 6, where each point is a mean over many rounds. The rounds share one
// response buffer and one sent log, so makeValues may also hand back the
// same slice every trial.
func MeanOverRounds(cfg Config, makeValues func(*sim.Rand) []float64, delay sim.Time, trials int, rng *sim.Rand) (meanSent, meanFirstRTT, meanQuality float64) {
	var sumSent, sumFirst, sumQual float64
	var buf roundBuf
	for i := 0; i < trials; i++ {
		res := simulateRound(cfg, makeValues(rng), delay, rng, &buf)
		sumSent += float64(res.NumSent)
		sumFirst += res.FirstAt.Seconds()
		sumQual += res.Quality()
	}
	f := float64(trials)
	return sumSent / f, sumFirst / f, sumQual / f
}
