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
// slices.SortFunc; the sort is not stable, so equal expiries keep the
// order its pdqsort leaves them in, which the golden ledger pins.
// MeanOverRounds plays the same round on reused storage.
func SimulateRound(cfg Config, values []float64, delay sim.Time, rng *sim.Rand) RoundResult {
	return simulateRound(cfg, values, delay, rng, &roundBuf{})
}

// sentResp is the (time, value) of a sent response; the echoed minimum
// visible at time t is the running min over entries with at <= t-delay.
type sentResp struct {
	at  sim.Time
	val float64
}

// roundBuf is the storage of one round, reused by the next round that is
// handed the same buffer: the responses and the log of sent ones.
type roundBuf struct {
	responses []Response
	log       []sentResp
}

// simulateRound is SimulateRound on buf's storage; the result's Responses
// alias buf and are overwritten by the next round on it.
func simulateRound(cfg Config, values []float64, delay sim.Time, rng *sim.Rand, buf *roundBuf) RoundResult {
	n := len(values)
	if cap(buf.responses) < n {
		buf.responses = make([]Response, 0, n)
		buf.log = make([]sentResp, 0, n)
	}
	res := RoundResult{TrueMin: math.Inf(1)}
	res.Responses = buf.responses[:0]
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

	log := buf.log[:0]
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
