// Package lossrate implements TFRC/TFMCC loss event rate measurement at a
// receiver: packet losses are aggregated into loss events (at most one per
// round-trip time), the gaps between events form loss intervals, and the
// loss event rate is the inverse of a weighted average over the most
// recent intervals (paper section 2.3). It also implements the loss
// history initialisation from the rate at first loss (Appendix B) and the
// interval re-aggregation performed when the first real RTT measurement
// replaces the conservative initial RTT (Appendix A).
package lossrate

import (
	"math"
	"slices"

	"repro/internal/sim"
)

// DefaultWeights is the paper's example weight vector for n = 8 intervals:
// recent intervals count fully, older ones fade to zero. Weights are
// integers, so a weighted sum of integer intervals is exact.
var DefaultWeights = []int{5, 5, 5, 5, 4, 3, 2, 1}

// Weights returns a weight vector of length n following the paper's
// pattern: the newest half has weight 1 (scaled), then a linear decay to
// 1/(n/2) for the oldest. Weights(8) equals DefaultWeights.
func Weights(n int) []int {
	if n < 2 {
		return []int{1}
	}
	w := make([]int, n)
	half := n / 2
	for i := range w {
		if i < half {
			w[i] = half + 1
		} else {
			w[i] = n - i
		}
	}
	return w
}

// inlineDepth is the loss-history depth held inside the Estimator itself:
// the paper's n = 8. Deeper histories spill to the heap.
const inlineDepth = 8

// Estimator tracks loss intervals for one receiver.
//
// Packets are reported in arrival order via OnPacket and OnLoss. The
// estimator needs the receiver's current RTT estimate to decide whether a
// lost packet belongs to the current loss event or starts a new one.
//
// The zero value becomes usable with Reset. Up to inlineDepth intervals,
// intervals aliases the estimator's own ivBuf, so a receiver that embeds
// an Estimator by value reaches its loss history without leaving its own
// allocation — which also means an Estimator must not be copied once
// Reset (or NewEstimator) has run; go vet's copylocks check enforces it
// through noCopy. The weight vector is the caller's, shared by every
// estimator it is handed to and never written (see Reset).
type Estimator struct {
	_ noCopy

	// intervals[0] is the current (open) interval: the number of packets
	// since the last loss event. intervals[1..] are closed intervals,
	// most recent first. ivBuf follows directly so the per-packet
	// increment and the rate computation stay within adjacent lines.
	intervals []int
	ivBuf     [inlineDepth + 1]int

	haveLoss      bool
	lastEventTime sim.Time // time the current loss event started

	// initIdx tracks the position of the synthetic first interval from
	// Appendix B so it can be rescaled when the real RTT arrives; -1 when
	// absent or aged out of the history.
	initIdx int

	weights []int // shared, read-only

	// Recent losses for Appendix A re-aggregation: up to 4·len(weights)
	// records in arrival order, then a ring whose oldest record is at
	// recentOldest. newEvent records whether that loss started a new
	// loss event when recorded. recentOldest < 0 once StopRecording has
	// run: nothing is recorded until Reset, and the storage is kept for
	// the next Reset.
	recentLosses []lossRecord
	recentOldest int
}

// noCopy marks a struct that holds pointers into itself: vet reports any
// copy of a value containing one (it has Lock and Unlock, so copylocks
// takes it for a lock).
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

type lossRecord struct {
	t        sim.Time
	newEvent bool
}

// NewEstimator returns an estimator over len(weights) loss intervals. It
// keeps weights (see Reset).
func NewEstimator(weights []int) *Estimator {
	e := new(Estimator)
	e.Reset(weights)
	return e
}

// Reset puts the estimator — a zero value or a used one — into the state
// NewEstimator(weights) returns, keeping the interval and loss-record
// storage allocated. The estimator keeps weights itself, not a copy, and
// never writes it: one vector serves every estimator of a session, so the
// caller must not change it while any of them is in use. Nil means
// DefaultWeights.
func (e *Estimator) Reset(weights []int) {
	if len(weights) == 0 {
		weights = DefaultWeights
	}
	e.weights = weights
	if e.intervals == nil {
		e.intervals = e.ivBuf[:0]
	}
	e.intervals = append(e.intervals[:0], 0)
	e.haveLoss = false
	e.lastEventTime = 0
	e.recentLosses = e.recentLosses[:0]
	e.recentOldest = 0
	e.initIdx = -1
}

// pushInterval opens a history slot at index at by shifting intervals[at:]
// one place towards the old end, in place; the oldest interval falls off
// once the history holds len(weights) closed intervals. The caller stores
// the new intervals[at].
func (e *Estimator) pushInterval(at int) {
	if len(e.intervals) <= len(e.weights) {
		e.intervals = append(e.intervals, 0)
	}
	copy(e.intervals[at+1:], e.intervals[at:])
}

// HaveLoss reports whether a loss event has been registered yet.
func (e *Estimator) HaveLoss() bool { return e.haveLoss }

// OnPacket records the in-order arrival of one data packet.
func (e *Estimator) OnPacket() {
	e.intervals[0]++
}

// OnPackets records the in-order arrival of k data packets, the same as k
// OnPacket calls.
func (e *Estimator) OnPackets(k int) {
	e.intervals[0] += k
}

// OnLoss records a lost packet whose (estimated) send time is t, with the
// receiver's current RTT estimate. Losses within one RTT of the start of
// the current loss event are aggregated into it; otherwise a new loss
// event begins and the open interval is closed. It reports whether a new
// loss event started.
func (e *Estimator) OnLoss(t sim.Time, rtt sim.Time) bool {
	if e.haveLoss && t < e.lastEventTime+rtt {
		e.recordLoss(t, false)
		return false // same loss event
	}
	e.recordLoss(t, true)
	e.haveLoss = true
	e.lastEventTime = t
	// Close the open interval and start a new one. The lost packet that
	// ends the interval counts as part of it (RFC 3448 style), so an
	// interval is never smaller than one packet and p never exceeds 1.
	e.intervals[0]++
	e.pushInterval(0)
	e.intervals[0] = 0
	if e.initIdx >= 0 {
		e.initIdx++
		if e.initIdx >= len(e.intervals) {
			e.initIdx = -1 // aged out
		}
	}
	return true
}

// InitFirstInterval overrides the first (just closed) loss interval, as
// per Appendix B: rather than using the packet count before the first
// loss, the caller derives an interval from the receive rate when the
// first loss occurred. A non-positive value is ignored.
func (e *Estimator) InitFirstInterval(packets int) {
	if packets <= 0 || len(e.intervals) < 2 {
		return
	}
	e.intervals[1] = packets
	e.initIdx = 1
}

// AdjustInitInterval rescales the synthetic initial interval by f if it is
// still in the loss history (Appendix B: l' = l·(R/R_init)² once the real
// RTT is known). It reports whether an adjustment was made.
func (e *Estimator) AdjustInitInterval(f float64) bool {
	if e.initIdx < 1 || e.initIdx >= len(e.intervals) || f <= 0 {
		return false
	}
	v := float64(e.intervals[e.initIdx]) * f
	if v < 1 {
		v = 1
	}
	e.intervals[e.initIdx] = int(v + 0.5)
	e.initIdx = -1 // adjust once
	return true
}

// FirstInterval returns the most recently closed loss interval (0 when no
// loss has occurred).
func (e *Estimator) FirstInterval() int {
	if len(e.intervals) < 2 {
		return 0
	}
	return e.intervals[1]
}

// StopRecording ends the recent-loss store's life: the caller will not
// call Reaggregate again, because its RTT is known (measured, or fixed
// from the start), so the records are dropped and no later loss is
// recorded until Reset; Reaggregate then splits nothing. The storage
// stays allocated for the estimator's next life.
func (e *Estimator) StopRecording() {
	e.recentLosses = e.recentLosses[:0]
	e.recentOldest = -1
}

func (e *Estimator) recordLoss(t sim.Time, newEvent bool) {
	if e.recentOldest < 0 {
		return
	}
	rec := lossRecord{t: t, newEvent: newEvent}
	if n, full := len(e.recentLosses), 4*len(e.weights); n < full {
		if n == cap(e.recentLosses) {
			// One allocation of the whole store, not a doubling per size.
			e.recentLosses = slices.Grow(e.recentLosses, full-n)
		}
		e.recentLosses = append(e.recentLosses, rec)
		return
	}
	// Full: the new record takes the oldest one's slot.
	e.recentLosses[e.recentOldest] = rec
	if e.recentOldest++; e.recentOldest == len(e.recentLosses) {
		e.recentOldest = 0
	}
}

// Reaggregate rebuilds loss events from the recorded recent loss
// timestamps using a new, smaller RTT (Appendix A: when the first valid
// RTT measurement replaces a too-high initial RTT, separate loss events
// that were wrongly merged must be split). Newest closed intervals are
// split evenly per extra event; the paper itself describes this
// reconstruction as an approximation over the stored recent losses. It
// returns the number of additional loss events created.
func (e *Estimator) Reaggregate(rtt sim.Time) int {
	recs := e.recentLosses
	if len(recs) < 2 {
		return 0
	}
	prevEvents := 0
	for _, l := range recs {
		if l.newEvent {
			prevEvents++
		}
	}
	// Oldest first: from the ring's oldest record round to the newest.
	events := 1
	start := recs[e.recentOldest].t
	for k := 1; k < len(recs); k++ {
		if l := recs[(e.recentOldest+k)%len(recs)]; l.t >= start+rtt {
			events++
			start = l.t
		}
	}
	extra := events - prevEvents
	for i := 0; i < extra; i++ {
		if len(e.intervals) < 2 || e.intervals[1] < 2 {
			return i
		}
		half := e.intervals[1] / 2
		e.intervals[1] -= half
		e.pushInterval(1)
		e.intervals[1] = half
	}
	if extra < 0 {
		return 0
	}
	return extra
}

// AvgInterval returns the weighted average loss interval. Following the
// paper, the open interval (since the most recent loss event) is included
// only when doing so increases the average (i.e. decreases the loss event
// rate): l_avg = max(avg(l_1..l_n), avg(l_0..l_{n-1})).
func (e *Estimator) AvgInterval() float64 {
	if !e.haveLoss {
		return 0
	}
	// One pass accumulates both averages: withOpen over intervals[0..],
	// closed over intervals[1..]. The sums are exact integers, so each
	// ratio is the correctly rounded quotient whatever the order.
	var numOpen, denOpen, numClosed, denClosed int
	iv := e.intervals
	for i, w := range e.weights {
		if i >= len(iv) {
			break
		}
		numOpen += w * iv[i]
		denOpen += w
		if i+1 < len(iv) {
			numClosed += w * iv[i+1]
			denClosed += w
		}
	}
	return math.Max(ratio(numClosed, denClosed), ratio(numOpen, denOpen))
}

// ratio is num/den, or 0 over an empty weight sum.
func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// LossEventRate returns p = 1/l_avg, or 0 before the first loss event.
func (e *Estimator) LossEventRate() float64 {
	avg := e.AvgInterval()
	if avg <= 0 {
		return 0
	}
	return 1 / avg
}

// PacketsSinceLastEvent returns the size of the open interval.
func (e *Estimator) PacketsSinceLastEvent() int { return e.intervals[0] }
