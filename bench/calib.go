package main

import (
	"math"
	"time"
)

// speedProbe measures how fast the box is right now. The reference box is
// a guest on a shared host whose speed drifts by +-20% over tens of
// seconds, for cache-resident code too (so it is the core's speed that
// moves: a busy SMT sibling, frequency), and a 10 s run cannot average
// that out. The probe times a small fixed kernel that shares no code with
// the repository — a hold-model loop on its own 4096-entry binary heap
// with some floating point, all of it L1-resident — next to every
// measured step; dividing a step's time by the kernel's time at that
// moment, relative to nominal, cancels the drift. On the same runs the
// spread of the timings between invocations fell from 8-12% to 2-3%.
//
// The kernel is deliberately not simulator code: a change to the
// repository cannot speed it up, so it cannot hide or fake a gain.
type speedProbe struct {
	heap []uint64
	last time.Time
	val  time.Duration
}

// nominalSpeed is the kernel's time on the reference box when it is quiet;
// calibrated times are what a step would take at that speed.
const nominalSpeed = 2500 * time.Microsecond

var speedSink float64

func (k *speedProbe) kernel() time.Duration {
	t0 := time.Now()
	x := uint64(2463534242)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	h := k.heap[:0]
	push := func(v uint64) {
		h = append(h, v)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if h[p] <= h[i] {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
	}
	pop := func() uint64 {
		top := h[0]
		n := len(h) - 1
		h[0] = h[n]
		h = h[:n]
		for i := 0; ; {
			l, r, m := 2*i+1, 2*i+2, i
			if l < n && h[l] < h[m] {
				m = l
			}
			if r < n && h[r] < h[m] {
				m = r
			}
			if m == i {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
		return top
	}
	for i := 0; i < 1<<12; i++ {
		push(next() >> 20)
	}
	var acc float64
	for i := 0; i < 50000; i++ {
		now := pop()
		push(now + next()>>44 + 1)
		if i&15 == 0 {
			acc += math.Log(float64(now&0xffff) + 2)
		}
	}
	k.heap = h
	speedSink += acc
	return time.Since(t0)
}

// sample returns the box's current speed as the kernel's time: the
// minimum of a few back-to-back runs, because a burst of interference
// only ever inflates one. A sample younger than 100 ms is reused, so runs
// of short steps do not pay for one each.
func (k *speedProbe) sample() time.Duration {
	if !k.last.IsZero() && time.Since(k.last) < 100*time.Millisecond {
		return k.val
	}
	v := k.kernel()
	for i := 0; i < 3; i++ {
		v = min(v, k.kernel())
	}
	k.last, k.val = time.Now(), v
	return v
}
