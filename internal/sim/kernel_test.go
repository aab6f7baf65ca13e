package sim

import (
	"math"
	"testing"
)

// twoFieldLess is the (at, seq) order written out field by field: the
// definition entryLess's borrow arithmetic has to equal.
func twoFieldLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func TestEntryLessMatchesTwoFieldCompare(t *testing.T) {
	e := func(at Time, seq uint64) heapEntry { return heapEntry{at: at, seq: seq} }
	pairs := []struct{ a, b heapEntry }{
		{e(5, 7), e(5, 8)},                          // equal at, adjacent seq
		{e(0, 1), e(0, 2)},                          // ties at instant 0
		{e(MaxTime, 41), e(MaxTime, 42)},            // ties at MaxTime
		{e(0, 9), e(MaxTime, 1)},                    // at 0 vs MaxTime
		{e(0, math.MaxUint64), e(MaxTime, 0)},       // at decides over any seq
		{e(3, 0), e(3, math.MaxUint64)},             // seq 0 vs MaxUint64
		{e(MaxTime, 0), e(MaxTime, math.MaxUint64)}, // …at MaxTime
		{e(MaxTime-1, math.MaxUint64), e(MaxTime, 0)},
		{e(-1, 0), e(0, 0)},                    // at's sign bit
		{e(math.MinInt64, 0), e(MaxTime, 0)},   // the whole signed range
		{e(7, 3), e(7, 3)},                     // equal keys
		{e(1, math.MaxUint64), e(2, 0)},        // seq borrow must not leak into at
		{e(2, 0), e(1, math.MaxUint64)},        // …nor the other way
		{e(MaxTime, math.MaxUint64), e(0, 0)},  // largest vs smallest key
		{e(Second, 1<<63), e(Second, 1<<63-1)}, // seq's own top bit
		{e(1<<62, 5), e(-(1 << 62), 5)},        // opposite signs, equal seq
		{e(math.MinInt64, 1), e(math.MinInt64, 0)},
	}
	for _, p := range pairs {
		for _, ab := range [][2]heapEntry{{p.a, p.b}, {p.b, p.a}} {
			if got, want := entryLess(ab[0], ab[1]), twoFieldLess(ab[0], ab[1]); got != want {
				t.Errorf("entryLess(%+v, %+v) = %v, two-field compare says %v", ab[0], ab[1], got, want)
			}
		}
	}
}

// kernelOps is the surface a kernel program schedules through: fresh
// seqs, reserved seqs and cancellation, on the pooled scheduler or on the
// container/heap reference.
type kernelOps struct {
	at      func(t Time, fn func()) func() bool
	reserve func() uint64
	atSeq   func(t Time, seq uint64, fn func()) func() bool
	now     func() Time
	run     func()
}

// kernelProgram is a seeded program aimed at the heap kernel's edges:
// bursts of 4–7 entries at one instant (so full 4-child nodes hold ties),
// entries at time 0 and at MaxTime and the two instants before it,
// follow-ups under seqs reserved earlier (AtSeqArg, so a new entry can
// order before ones pushed long ago), and cancellation bursts large
// enough to trip the reap threshold. It returns the dispatch order.
func kernelProgram(seed int64, d kernelOps) []int {
	rng := NewRand(seed)
	var order []int
	var stops []func() bool
	var reserved []uint64
	next := 0
	var spawn func(depth int) func()
	spawn = func(depth int) func() {
		id := next
		next++
		return func() {
			order = append(order, id)
			now := d.now()
			if depth >= 5 || now > MaxTime-Second {
				return
			}
			for k := rng.Intn(4); k > 0; k-- {
				t := now + Time(rng.Intn(3))*Microsecond
				if len(reserved) > 0 && rng.Intn(3) == 0 {
					seq := reserved[len(reserved)-1]
					reserved = reserved[:len(reserved)-1]
					stops = append(stops, d.atSeq(t, seq, spawn(depth+1)))
				} else {
					stops = append(stops, d.at(t, spawn(depth+1)))
				}
			}
			if rng.Intn(2) == 0 {
				reserved = append(reserved, d.reserve())
			}
			switch rng.Intn(40) {
			case 0: // a block of far timers, most cancelled at once: reaps
				var block []func() bool
				for k := 0; k < 48; k++ {
					block = append(block, d.at(now+Time(rng.Intn(1000))*Millisecond, spawn(depth+1)))
				}
				for _, stop := range block[:40] {
					stop()
				}
				stops = append(stops, block[40:]...)
			case 1, 2, 3, 4, 5:
				for k := rng.Intn(6); k >= 0; k-- {
					stops[rng.Intn(len(stops))]()
				}
			}
		}
	}
	for i := 0; i < 8; i++ {
		stops = append(stops, d.at(0, spawn(0)))
	}
	for g := 0; g < 40; g++ {
		t := Time(rng.Intn(60)) * Microsecond
		for k := 4 + rng.Intn(4); k > 0; k-- {
			stops = append(stops, d.at(t, spawn(0)))
		}
	}
	for k := 0; k < 8; k++ {
		stops = append(stops, d.at(MaxTime-Time(k%3), spawn(0)))
	}
	d.run()
	return order
}

// TestHeapKernelMatchesReference runs kernel programs on the pooled 4-ary
// heap — through the Step loop and through Run — and on the container/heap
// reference, and requires the same dispatch order. Guards: the full-node
// child selection ran (≥ 1000 pops with ≥ 5 entries left queued),
// cancellation reaped, ties were dense and reserved seqs were used.
func TestHeapKernelMatchesReference(t *testing.T) {
	var deepPops, reaps, atSeqs, maxTie int
	for seed := int64(1); seed <= 30; seed++ {
		ref := &refSched{}
		want := kernelProgram(seed, kernelOps{
			at: func(at Time, fn func()) func() bool {
				ref.seq++
				return ref.push(at, ref.seq, fn)
			},
			reserve: func() uint64 { ref.seq++; return ref.seq },
			atSeq:   ref.push,
			now:     func() Time { return ref.now },
			run: func() {
				ties := map[Time]int{}
				for _, tm := range ref.events {
					ties[tm.at]++
					maxTie = max(maxTie, ties[tm.at])
				}
				ref.run()
			},
		})
		for _, viaRun := range []bool{false, true} {
			s := NewScheduler()
			stop := func(tm Timer) func() bool {
				return func() bool {
					n := s.Pending()
					ok := tm.Stop()
					if s.Pending() < n {
						reaps++
					}
					return ok
				}
			}
			got := kernelProgram(seed, kernelOps{
				at:      func(at Time, fn func()) func() bool { return stop(s.At(at, fn)) },
				reserve: s.ReserveSeq,
				atSeq: func(at Time, seq uint64, fn func()) func() bool {
					atSeqs++
					return stop(s.AtSeqArg(at, seq, func(any) { fn() }, nil))
				},
				now: s.Now,
				run: func() {
					if viaRun {
						s.Run()
						return
					}
					for {
						if s.Pending() > 5 {
							deepPops++
						}
						if !s.Step() {
							break
						}
					}
				},
			})
			if len(got) != len(want) {
				t.Fatalf("seed %d viaRun=%v: ran %d events, reference ran %d", seed, viaRun, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d viaRun=%v: order diverges at %d: got event %d, reference %d",
						seed, viaRun, i, got[i], want[i])
				}
			}
			if s.Now() != ref.now {
				t.Fatalf("seed %d viaRun=%v: final clock %v, reference %v", seed, viaRun, s.Now(), ref.now)
			}
		}
	}
	if deepPops < 1000 {
		t.Errorf("only %d pops left ≥ 5 entries queued; the full-node path is barely exercised", deepPops)
	}
	if reaps == 0 || atSeqs == 0 || maxTie < 4 {
		t.Errorf("vacuous program: %d reaps, %d AtSeqArg entries, at most %d entries at one instant", reaps, atSeqs, maxTie)
	}
	t.Logf("%d deep pops, %d reaps, %d AtSeqArg entries, up to %d entries at one instant", deepPops, reaps, atSeqs, maxTie)
}
