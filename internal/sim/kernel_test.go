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
// seqs, reserved seqs, cancellation and re-arms, on the pooled scheduler
// or on the container/heap reference.
type kernelOps struct {
	at      func(t Time, fn func()) kernelTimer
	reserve func() uint64
	atSeq   func(t Time, seq uint64, fn func()) kernelTimer
	now     func() Time
	run     func()
}

// kernelTimer is a queued event's handle: at is the time it was last
// armed for, stop cancels it, and rearm moves it to absolute time t as
// Stop followed by a fresh-seq push would, returning the new handle.
type kernelTimer struct {
	at    Time
	stop  func() bool
	rearm func(t Time, fn func()) kernelTimer
}

// kernelProgram is a seeded program aimed at the heap kernel's edges:
// bursts of 4–7 entries at one instant (so full 4-child nodes hold ties),
// entries at time 0 and at MaxTime and the two instants before it,
// follow-ups under seqs reserved earlier (AtSeqArg, so a new entry can
// order before ones pushed long ago), cancellation bursts large enough to
// trip the reap threshold, and re-arms of queued and fired timers to a
// later, equal or earlier time: some just before such a burst, so the
// reap meets re-armed entries, and some among the entries near MaxTime in
// the last instants, so a nearly drained heap re-keys its top through the
// partial node. It returns the dispatch order.
func kernelProgram(seed int64, d kernelOps) []int {
	rng := NewRand(seed)
	var order []int
	var timers []kernelTimer
	var reserved []uint64
	var far []int // indices in timers of the entries queued near MaxTime
	endRearms := 12
	next := 0
	var spawn func(depth int) func()
	spawn = func(depth int) func() {
		id := next
		next++
		return func() {
			order = append(order, id)
			now := d.now()
			if now > MaxTime-Second {
				// The last instants re-arm the far entries among
				// themselves, so stale keys reach the top of a nearly
				// drained heap.
				if endRearms > 0 {
					endRearms--
					i := far[rng.Intn(len(far))]
					timers[i] = timers[i].rearm(MaxTime, spawn(depth+1))
				}
				return
			}
			if depth >= 5 {
				return
			}
			for k := rng.Intn(4); k > 0; k-- {
				t := now + Time(rng.Intn(3))*Microsecond
				if len(reserved) > 0 && rng.Intn(3) == 0 {
					seq := reserved[len(reserved)-1]
					reserved = reserved[:len(reserved)-1]
					timers = append(timers, d.atSeq(t, seq, spawn(depth+1)))
				} else {
					timers = append(timers, d.at(t, spawn(depth+1)))
				}
			}
			// Re-arm queued or fired timers: mostly later (RTO-style),
			// sometimes to their own time or an earlier one.
			for k := rng.Intn(3); k > 0; k-- {
				i := rng.Intn(len(timers))
				dt := Time(rng.Intn(4)-1) * Microsecond
				if rng.Intn(4) == 0 {
					dt = Time(rng.Intn(200)) * Millisecond
				}
				t := MaxTime // saturated, as After saturates
				if at := timers[i].at; dt <= MaxTime-at {
					t = max(at+dt, now)
				}
				timers[i] = timers[i].rearm(t, spawn(depth+1))
			}
			if rng.Intn(2) == 0 {
				reserved = append(reserved, d.reserve())
			}
			switch rng.Intn(40) {
			case 0: // a block of far timers, most cancelled at once: reaps
				var block []kernelTimer
				for k := 0; k < 48; k++ {
					block = append(block, d.at(now+Time(rng.Intn(1000))*Millisecond, spawn(depth+1)))
				}
				for k := 40; k < 48; k++ {
					block[k] = block[k].rearm(block[k].at+Time(rng.Intn(100))*Millisecond, spawn(depth+1))
				}
				for _, tm := range block[:40] {
					tm.stop()
				}
				timers = append(timers, block[40:]...)
			case 1, 2, 3, 4, 5:
				for k := rng.Intn(6); k >= 0; k-- {
					timers[rng.Intn(len(timers))].stop()
				}
			}
		}
	}
	for i := 0; i < 8; i++ {
		timers = append(timers, d.at(0, spawn(0)))
	}
	for g := 0; g < 40; g++ {
		t := Time(rng.Intn(60)) * Microsecond
		for k := 4 + rng.Intn(4); k > 0; k-- {
			timers = append(timers, d.at(t, spawn(0)))
		}
	}
	for k := 0; k < 8; k++ {
		far = append(far, len(timers))
		timers = append(timers, d.at(MaxTime-Time(k%3), spawn(0)))
	}
	d.run()
	return order
}

// TestHeapKernelMatchesReference runs kernel programs on the pooled 4-ary
// heap — through the Step loop and through Run — and on the container/heap
// reference, and requires the same dispatch order. Guards: the full-node
// child selection ran (≥ 1000 pops with ≥ 5 entries left queued),
// cancellation reaped, ties were dense and reserved seqs were used, and
// re-arms kept their handles, were re-keyed at the top with ≥ 5 and with
// fewer entries queued (the full and the partial node), and were
// compacted by a reap.
func TestHeapKernelMatchesReference(t *testing.T) {
	var deepPops, reaps, atSeqs, maxTie int
	var kept, deepRekeys, shallowRekeys, staleReaps int
	for seed := int64(1); seed <= 30; seed++ {
		ref := &refSched{}
		var refTimer func(at Time, stop func() bool) kernelTimer
		refTimer = func(at Time, stop func() bool) kernelTimer {
			return kernelTimer{at: at, stop: stop, rearm: func(t Time, fn func()) kernelTimer {
				stop()
				ref.seq++
				return refTimer(t, ref.push(t, ref.seq, fn))
			}}
		}
		want := kernelProgram(seed, kernelOps{
			at: func(at Time, fn func()) kernelTimer {
				ref.seq++
				return refTimer(at, ref.push(at, ref.seq, fn))
			},
			reserve: func() uint64 { ref.seq++; return ref.seq },
			atSeq: func(at Time, seq uint64, fn func()) kernelTimer {
				return refTimer(at, ref.push(at, seq, fn))
			},
			now: func() Time { return ref.now },
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
			var handle func(tm Timer) kernelTimer
			handle = func(tm Timer) kernelTimer {
				stop := func() bool {
					n, stale := s.Pending(), staleEntries(s)
					ok := tm.Stop()
					if s.Pending() < n {
						reaps++
						if stale > 0 {
							staleReaps++
						}
					}
					return ok
				}
				return kernelTimer{at: tm.At(), stop: stop, rearm: func(t Time, fn func()) kernelTimer {
					nt := s.RearmArg(tm, t-s.Now(), func(any) { fn() }, nil)
					if nt == tm {
						kept++
					}
					return handle(nt)
				}}
			}
			got := kernelProgram(seed, kernelOps{
				at:      func(at Time, fn func()) kernelTimer { return handle(s.At(at, fn)) },
				reserve: s.ReserveSeq,
				atSeq: func(at Time, seq uint64, fn func()) kernelTimer {
					atSeqs++
					return handle(s.AtSeqArg(at, seq, func(any) { fn() }, nil))
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
						if staleTop(s) {
							if s.Pending() > 5 {
								deepRekeys++
							} else {
								shallowRekeys++
							}
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
	if kept < 1000 || deepRekeys < 100 || shallowRekeys == 0 || staleReaps == 0 {
		t.Errorf("vacuous re-arms: %d kept their handle, %d/%d re-keyed at the top with > 5/≤ 5 entries queued, %d reaps met a re-armed entry",
			kept, deepRekeys, shallowRekeys, staleReaps)
	}
	t.Logf("%d deep pops, %d reaps, %d AtSeqArg entries, up to %d entries at one instant", deepPops, reaps, atSeqs, maxTie)
	t.Logf("re-arms: %d kept their handle, %d/%d re-keyed at the top with > 5/≤ 5 entries queued, %d reaps met a re-armed entry",
		kept, deepRekeys, shallowRekeys, staleReaps)
}

// staleEntries counts the live heap entries whose key is earlier than
// their slot's.
func staleEntries(s *Scheduler) int {
	n := 0
	for _, e := range s.heap {
		if sl := &s.slots[e.slot]; sl.gen == e.gen && sl.seq != e.seq {
			n++
		}
	}
	return n
}
