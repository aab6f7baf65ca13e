package sim

import (
	"fmt"
	"testing"
)

// batchWorkload schedules a canned event mix exercising every dispatch
// edge the burst path must preserve: multi-entry same-instant runs,
// events that schedule more work at their own instant (a follow-up
// batch), nested future scheduling, and a same-instant cancellation.
// The returned trace records (time, id) of every callback that fired.
func batchWorkload(s *Scheduler) *string {
	trace := new(string)
	note := func(id string) {
		*trace += fmt.Sprintf("%d:%s\n", s.Now(), id)
	}
	for i := 0; i < 4; i++ {
		i := i
		s.At(Second, func() { note(fmt.Sprintf("a%d", i)) })
	}
	// Same-instant cancellation: a1x is scheduled after canceller within
	// the t=1s run, so the burst pops it into the same batch and must
	// still skip it via the dispatch-time generation re-check.
	var victim Timer
	s.At(Second, func() { note("canceller"); victim.Stop() })
	victim = s.At(Second, func() { note("a1x") })
	// Same-instant rescheduling: b fires at 2s and queues c at 2s, which
	// lands in a follow-up batch after every already-popped member.
	s.At(2*Second, func() {
		note("b")
		s.At(2*Second, func() { note("c") })
	})
	s.At(2*Second, func() { note("b2") })
	// Nested future scheduling across the run bound.
	s.After(3*Second, func() {
		note("d")
		s.After(Second, func() { note("e") })
	})
	return trace
}

// TestBatchDispatchMatchesSerial: burst dispatch must replay the
// event-at-a-time reference loop exactly — same callback order, same
// clock, same processed count — while actually coalescing (fewer batches
// than events), on the canned edge-case mix and on seeded programs of
// colliding timers, follow-ups and cancellations.
func TestBatchDispatchMatchesSerial(t *testing.T) {
	serial := NewScheduler()
	st := batchWorkload(serial)
	refRun(serial)

	batched := NewScheduler()
	bt := batchWorkload(batched)
	batched.Run()

	if *st != *bt {
		t.Fatalf("dispatch traces diverge:\nreference:\n%sbatched:\n%s", *st, *bt)
	}
	if serial.Now() != batched.Now() {
		t.Fatalf("clocks diverge: %v vs %v", serial.Now(), batched.Now())
	}
	if serial.Processed() != batched.Processed() {
		t.Fatalf("processed counts diverge: %d vs %d", serial.Processed(), batched.Processed())
	}
	// The reference really is the other loop: Step opens no batches.
	if serial.Batches() != 0 {
		t.Fatalf("reference loop recorded %d batches, want 0", serial.Batches())
	}
	// 6 live events at t=1s collapse into one batch; the t=2s instant
	// takes two (the re-scheduled c opens a follow-up batch); d and e are
	// singleton batches. Occupancy must therefore beat 1.
	if b, n := batched.Batches(), batched.Processed(); b == 0 || b >= n {
		t.Fatalf("no coalescing: %d events in %d batches", n, b)
	}

	for seed := int64(1); seed <= 20; seed++ {
		drive := func(run func(*Scheduler)) ([]int, uint64, Time, uint64) {
			s := NewScheduler()
			order, n, end := runProgram(seed, schedDriver{
				after:     func(d Time, fn func()) func() bool { return s.After(d, fn).Stop },
				run:       func() { run(s) },
				now:       s.Now,
				processed: s.Processed,
			})
			return order, n, end, s.Batches()
		}
		refOrder, refN, refEnd, refBatches := drive(refRun)
		order, n, end, batches := drive((*Scheduler).Run)
		if fmt.Sprint(order) != fmt.Sprint(refOrder) || n != refN || end != refEnd {
			t.Fatalf("seed %d: burst dispatch ran %d events to %v, reference loop %d to %v, or in another order",
				seed, n, end, refN, refEnd)
		}
		if refBatches != 0 || batches == 0 || batches >= n {
			t.Fatalf("seed %d: vacuous comparison: %d events in %d batches, reference recorded %d batches",
				seed, n, batches, refBatches)
		}
	}
}

// TestBatchRunUntilBound: RunUntil must stop at exactly the bound even
// when a same-instant run straddles pending later work, and resuming
// picks up the remainder.
func TestBatchRunUntilBound(t *testing.T) {
	s := NewScheduler()
	count := 0
	for i := 1; i <= 5; i++ {
		s.At(Time(i)*Second, func() { count++ })
		s.At(Time(i)*Second, func() { count++ })
	}
	s.RunUntil(3 * Second)
	if count != 6 {
		t.Fatalf("RunUntil(3s) ran %d events, want 6", count)
	}
	if s.Now() != 3*Second {
		t.Fatalf("clock = %v, want exactly 3s", s.Now())
	}
	s.RunUntil(10 * Second)
	if count != 10 || s.Now() != 10*Second {
		t.Fatalf("count=%d now=%v", count, s.Now())
	}
}

// TestBatchResetClearsCounters: Reset must zero the batch counter with
// the rest of the run statistics.
func TestBatchResetClearsCounters(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 3; i++ {
		s.At(Second, func() {})
	}
	s.Run()
	if s.Batches() == 0 {
		t.Fatal("no batches recorded before reset")
	}
	s.Reset()
	if s.Batches() != 0 {
		t.Fatalf("Reset kept %d batches", s.Batches())
	}
}

// TestReservedSeqInsideBatch: an event scheduled under a reserved seq
// (AtSeqArg) by a member of a same-instant batch may precede members the
// burst already popped. It must run between them, exactly where the
// event-at-a-time reference loop runs it — coalesced sources (link rings, fan-out
// trains) re-arm this way whenever CanInline turns them down.
func TestReservedSeqInsideBatch(t *testing.T) {
	run := func(run func(*Scheduler)) string {
		s := NewScheduler()
		var trace string
		note := func(a any) { trace += a.(string) + " " }
		var held [3]uint64
		s.AtArg(Second, func(any) {
			note("a")
			// Not inlinable: b is pending at this instant with an older seq
			// than held[1] and held[2].
			if s.CanInline(Second, held[1]) {
				t.Error("CanInline let a reserved seq jump a pending batch member")
			}
			s.AtSeqArg(Second, held[2], note, "e")
			s.AtSeqArg(Second, held[0], note, "a'")
			s.AtSeqArg(Second, held[1], note, "c")
		}, nil)
		held[0] = s.ReserveSeq()
		s.AtArg(Second, note, "b")
		held[1] = s.ReserveSeq()
		s.AtArg(Second, note, "d")
		held[2] = s.ReserveSeq()
		s.AtArg(Second, note, "f")
		run(s)
		return fmt.Sprintf("%s/%d", trace, s.Processed())
	}
	const want = "a a' b c d e f /7"
	if got := run(refRun); got != want {
		t.Fatalf("event-at-a-time reference order = %q, want %q", got, want)
	}
	if got := run((*Scheduler).Run); got != want {
		t.Fatalf("batched order = %q, want %q", got, want)
	}
}
