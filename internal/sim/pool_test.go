package sim

import (
	"container/heap"
	"testing"
)

// TestTimerReapOnStop is the regression test for the cancelled-timer leak:
// Stop used to leave dead entries in the heap forever on workloads that
// never drain. The scheduler must compact once more than half the queue
// is dead.
func TestTimerReapOnStop(t *testing.T) {
	s := NewScheduler()
	timers := make([]Timer, 1000)
	for i := range timers {
		timers[i] = s.After(3600*Second, func() {})
	}
	if s.Pending() != 1000 {
		t.Fatalf("Pending = %d, want 1000", s.Pending())
	}
	for i := 0; i < 501; i++ {
		if !timers[i].Stop() {
			t.Fatalf("Stop %d reported not pending", i)
		}
	}
	// Stopping the 501st timer pushes the dead fraction past 1/2; the
	// reap must leave only live entries behind.
	if s.Pending() != 499 {
		t.Fatalf("Pending = %d after stopping 501 of 1000, want 499 (reaped)", s.Pending())
	}
	for i := 501; i < 1000; i++ {
		if !timers[i].Active() {
			t.Fatalf("live timer %d lost by reap", i)
		}
	}
}

// TestTimerChurnBounded models a repeatedly rescheduled feedback timer on
// a workload that never drains: the queue must stay bounded.
func TestTimerChurnBounded(t *testing.T) {
	s := NewScheduler()
	s.After(3600*Second, func() {}) // one long-lived live event
	var tm Timer
	for i := 0; i < 100000; i++ {
		tm.Stop()
		tm = s.After(60*Second, func() {})
		if s.Pending() > 8 {
			t.Fatalf("queue grew to %d entries under stop/reschedule churn", s.Pending())
		}
	}
}

// TestTimerHandleGenerations proves stale handles are inert after their
// slot is reused by a later timer.
func TestTimerHandleGenerations(t *testing.T) {
	s := NewScheduler()
	fired := 0
	t1 := s.After(Second, func() { fired++ })
	if !t1.Stop() {
		t.Fatal("Stop on pending timer should report true")
	}
	t2 := s.After(Second, func() { fired++ }) // reuses t1's slot
	if t1.Active() {
		t.Fatal("stale handle reports active")
	}
	if t1.Stop() {
		t.Fatal("stale handle's Stop must be a no-op")
	}
	if !t2.Active() {
		t.Fatal("new timer should be active")
	}
	s.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (stale Stop must not cancel the new timer)", fired)
	}
	var zero Timer
	if zero.Active() || zero.Stop() {
		t.Fatal("zero Timer must be inactive and unstoppable")
	}
}

func TestSchedulerAtArg(t *testing.T) {
	s := NewScheduler()
	var got []int
	add := func(a any) { got = append(got, a.(int)) }
	s.AtArg(2*Second, add, 2)
	s.AfterArg(Second, add, 1)
	s.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("AtArg order = %v", got)
	}
}

// --- reference scheduler: the original container/heap implementation ----

type refTimer struct {
	at      Time
	seq     uint64
	index   int
	fn      func()
	stopped bool
}

type refHeap []*refTimer

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	t := x.(*refTimer)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*h = old[:n-1]
	return t
}

type refSched struct {
	now    Time
	events refHeap
	seq    uint64
	nRun   uint64
}

func (s *refSched) after(d Time, fn func()) func() bool {
	if d < 0 {
		d = 0
	}
	s.seq++
	return s.push(s.now+d, s.seq, fn)
}

// push queues fn under an explicit (at, seq) key and returns its cancel.
func (s *refSched) push(at Time, seq uint64, fn func()) func() bool {
	tm := &refTimer{at: at, seq: seq, fn: fn, index: -1}
	heap.Push(&s.events, tm)
	return func() bool {
		if tm.stopped || tm.index < 0 {
			return false
		}
		tm.stopped = true
		return true
	}
}

func (s *refSched) run() {
	for len(s.events) > 0 {
		tm := heap.Pop(&s.events).(*refTimer)
		if tm.stopped {
			continue
		}
		s.now = tm.at
		s.nRun++
		tm.fn()
	}
}

// driver abstracts old and new schedulers so the same random program runs
// against both.
type schedDriver struct {
	after     func(d Time, fn func()) func() bool
	run       func()
	now       func() Time
	processed func() uint64
}

// runProgram executes a deterministic pseudo-random scheduling program:
// events schedule follow-up events and cancel earlier timers, all driven
// by a seeded RNG. It returns the order in which event IDs executed.
func runProgram(seed int64, d schedDriver) (order []int, processed uint64, end Time) {
	rng := NewRand(seed)
	var stops []func() bool
	nextID := 0
	var spawn func(depth int) func()
	spawn = func(depth int) func() {
		id := nextID
		nextID++
		return func() {
			order = append(order, id)
			if depth >= 4 {
				return
			}
			// Schedule 0-2 follow-ups at possibly colliding times.
			for k := rng.Intn(3); k > 0; k-- {
				delay := Time(rng.Intn(5)) * Millisecond
				stops = append(stops, d.after(delay, spawn(depth+1)))
			}
			// Sometimes cancel a random earlier timer.
			if len(stops) > 0 && rng.Intn(2) == 0 {
				stops[rng.Intn(len(stops))]()
			}
		}
	}
	for i := 0; i < 50; i++ {
		stops = append(stops, d.after(Time(rng.Intn(10))*Millisecond, spawn(0)))
	}
	d.run()
	return order, d.processed(), d.now()
}

// TestSchedulerMatchesReferenceOrder checks the FIFO-among-simultaneous-
// events invariant end to end: the pooled 4-ary heap must execute the
// exact event sequence the original container/heap scheduler executed,
// including under cancellations.
func TestSchedulerMatchesReferenceOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		ref := &refSched{}
		refOrder, refN, refEnd := runProgram(seed, schedDriver{
			after:     ref.after,
			run:       ref.run,
			now:       func() Time { return ref.now },
			processed: func() uint64 { return ref.nRun },
		})
		s := NewScheduler()
		newOrder, newN, newEnd := runProgram(seed, schedDriver{
			after: func(d Time, fn func()) func() bool {
				tm := s.After(d, fn)
				return tm.Stop
			},
			run:       s.Run,
			now:       s.Now,
			processed: s.Processed,
		})
		if len(refOrder) != len(newOrder) {
			t.Fatalf("seed %d: executed %d events, reference executed %d",
				seed, len(newOrder), len(refOrder))
		}
		for i := range refOrder {
			if refOrder[i] != newOrder[i] {
				t.Fatalf("seed %d: event order diverges at %d: got %d, reference %d",
					seed, i, newOrder[i], refOrder[i])
			}
		}
		if refN != newN {
			t.Fatalf("seed %d: Processed = %d, reference %d", seed, newN, refN)
		}
		if refEnd != newEnd {
			t.Fatalf("seed %d: final clock = %v, reference %v", seed, newEnd, refEnd)
		}
	}
}
