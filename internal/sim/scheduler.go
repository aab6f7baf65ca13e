package sim

import "math/bits"

// The scheduler is the innermost loop of every experiment, so it avoids
// container/heap (interface boxing, per-op dynamic dispatch) in favour of
// a hand-rolled 4-ary min-heap of small value entries, and avoids per-event
// allocations with a free-list pool of timer slots. Generation counters
// make Timer handles safe across slot reuse: a stale handle (fired or
// stopped timer) simply no-ops. Cancelled timers are removed lazily; when
// more than half the queue is dead the heap is compacted in one pass.
// The (time, seq) order has one definition, lessBit, a branch-free
// 128-bit compare, and siftDown picks the least of a full node's four
// children with masks rather than jumps. There is one dispatch body,
// runTop: Step, RunUntil and Run all pop the heap top and run it if it
// is live, one heap entry per event. The one source that parks
// events outside the heap, the fan-out trains of internal/simnet,
// reserves a seq per event (ReserveSeq, AtSeqArg) and runs them inline
// only when CanInline says nothing queued precedes them, so it does not
// change the (time, seq) order events run in. A re-armed timer
// (RearmArg) keeps its slot and its heap entry: the slot holds the true
// key, the entry an earlier stale one, and the entry is re-keyed in place
// when it reaches the top. A stale key is never later than the true one,
// so the heap still pops events in true (time, seq) order.

// Timer is a handle to a scheduled event. The zero Timer is inactive;
// cancelling an expired, cancelled, or zero timer is a no-op.
type Timer struct {
	s    *Scheduler
	slot int32 // slot index + 1; 0 marks the zero handle
	gen  uint32
}

// At returns the virtual time the timer fires, or 0 once it has fired or
// been stopped.
func (t Timer) At() Time {
	if !t.Active() {
		return 0
	}
	return t.s.slots[t.slot-1].at
}

// Stop cancels the timer. It reports whether the timer was still pending.
func (t Timer) Stop() bool {
	if !t.Active() {
		return false
	}
	t.s.stopSlot(t.slot - 1)
	return true
}

// Active reports whether the timer is still pending and not cancelled.
func (t Timer) Active() bool {
	return t.slot != 0 && t.s.slots[t.slot-1].gen == t.gen
}

// timerSlot is pooled storage for one scheduled event. gen increments on
// every release, invalidating outstanding Timer handles and heap entries.
// (at, seq) is the event's true key; the slot's heap entry may carry an
// earlier one after a RearmArg.
type timerSlot struct {
	at   Time
	seq  uint64
	fn   func(any)
	arg  any
	gen  uint32
	next int32 // free-list link
}

// callFunc runs a closure queued by At or After: its slot holds callFunc
// as fn and the closure as arg, so both kinds of event share one callback
// field and the slot stays 48 bytes.
func callFunc(f any) { f.(func())() }

// heapEntry is what actually sits in the priority queue: 24 bytes, no
// pointers into the heap, ordered by (at, seq) so simultaneous events run
// in schedule order (FIFO).
type heapEntry struct {
	at   Time
	seq  uint64
	slot int32
	gen  uint32
}

// Scheduler is a single-threaded discrete-event scheduler. Events scheduled
// for the same instant run in the order they were scheduled.
type Scheduler struct {
	now  Time
	seq  uint64
	nRun uint64

	heap     []heapEntry
	slots    []timerSlot
	free     int32 // head of the slot free list, -1 when empty
	nStopped int   // dead entries still in the heap

	runBound Time   // upper bound of the active RunUntil window
	nBatches uint64 // dispatch instants: maximal runs of events at one time
	batchAt  Time   // time of the last executed event
}

// NewScheduler returns a scheduler with the clock at zero.
func NewScheduler() *Scheduler { return &Scheduler{free: -1} }

// Batches returns the number of dispatch instants so far: a batch is a
// maximal run of consecutive events at one time, inline ones included,
// so Batches() <= Processed() and mean occupancy is their ratio.
func (s *Scheduler) Batches() uint64 { return s.nBatches }

// Reset rewinds the scheduler to its initial state — clock at zero, no
// pending events — while keeping the heap and slot storage allocated.
// Every outstanding Timer handle is invalidated (stopping one later is a
// no-op), and event closures/arguments are dropped so the GC can reclaim
// what they reference. A reset scheduler behaves bit-for-bit like a fresh
// one: event ordering depends only on (time, schedule order), never on
// slot identity.
func (s *Scheduler) Reset() {
	s.now, s.seq, s.nRun, s.nStopped = 0, 0, 0, 0
	s.runBound, s.nBatches, s.batchAt = 0, 0, 0
	clear(s.heap)
	s.heap = s.heap[:0]
	s.free = -1
	for i := range s.slots {
		sl := &s.slots[i]
		sl.gen++
		sl.fn, sl.arg = nil, nil
		sl.next = s.free
		s.free = int32(i)
	}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Processed returns the number of events executed so far.
func (s *Scheduler) Processed() uint64 { return s.nRun }

// Pending returns the number of events still queued (including cancelled
// timers that have not been reaped yet).
func (s *Scheduler) Pending() int { return len(s.heap) }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a protocol bug.
func (s *Scheduler) At(t Time, fn func()) Timer {
	return s.schedule(t, callFunc, fn)
}

// After schedules fn to run d after the current time. A negative d reads
// as 0, and the sum saturates at MaxTime.
func (s *Scheduler) After(d Time, fn func()) Timer {
	return s.schedule(s.later(d), callFunc, fn)
}

func (s *Scheduler) later(d Time) Time { return Later(s.now, max(d, 0)) }

// AtArg schedules fn(arg) at absolute time t. Unlike At it needs no
// closure: callers keep one fn per object and pass per-event state in arg,
// so scheduling a packet event allocates nothing.
func (s *Scheduler) AtArg(t Time, fn func(any), arg any) Timer {
	return s.schedule(t, fn, arg)
}

// AfterArg schedules fn(arg) to run d after the current time.
func (s *Scheduler) AfterArg(d Time, fn func(any), arg any) Timer {
	return s.schedule(s.later(d), fn, arg)
}

func (s *Scheduler) schedule(t Time, fn func(any), arg any) Timer {
	if t < s.now {
		panic("sim: event scheduled in the past")
	}
	s.seq++
	return s.scheduleSeq(t, s.seq, fn, arg)
}

func (s *Scheduler) scheduleSeq(t Time, seq uint64, fn func(any), arg any) Timer {
	si := s.free
	if si < 0 {
		s.slots = append(s.slots, timerSlot{})
		si = int32(len(s.slots) - 1)
	} else {
		s.free = s.slots[si].next
	}
	sl := &s.slots[si]
	sl.at, sl.seq, sl.fn, sl.arg = t, seq, fn, arg
	s.push(heapEntry{at: t, seq: seq, slot: si, gen: sl.gen})
	return Timer{s: s, slot: si + 1, gen: sl.gen}
}

// RearmArg is t.Stop() followed by AfterArg(d, fn, arg): the event runs
// at the same (time, seq) position and consumes the same seq. When t is
// pending on s and the new time is not earlier than its current one, it
// keeps t's slot, handle and heap entry and changes only the slot's key,
// so a timer that is pushed back on every packet (TCP's RTO) leaves no
// dead entry behind.
func (s *Scheduler) RearmArg(t Timer, d Time, fn func(any), arg any) Timer {
	at := s.later(d)
	if t.s == s && t.Active() {
		if sl := &s.slots[t.slot-1]; at >= sl.at {
			s.seq++
			sl.at, sl.seq, sl.fn, sl.arg = at, s.seq, fn, arg
			return t
		}
	}
	t.Stop()
	return s.schedule(at, fn, arg)
}

// ReserveSeq consumes and returns the next schedule-order sequence
// number without queueing anything. A coalesced event source (the
// fan-out trains) reserves one seq per event exactly as a heap push
// would, so the global (time, seq) dispatch order — and hence every
// downstream byte — is identical whether an event sits on a train or
// in the heap.
func (s *Scheduler) ReserveSeq() uint64 {
	s.seq++
	return s.seq
}

// AtSeqArg schedules fn(arg) at absolute time t under a previously
// reserved sequence number. It consumes no new seq: the event competes
// for dispatch order as if it had been pushed when seq was reserved.
func (s *Scheduler) AtSeqArg(t Time, seq uint64, fn func(any), arg any) Timer {
	if t < s.now {
		panic("sim: event scheduled in the past")
	}
	return s.scheduleSeq(t, seq, fn, arg)
}

// CanInline reports whether an event with key (t, seq) may be executed
// right now without going through the heap: it must not pass the active
// run bound, and must precede the earliest queued entry. The heap-top
// comparison is conservative — a dead (cancelled) top entry, or a
// re-armed one whose stale key is earlier than its true one, defers
// inlining until the entry is discarded or re-keyed — which only costs
// coalescing, never ordering.
func (s *Scheduler) CanInline(t Time, seq uint64) bool {
	return t <= s.runBound && (len(s.heap) == 0 || !entryLess(s.heap[0], heapEntry{at: t, seq: seq}))
}

// NoteInlineEvent accounts for one executed event at time t — one runTop
// popped, or one run outside the heap (a train copy delivered inline):
// the clock advances to t, and the processed and batch counts include it.
func (s *Scheduler) NoteInlineEvent(t Time) {
	if t != s.batchAt || s.nRun == 0 {
		s.nBatches++
		s.batchAt = t
	}
	s.now = t
	s.nRun++
}

// releaseSlot invalidates all handles/entries for the slot and returns it
// to the free list.
func (s *Scheduler) releaseSlot(si int32) {
	sl := &s.slots[si]
	sl.gen++
	sl.fn, sl.arg = nil, nil
	sl.next = s.free
	s.free = si
}

func (s *Scheduler) stopSlot(si int32) {
	s.releaseSlot(si)
	s.nStopped++
	if s.nStopped*2 > len(s.heap) {
		s.reap()
	}
}

// reap removes dead entries (whose slot generation moved on) in one pass,
// gives each live entry its slot's true key, and restores the heap
// property bottom-up.
func (s *Scheduler) reap() {
	live := s.heap[:0]
	for _, e := range s.heap {
		if sl := &s.slots[e.slot]; sl.gen == e.gen {
			e.at, e.seq = sl.at, sl.seq
			live = append(live, e)
		}
	}
	for i := len(live); i < len(s.heap); i++ {
		s.heap[i] = heapEntry{}
	}
	s.heap = live
	s.nStopped = 0
	if len(s.heap) > 1 {
		for i := (len(s.heap) - 2) / 4; i >= 0; i-- {
			s.siftDown(i)
		}
	}
}

// lessBit is 1 when a orders before b, else 0: the borrow out of the
// 128-bit subtraction (a.at, a.seq) − (b.at, b.seq), with at's sign bit
// flipped so the signed times compare as unsigned. It is the only
// definition of the order: entryLess and least are built on it.
func lessBit(a, b heapEntry) uint64 {
	const sign = 1 << 63
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at)^sign, uint64(b.at)^sign, borrow)
	return borrow
}

func entryLess(a, b heapEntry) bool { return lessBit(a, b) != 0 }

// least returns the key of the lesser of x (at index i) and y (at j) and
// that index, selected with a mask rather than a branch. Only at and seq
// are selected; the returned entry's other fields are x's.
func least(x heapEntry, i int, y heapEntry, j int) (heapEntry, int) {
	m := -lessBit(y, x)
	x.at ^= (x.at ^ y.at) & Time(m)
	x.seq ^= (x.seq ^ y.seq) & m
	return x, i ^ (i^j)&int(m)
}

func (s *Scheduler) push(e heapEntry) {
	s.heap = append(s.heap, e)
	// Sift up.
	h := s.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !entryLess(e, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// popTop removes the minimum entry.
func (s *Scheduler) popTop() {
	h := s.heap
	n := len(h) - 1
	h[0] = h[n]
	h[n] = heapEntry{}
	s.heap = h[:n]
	if n > 1 {
		s.siftDown(0)
	}
}

func (s *Scheduler) siftDown(i int) {
	h := s.heap
	n := len(h)
	e := h[i]
	// Full nodes: pick the least of the four children as a two-round
	// tournament of mask selects, with no jumps. The keys are random, so a
	// compare-and-branch per child mispredicts about as often as not.
	for c := i*4 + 1; c+4 <= n; c = i*4 + 1 {
		kids := (*[4]heapEntry)(h[c : c+4])
		x, best := least(kids[0], 0, kids[1], 1)
		y, j := least(kids[2], 2, kids[3], 3)
		x, best = least(x, best, y, j)
		if !entryLess(x, e) {
			h[i] = e
			return
		}
		h[i] = kids[best&3]
		i = c + best&3
	}
	// The last, partial node.
	for {
		c := i*4 + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if entryLess(h[j], h[best]) {
				best = j
			}
		}
		if !entryLess(h[best], e) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = e
}

// noteDeadPop accounts for one dead entry removed from the heap top and
// reaps when the remainder is still majority-dead. stopSlot only checks
// the threshold on cancellation, so without this a long cancel-heavy run
// that goes quiet (no further pushes) would keep dead timers queued and
// pay a dead-entry pop per live event indefinitely.
func (s *Scheduler) noteDeadPop() {
	if s.nStopped > 0 {
		s.nStopped--
	}
	if s.nStopped*2 > len(s.heap) {
		s.reap()
	}
}

// rekeyTop gives a re-armed top entry its slot's true key and sifts it
// down to where that key belongs.
func (s *Scheduler) rekeyTop(sl *timerSlot) {
	s.heap[0].at, s.heap[0].seq = sl.at, sl.seq
	s.siftDown(0)
}

// runTop runs exactly the heap top if it is live and its key is true; it
// reports whether it ran. A dead top is popped, and a re-armed top is
// re-keyed in place, without running anything.
func (s *Scheduler) runTop() bool {
	e := s.heap[0]
	sl := &s.slots[e.slot]
	if sl.gen != e.gen {
		s.popTop()
		s.noteDeadPop()
		return false
	}
	if sl.seq != e.seq {
		s.rekeyTop(sl)
		return false
	}
	s.popTop()
	fn, arg := sl.fn, sl.arg
	s.releaseSlot(e.slot)
	s.NoteInlineEvent(e.at)
	fn(arg)
	return true
}

// Step runs the next event outside any run window and reports false when
// the queue is empty.
func (s *Scheduler) Step() bool {
	for len(s.heap) > 0 {
		if s.runTop() {
			return true
		}
	}
	return false
}

// RunUntil executes events until the clock would pass t; afterwards the
// clock reads exactly t. Events at exactly t are executed.
func (s *Scheduler) RunUntil(t Time) {
	s.runBound = t
	s.drain(t)
	if s.now < t {
		s.now = t
	}
	s.runBound = s.now
}

// Run executes events until the queue drains.
func (s *Scheduler) Run() {
	s.runBound = MaxTime
	s.drain(MaxTime)
	s.runBound = s.now
}

// drain runs events up to and including time t and leaves the clock at
// the last one (callers decide whether to advance to t). It is PeekTime
// fused with runTop: a dead top is discarded even past t, so a block of
// cancelled timers beyond the bound is reaped rather than left queued,
// and a live top stops the loop once it is past t. A stale key is never
// later than the true one, so a top whose stale key is past t is too.
func (s *Scheduler) drain(t Time) {
	for len(s.heap) > 0 {
		if e := s.heap[0]; e.at > t && s.slots[e.slot].gen == e.gen {
			return
		}
		s.runTop()
	}
}

// PeekTime returns the time of the earliest pending live event. ok is
// false when no live event is queued. Dead entries blocking the top are
// discarded on the way, so a PeekTime after a burst of cancellations is
// O(dead) once, then O(1); a re-armed top is re-keyed, so the time is the
// true one.
func (s *Scheduler) PeekTime() (t Time, ok bool) {
	for len(s.heap) > 0 {
		e := s.heap[0]
		sl := &s.slots[e.slot]
		switch {
		case sl.gen != e.gen:
			s.popTop()
			s.noteDeadPop()
		case sl.seq != e.seq:
			s.rekeyTop(sl)
		default:
			return e.at, true
		}
	}
	return 0, false
}
