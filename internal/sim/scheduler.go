package sim

// The scheduler is the innermost loop of every experiment, so it avoids
// container/heap (interface boxing, per-op dynamic dispatch) in favour of
// a hand-rolled 4-ary min-heap of small value entries, and avoids per-event
// allocations with a free-list pool of timer slots. Generation counters
// make Timer handles safe across slot reuse: a stale handle (fired or
// stopped timer) simply no-ops. Cancelled timers are removed lazily; when
// more than half the queue is dead the heap is compacted in one pass.
// There is one dispatch loop (batchDrain): it pops each run of
// same-timestamp events in one heap pass, and coalesced sources park
// arrivals outside the heap under reserved seqs (ReserveSeq, AtSeqArg,
// CanInline), so neither changes the (time, seq) order events run in.

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
type timerSlot struct {
	at    Time
	fn    func()
	fnArg func(any)
	arg   any
	gen   uint32
	next  int32 // free-list link
}

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

	runBound Time        // upper bound of the active RunUntil window
	nBatches uint64      // dispatch batches executed
	batchBuf []heapEntry // scratch for one same-timestamp run
	pendAt   Time        // key of the next undispatched batch member…
	pendSeq  uint64      // …0 when no batch member is pending
}

// NewScheduler returns a scheduler with the clock at zero.
func NewScheduler() *Scheduler { return &Scheduler{free: -1} }

// Batches returns the number of dispatch batches RunUntil and Run have
// executed so far. Mean batch occupancy is Processed()/Batches().
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
	s.runBound, s.nBatches = 0, 0
	s.pendAt, s.pendSeq = 0, 0
	clear(s.heap)
	s.heap = s.heap[:0]
	s.free = -1
	for i := range s.slots {
		sl := &s.slots[i]
		sl.gen++
		sl.fn, sl.fnArg, sl.arg = nil, nil, nil
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
	return s.schedule(t, fn, nil, nil)
}

// After schedules fn to run d after the current time.
func (s *Scheduler) After(d Time, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return s.schedule(s.now+d, fn, nil, nil)
}

// AtArg schedules fn(arg) at absolute time t. Unlike At it needs no
// closure: callers keep one fn per object and pass per-event state in arg,
// so scheduling a packet event allocates nothing.
func (s *Scheduler) AtArg(t Time, fn func(any), arg any) Timer {
	return s.schedule(t, nil, fn, arg)
}

// AfterArg schedules fn(arg) to run d after the current time.
func (s *Scheduler) AfterArg(d Time, fn func(any), arg any) Timer {
	if d < 0 {
		d = 0
	}
	return s.schedule(s.now+d, nil, fn, arg)
}

func (s *Scheduler) schedule(t Time, fn func(), fnArg func(any), arg any) Timer {
	if t < s.now {
		panic("sim: event scheduled in the past")
	}
	s.seq++
	return s.scheduleSeq(t, s.seq, fn, fnArg, arg)
}

func (s *Scheduler) scheduleSeq(t Time, seq uint64, fn func(), fnArg func(any), arg any) Timer {
	si := s.free
	if si < 0 {
		s.slots = append(s.slots, timerSlot{})
		si = int32(len(s.slots) - 1)
	} else {
		s.free = s.slots[si].next
	}
	sl := &s.slots[si]
	sl.at, sl.fn, sl.fnArg, sl.arg = t, fn, fnArg, arg
	s.push(heapEntry{at: t, seq: seq, slot: si, gen: sl.gen})
	return Timer{s: s, slot: si + 1, gen: sl.gen}
}

// ReserveSeq consumes and returns the next schedule-order sequence
// number without queueing anything. Coalesced event sources (the link
// arrival rings) reserve one seq per event exactly as a heap push
// would, so the global (time, seq) dispatch order — and hence every
// downstream byte — is identical whether an arrival sits in a ring or
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
	return s.scheduleSeq(t, seq, nil, fn, arg)
}

// CanInline reports whether an event with key (t, seq) may be executed
// right now without going through the heap: it must not pass the active
// run bound, and must precede the earliest queued entry. The heap-top
// comparison is conservative — a dead (cancelled) top entry defers
// inlining until the dead entry is discarded — which only costs
// coalescing, never ordering.
func (s *Scheduler) CanInline(t Time, seq uint64) bool {
	if t > s.runBound {
		return false
	}
	// A batch member popped off the heap but not yet dispatched is just
	// as much "earliest queued" as the heap top: batched dispatch
	// publishes the next member's key here so inlined arrivals cannot
	// jump ahead of it.
	if s.pendSeq != 0 && (s.pendAt < t || (s.pendAt == t && s.pendSeq < seq)) {
		return false
	}
	if len(s.heap) > 0 {
		top := s.heap[0]
		if top.at < t || (top.at == t && top.seq < seq) {
			return false
		}
	}
	return true
}

// NoteInlineEvent accounts for one event executed outside the heap (a
// coalesced ring arrival drained inline): the clock advances to t and
// the processed count — and the occupancy of the current dispatch
// batch — include it, exactly as if it had been popped.
func (s *Scheduler) NoteInlineEvent(t Time) {
	s.now = t
	s.nRun++
}

// releaseSlot invalidates all handles/entries for the slot and returns it
// to the free list.
func (s *Scheduler) releaseSlot(si int32) {
	sl := &s.slots[si]
	sl.gen++
	sl.fn, sl.fnArg, sl.arg = nil, nil, nil
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

// reap removes dead entries (whose slot generation moved on) in one pass
// and restores the heap property bottom-up.
func (s *Scheduler) reap() {
	live := s.heap[:0]
	for _, e := range s.heap {
		if s.slots[e.slot].gen == e.gen {
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

func entryLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
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

// runTop pops exactly the heap top and runs it if it is live; it reports
// whether it was.
func (s *Scheduler) runTop() bool {
	e := s.heap[0]
	s.popTop()
	sl := &s.slots[e.slot]
	if sl.gen != e.gen {
		s.noteDeadPop()
		return false
	}
	fn, fnArg, arg := sl.fn, sl.fnArg, sl.arg
	s.releaseSlot(e.slot)
	s.now = e.at
	s.nRun++
	if fn != nil {
		fn()
	} else {
		fnArg(arg)
	}
	return true
}

// Step runs the next event outside any run window and reports false when
// the queue is empty. RunUntil and Run do not go through it; the
// event-at-a-time reference loop the tests compare them against does.
func (s *Scheduler) Step() bool {
	for len(s.heap) > 0 {
		if s.runTop() {
			return true
		}
	}
	return false
}

// RunUntil executes events until the clock would pass t; afterwards the
// clock reads exactly t. Events at exactly t are executed. Dispatch is
// in bursts: the maximal run of same-timestamp entries is popped in one
// heap pass and dispatched as a slice, re-checking each entry's
// generation at dispatch time so a member cancelled by an earlier member
// still no-ops. Events a member schedules at the same instant land in a
// follow-up batch — their seqs are higher than every popped member's,
// so (time, seq) order is preserved bit-for-bit; the one exception, an
// AtSeqArg under an older reserved seq, is run between the members it
// falls between.
func (s *Scheduler) RunUntil(t Time) {
	s.runBound = t
	s.batchDrain(t)
	if s.now < t {
		s.now = t
	}
	s.runBound = s.now
}

// AdvanceTo moves the clock to t without dispatching anything. It is
// RunUntil(t) for a caller that has just learnt from PeekTime that no
// live event is due at or before t — the region engine's idle shards —
// and leaves the scheduler in exactly the state RunUntil would have.
func (s *Scheduler) AdvanceTo(t Time) {
	if s.now < t {
		s.now = t
	}
	s.runBound = s.now
}

// batchDrain is the burst loop shared by RunUntil and Run: it
// executes batches up to and including time t but leaves the clock at
// the last dispatched event (callers decide whether to advance to t).
func (s *Scheduler) batchDrain(t Time) {
	for len(s.heap) > 0 {
		// Discard dead entries at the top first, so a block of cancelled
		// timers beyond the bound is reaped rather than left queued, and
		// the peeked time is a live event's.
		for len(s.heap) > 0 && s.slots[s.heap[0].slot].gen != s.heap[0].gen {
			s.popTop()
			s.noteDeadPop()
		}
		if len(s.heap) == 0 {
			break
		}
		at := s.heap[0].at
		if at > t {
			break
		}
		e := s.heap[0]
		s.popTop()
		if len(s.heap) == 0 || s.heap[0].at != at {
			// Singleton batch — the common case on sparse timelines:
			// dispatch without staging. The entry is live (the dead-discard
			// loop above ran) and pendSeq is already 0.
			s.nBatches++
			sl := &s.slots[e.slot]
			fn, fnArg, arg := sl.fn, sl.fnArg, sl.arg
			s.releaseSlot(e.slot)
			s.now = e.at
			s.nRun++
			if fn != nil {
				fn()
			} else {
				fnArg(arg)
			}
			continue
		}
		// Collect the run of entries at this timestamp. Dead entries are
		// carried along and skipped at dispatch; they cost a slot in the
		// batch but no callback.
		buf := append(s.batchBuf[:0], e)
		for len(s.heap) > 0 && s.heap[0].at == at {
			buf = append(buf, s.heap[0])
			s.popTop()
		}
		s.batchBuf = buf[:0] // keep grown capacity for the next batch
		s.nBatches++
		for i, e := range buf {
			// An earlier member may have scheduled an event at this very
			// instant under a reserved seq (AtSeqArg) that precedes e. It
			// sits in the heap, not in buf, and must run first.
			for len(s.heap) > 0 && s.heap[0].at == at && s.heap[0].seq < e.seq {
				s.pendAt, s.pendSeq = at, e.seq
				s.runTop()
			}
			sl := &s.slots[e.slot]
			if sl.gen != e.gen {
				s.noteDeadPop()
				continue
			}
			if i+1 < len(buf) {
				s.pendAt, s.pendSeq = at, buf[i+1].seq
			} else {
				s.pendSeq = 0
			}
			fn, fnArg, arg := sl.fn, sl.fnArg, sl.arg
			s.releaseSlot(e.slot)
			s.now = e.at
			s.nRun++
			if fn != nil {
				fn()
			} else {
				fnArg(arg)
			}
		}
		s.pendSeq = 0
	}
}

// PeekTime returns the time of the earliest pending live event. ok is
// false when no live event is queued. Dead entries blocking the top are
// discarded on the way, so a PeekTime after a burst of cancellations is
// O(dead) once, then O(1).
func (s *Scheduler) PeekTime() (t Time, ok bool) {
	for len(s.heap) > 0 && s.slots[s.heap[0].slot].gen != s.heap[0].gen {
		s.popTop()
		s.noteDeadPop()
	}
	if len(s.heap) == 0 {
		return 0, false
	}
	return s.heap[0].at, true
}

// Run executes events until the queue drains.
func (s *Scheduler) Run() {
	s.runBound = MaxTime
	s.batchDrain(MaxTime)
	s.runBound = s.now
}
