package sim

import (
	"fmt"
	"testing"
)

// rearmFunc re-arms a timer: RearmArg, or its definition, Stop followed by
// AfterArg.
type rearmFunc func(s *Scheduler, t Timer, d Time, fn func(any), arg any) Timer

func stopAndSchedule(s *Scheduler, t Timer, d Time, fn func(any), arg any) Timer {
	t.Stop()
	return s.AfterArg(d, fn, arg)
}

// staleTop reports whether the heap top is a re-armed entry whose key is
// still earlier than its slot's: the next runTop or PeekTime re-keys it.
func staleTop(s *Scheduler) bool {
	if len(s.heap) == 0 {
		return false
	}
	e := s.heap[0]
	sl := &s.slots[e.slot]
	return sl.gen == e.gen && sl.seq != e.seq
}

// rearmCounts are the vacuity guards of the re-arm oracle, counted on the
// RearmArg side.
type rearmCounts struct {
	kept, topRekeys                                int // handles kept, stale tops re-keyed by Step or PeekTime
	later, equal, earlier, inactive, top, stopThen int // re-arm cases issued
}

// rearmProgram runs a seeded program on s and returns its log: every
// dispatch with its clock, every Step, PeekTime, RunUntil slice and
// Reset, and at the end Processed, Batches, Now and the next ReserveSeq.
// The program keeps a few long timers that it pushes back RTO-style, and
// re-arms its other timers to a later, equal or earlier time; it re-arms
// zero, fired and stopped handles and the current top, stops timers just
// re-armed, and resets in the middle. Every choice depends only on the
// seed and on what handles report, so a scheduler that re-arms exactly as
// stop-and-schedule does writes the same log.
func rearmProgram(seed int64, s *Scheduler, rearm rearmFunc, c *rearmCounts) []string {
	rng := NewRand(seed)
	var (
		log    []string
		timers []Timer // by id: the program's handle for each timer
		pend   []int   // ids that may still be pending
		long   [6]int  // ids of the RTO-like timers
		fire   func(any)
	)
	logf := func(format string, a ...any) { log = append(log, fmt.Sprintf(format, a...)) }
	add := func(d Time) int {
		id := len(timers)
		timers = append(timers, s.AfterArg(d, fire, id))
		pend = append(pend, id)
		return id
	}
	// live compacts pend to the ids still pending and returns it.
	live := func() []int {
		p := pend[:0]
		for _, id := range pend {
			if timers[id].Active() {
				p = append(p, id)
			}
		}
		pend = p
		return p
	}
	// top is the pending id with the least true key, -1 if none.
	top := func() int {
		best := -1
		var bat Time
		var bseq uint64
		for _, id := range live() {
			tm := timers[id]
			at, seq := tm.At(), s.slots[tm.slot-1].seq
			if best < 0 || at < bat || at == bat && seq < bseq {
				best, bat, bseq = id, at, seq
			}
		}
		return best
	}
	re := func(id int, d Time) {
		timers[id] = rearm(s, timers[id], d, fire, id)
		pend = append(pend, id)
	}
	start := func() {
		timers, pend = timers[:0], pend[:0]
		for i := range long {
			long[i] = add(Time(3+rng.Intn(4)) * Millisecond)
		}
		for i := 0; i < 30; i++ {
			add(Time(rng.Intn(10)) * Millisecond)
		}
	}
	op := func() {
		now := s.Now()
		switch r := rng.Intn(100); {
		case r < 40: // a short event, often tied with others
			add(Time(rng.Intn(4)) * 100 * Microsecond)
		case r < 60: // push an RTO-like timer back
			c.later++
			re(long[rng.Intn(len(long))], Time(3+rng.Intn(4))*Millisecond)
		case r < 75: // a pending timer to a later, equal or earlier time
			p := live()
			if len(p) == 0 {
				return
			}
			id := p[rng.Intn(len(p))]
			at := timers[id].At()
			switch k := rng.Intn(3); {
			case k == 0:
				c.later++
				re(id, at-now+Time(1+rng.Intn(3))*100*Microsecond)
			case k == 1:
				c.equal++
				re(id, at-now)
			case at > now:
				c.earlier++
				re(id, Time(rng.Intn(int(at-now))))
			}
		case r < 82: // a fired or stopped handle, or the zero one
			id := rng.Intn(len(timers))
			if rng.Intn(4) == 0 {
				timers[id] = Timer{}
			}
			if !timers[id].Active() {
				c.inactive++
				re(id, Time(rng.Intn(3))*100*Microsecond)
			}
		case r < 88: // the current top
			if id := top(); id >= 0 {
				c.top++
				re(id, timers[id].At()-now+Time(rng.Intn(3))*100*Microsecond)
			}
		case r < 93: // re-arm, then stop
			id := long[rng.Intn(len(long))]
			c.stopThen++
			re(id, Time(2+rng.Intn(3))*Millisecond)
			logf("stop %d %v", id, timers[id].Stop())
		default:
			if p := live(); len(p) > 0 {
				id := p[rng.Intn(len(p))]
				logf("stop %d %v", id, timers[id].Stop())
			}
		}
	}
	fire = func(arg any) {
		logf("run %d at %d", arg.(int), s.Now())
		for k := rng.Intn(3); k > 0; k-- {
			op()
		}
	}
	start()
	for round := 0; round < 3000; round++ {
		switch r := rng.Intn(100); {
		case r < 45:
			if staleTop(s) {
				c.topRekeys++
			}
			logf("step %v", s.Step())
		case r < 60:
			s.RunUntil(s.Now() + Time(rng.Intn(2000))*Microsecond)
			logf("until %d", s.Now())
		case r < 70:
			if staleTop(s) {
				c.topRekeys++
			}
			at, ok := s.PeekTime()
			logf("peek %d %v", at, ok)
		case r < 99:
			op()
		default:
			s.Reset()
			logf("reset")
			start()
		}
		if len(live()) == 0 {
			start()
		}
	}
	logf("processed %d batches %d now %d seq %d", s.Processed(), s.Batches(), s.Now(), s.ReserveSeq())
	return log
}

// TestRearmMatchesStopAndSchedule runs seeded programs on two schedulers
// side by side, one re-arming with RearmArg and its twin with Stop and
// AfterArg, and requires the same log: dispatch order and clock, PeekTime
// answers, Processed, Batches, Now and the next ReserveSeq. Guards: at
// least 1000 re-arms kept their handle, at least 100 stale tops were
// re-keyed, and every re-arm case was issued.
func TestRearmMatchesStopAndSchedule(t *testing.T) {
	var c rearmCounts
	for seed := int64(1); seed <= 20; seed++ {
		s := NewScheduler()
		got := rearmProgram(seed, s, func(s *Scheduler, tm Timer, d Time, fn func(any), arg any) Timer {
			nt := s.RearmArg(tm, d, fn, arg)
			if nt == tm {
				c.kept++
			}
			return nt
		}, &c)
		want := rearmProgram(seed, NewScheduler(), stopAndSchedule, &rearmCounts{})
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d log lines, stop-and-schedule wrote %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: log diverges at line %d: %q, stop-and-schedule %q", seed, i, got[i], want[i])
			}
		}
	}
	if c.kept < 1000 || c.topRekeys < 100 {
		t.Errorf("vacuous: %d re-arms kept their handle (want ≥ 1000), %d stale tops re-keyed (want ≥ 100)", c.kept, c.topRekeys)
	}
	if c.later == 0 || c.equal == 0 || c.earlier == 0 || c.inactive == 0 || c.top == 0 || c.stopThen == 0 {
		t.Errorf("a re-arm case never ran: %+v", c)
	}
	t.Logf("%+v", c)
}

// A re-armed timer reports its new time, and PeekTime reports the true
// earliest time and leaves a genuine top.
func TestRearmPeekTimeAndAt(t *testing.T) {
	s := NewScheduler()
	nop := func(any) {}
	a := s.AfterArg(10, nop, nil)
	s.AfterArg(20, nop, nil)
	if b := s.RearmArg(a, 30, nop, nil); b != a {
		t.Fatal("re-arm to a later time did not keep the handle")
	}
	if at := a.At(); at != 30 {
		t.Errorf("At() = %d after the re-arm, want 30", at)
	}
	if !staleTop(s) {
		t.Fatal("setup: the re-armed entry is not a stale top")
	}
	if at, ok := s.PeekTime(); !ok || at != 20 {
		t.Errorf("PeekTime = %d, %v; want 20, true", at, ok)
	}
	if staleTop(s) || s.heap[0].at != 20 {
		t.Errorf("PeekTime left the top at %d, stale %v", s.heap[0].at, staleTop(s))
	}
	s.RunUntil(25)
	if at, ok := s.PeekTime(); !ok || at != 30 || staleTop(s) {
		t.Errorf("PeekTime = %d, %v with the re-armed timer alone; want 30, true", at, ok)
	}
	if s.Pending() != 1 {
		t.Errorf("%d entries queued, want the one re-armed timer", s.Pending())
	}
}

// Stop after a re-arm leaves exactly one dead entry, and the reap
// threshold removes it with the others.
func TestRearmThenStopLeavesOneDeadEntry(t *testing.T) {
	s := NewScheduler()
	nop := func(any) {}
	a := s.AfterArg(10, nop, nil)
	b := s.AfterArg(20, nop, nil)
	s.AfterArg(30, nop, nil)
	a = s.RearmArg(a, 40, nop, nil)
	a = s.RearmArg(a, 50, nop, nil)
	if s.Pending() != 3 {
		t.Fatalf("%d entries after two re-arms, want 3", s.Pending())
	}
	a.Stop()
	if s.Pending() != 3 || s.nStopped != 1 {
		t.Fatalf("after Stop: %d entries, %d dead; want 3 and 1", s.Pending(), s.nStopped)
	}
	b.Stop() // two dead of three: the threshold reaps
	if s.Pending() != 1 || s.nStopped != 0 {
		t.Fatalf("after the reap: %d entries, %d dead; want 1 and 0", s.Pending(), s.nStopped)
	}
	if at, ok := s.PeekTime(); !ok || at != 30 {
		t.Errorf("PeekTime = %d, %v; want 30, true", at, ok)
	}
}

// reap writes each live entry's true key, so a re-armed entry leaves the
// compaction genuine.
func TestReapRekeysRearmedEntries(t *testing.T) {
	s := NewScheduler()
	nop := func(any) {}
	a := s.AfterArg(10, nop, nil)
	var dead []Timer
	for i := 0; i < 4; i++ {
		dead = append(dead, s.AfterArg(Time(20+i), nop, nil))
	}
	s.RearmArg(a, 100, nop, nil)
	for _, tm := range dead[:3] {
		tm.Stop()
	}
	if s.Pending() != 2 {
		t.Fatalf("%d entries after the reap, want 2", s.Pending())
	}
	for _, e := range s.heap {
		if sl := s.slots[e.slot]; e.at != sl.at || e.seq != sl.seq {
			t.Errorf("entry keyed (%d, %d) after the reap, its slot (%d, %d)", e.at, e.seq, sl.at, sl.seq)
		}
	}
}

// CanInline compares against the top's stale key: a key later than it is
// refused even when it precedes the re-armed timer's true key.
func TestCanInlineAgainstStaleTop(t *testing.T) {
	s := NewScheduler()
	nop := func(any) {}
	a := s.AfterArg(10, nop, nil)
	var before, after bool
	s.At(0, func() {
		s.RearmArg(a, 50, nop, nil)
		seq := s.ReserveSeq()
		after = s.CanInline(20, seq)
		before = s.CanInline(5, seq)
	})
	s.RunUntil(100)
	if after {
		t.Error("CanInline(20) true with a stale top key of 10")
	}
	if !before {
		t.Error("CanInline(5) false with a stale top key of 10")
	}
}

// A slot's generation is a uint32 bumped on every release. Started two
// releases short of the wrap, one slot is armed, re-armed, cancelled,
// re-armed earlier (a release and a reuse), fired and reset through it:
// every handle issued before a release must stay inactive after it, and
// stopping one must not touch the slot's current event.
func TestTimerGenerationWraps(t *testing.T) {
	s := NewScheduler()
	fired := map[int]int{}
	fn := func(arg any) { fired[arg.(int)]++ }
	s.AfterArg(1, fn, 0).Stop()
	s.slots[0].gen = 1<<32 - 2

	t1 := s.AfterArg(10, fn, 1)
	if t1.slot != 1 || t1.gen != 1<<32-2 {
		t.Fatalf("first timer took slot %d gen %d, want slot 1 gen 2^32-2", t1.slot, t1.gen)
	}
	if s.RearmArg(t1, 20, fn, 1) != t1 {
		t.Fatal("a later re-arm changed the handle")
	}
	t1.Stop() // gen 2^32-1
	t2 := s.AfterArg(10, fn, 2)
	t3 := s.RearmArg(t2, 5, fn, 3) // earlier: released (gen wraps to 0) and reused
	if t3.slot != t1.slot || t3.gen != 0 {
		t.Fatalf("re-armed timer took slot %d gen %d, want slot %d gen 0", t3.slot, t3.gen, t1.slot)
	}
	for i, old := range []Timer{t1, t2} {
		if old.Active() || old.Stop() {
			t.Fatalf("handle %d issued before the wrap is active after it", i+1)
		}
	}
	if !t3.Active() || t3.At() != 5 {
		t.Fatalf("current timer active=%v at=%d, want active at 5", t3.Active(), t3.At())
	}
	s.Run()
	s.Reset()
	t4 := s.AfterArg(10, fn, 4)
	for i, old := range []Timer{t1, t2, t3} {
		if old.Active() || old.Stop() {
			t.Fatalf("handle %d is active after its slot fired and reset", i+1)
		}
	}
	s.Run()
	if want := map[int]int{3: 1, 4: 1}; fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	if t4.slot != t1.slot || t4.gen != 2 {
		t.Fatalf("timer after the reset took slot %d gen %d, want slot %d gen 2", t4.slot, t4.gen, t1.slot)
	}
}
