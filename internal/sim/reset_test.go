package sim

import (
	"fmt"
	"testing"
)

// TestSchedulerResetBitIdentical: a reset scheduler must run an event
// program exactly like a fresh one — same order, same clock, same
// Processed count — while keeping its storage.
func TestSchedulerResetBitIdentical(t *testing.T) {
	program := func(s *Scheduler) string {
		var out []string
		emit := func(tag string) func() {
			return func() { out = append(out, fmt.Sprintf("%s@%v", tag, s.Now())) }
		}
		s.At(3*Millisecond, emit("c"))
		s.At(Millisecond, emit("a"))
		tm := s.At(2*Millisecond, emit("cancelled"))
		s.At(Millisecond, emit("b")) // same instant as a: FIFO order
		s.AfterArg(4*Millisecond, func(v any) { out = append(out, fmt.Sprintf("arg%v@%v", v, s.Now())) }, 7)
		tm.Stop()
		s.Run()
		return fmt.Sprintf("%v n=%d now=%v", out, s.Processed(), s.Now())
	}

	s := NewScheduler()
	fresh := program(s)
	for i := 0; i < 3; i++ {
		s.Reset()
		if got := program(s); got != fresh {
			t.Fatalf("reset run %d diverged:\n%s\nvs\n%s", i, got, fresh)
		}
	}
}

// TestSchedulerResetInvalidatesTimers: handles from before the reset must
// be inert — Stop is a no-op and the event never fires.
func TestSchedulerResetInvalidatesTimers(t *testing.T) {
	s := NewScheduler()
	fired := false
	tm := s.At(Second, func() { fired = true })
	s.Reset()
	if tm.Active() {
		t.Fatal("stale timer still active after Reset")
	}
	if tm.Stop() {
		t.Fatal("stopping a stale timer reported success")
	}
	// A new timer scheduled after reset must not be confused with the old
	// slot generation.
	ran := false
	s.At(Millisecond, func() { ran = true })
	s.Run()
	if fired {
		t.Fatal("pre-reset event fired")
	}
	if !ran {
		t.Fatal("post-reset event lost")
	}
	if s.Now() != Millisecond {
		t.Fatalf("clock at %v, want 1ms", s.Now())
	}
}

// TestSchedulerResetReusesSlots: after a reset, scheduling must not grow
// the slot table.
func TestSchedulerResetReusesSlots(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 100; i++ {
		s.After(Time(i)*Millisecond, func() {})
	}
	s.Run()
	slots := len(s.slots)
	s.Reset()
	for i := 0; i < 100; i++ {
		s.After(Time(i)*Millisecond, func() {})
	}
	if len(s.slots) != slots {
		t.Fatalf("slot table grew across Reset: %d -> %d", slots, len(s.slots))
	}
}

// TestPooled covers the by-type positional pool: within a run every call
// allocates a fresh object, and after a rewind each type's objects come
// back in the order they were first handed out, fresh ones after them.
func TestPooled(t *testing.T) {
	type x struct{ v int }
	type y struct{ v int }
	a := NewArena()
	x1, y1, x2 := Pooled[x](a), Pooled[y](a), Pooled[x](a)
	if x1 == x2 {
		t.Fatal("one run got the same object twice")
	}
	x1.v, x2.v, y1.v = 1, 2, 3
	a.Rewind()
	if got := Pooled[x](a); got != x1 {
		t.Fatalf("first x after rewind = %+v, want %+v", got, x1)
	}
	if got := Pooled[y](a); got != y1 {
		t.Fatalf("first y after rewind = %+v, want %+v", got, y1)
	}
	if got := Pooled[x](a); got != x2 {
		t.Fatalf("second x after rewind = %+v, want %+v", got, x2)
	}
	x3 := Pooled[x](a)
	if x3 == x1 || x3 == x2 || x3.v != 0 {
		t.Fatalf("exhausted pool handed out %+v, want a fresh zero x", x3)
	}
	a.Rewind()
	for i, want := range []*x{x1, x2, x3} {
		if got := Pooled[x](a); got != want {
			t.Fatalf("x %d after second rewind = %p, want %p", i, got, want)
		}
	}
}
