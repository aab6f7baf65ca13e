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

// TestArenaTakePut covers the keyed positional pool.
func TestArenaTakePut(t *testing.T) {
	a := NewArena()
	if a.Take("x") != nil {
		t.Fatal("empty arena returned an object")
	}
	a.Put("x", 1)
	a.Put("x", 2)
	a.Put("y", 3)
	if a.Take("x") != nil {
		t.Fatal("freshly put objects must not be handed out in the same run")
	}
	a.Rewind()
	if v := a.Take("x"); v != 1 {
		t.Fatalf("Take = %v, want 1", v)
	}
	if v := a.Take("y"); v != 3 {
		t.Fatalf("Take = %v, want 3", v)
	}
	if v := a.Take("x"); v != 2 {
		t.Fatalf("Take = %v, want 2", v)
	}
	if a.Take("x") != nil {
		t.Fatal("exhausted pool returned an object")
	}
	a.Put("x", 4)
	a.Rewind()
	for want := 1; want <= 4; want++ {
		if _, ok := map[int]bool{1: true, 2: true, 4: true}[want]; !ok {
			continue
		}
		if v := a.Take("x"); v != want {
			t.Fatalf("after rewind Take = %v, want %d", v, want)
		}
	}
}
