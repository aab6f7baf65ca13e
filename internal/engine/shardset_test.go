package engine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
)

func newScheds(k int) []*sim.Scheduler {
	scheds := make([]*sim.Scheduler, k)
	for i := range scheds {
		scheds[i] = sim.NewScheduler()
	}
	return scheds
}

// recovered runs fn and returns what it panicked with, nil if it did not.
func recovered(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// asSeedError runs fn as the only seed of a sweep and returns the error
// the sweep recorded for it.
func asSeedError(t *testing.T, fn func()) sweep.SeedError {
	t.Helper()
	_, errs := sweep.RunRaw(sweep.Config{Seeds: 1, Workers: 1, Base: 5}, func(int, int64) []*stats.Series {
		fn()
		return nil
	})
	if len(errs) != 1 || errs[0].Seed != 5 {
		t.Fatalf("sweep recorded %v, want one error for seed 5", errs)
	}
	return errs[0]
}

// A window steps exactly the shards with an event due by its end; the
// others are only moved to the window end, and every clock reads it
// afterwards.
func TestStepToSkipsIdleShards(t *testing.T) {
	scheds := newScheds(4)
	ss := newShardSet(scheds)
	ran := make([]int, len(scheds))
	at := func(i int, when sim.Time) { scheds[i].At(when, func() { ran[i]++ }) }
	at(0, 5)
	at(1, 30) // beyond the first window
	at(3, 10)
	at(3, 10)
	if emin := ss.peek(); emin != 5 {
		t.Fatalf("earliest pending event %d, want 5", emin)
	}
	if busy := ss.stepTo(10); busy != 2 {
		t.Errorf("window to 10 stepped %d shards, want 2", busy)
	}
	if fmt.Sprint(ran) != "[1 0 0 2]" {
		t.Errorf("events run per shard %v, want [1 0 0 2]", ran)
	}
	for i, s := range scheds {
		if s.Now() != 10 {
			t.Errorf("shard %d clock %d after the window, want 10", i, s.Now())
		}
	}
	if emin := ss.peek(); emin != 30 {
		t.Errorf("earliest pending event %d, want 30", emin)
	}
	if busy := ss.stepTo(20); busy != 0 {
		t.Errorf("empty window stepped %d shards", busy)
	}
	ss.peek()
	if busy := ss.stepTo(30); busy != 1 || ran[1] != 1 {
		t.Errorf("window to 30 stepped %d shards and ran shard 1 %d times, want 1 and 1", busy, ran[1])
	}
	if emin := ss.peek(); emin != sim.MaxTime {
		t.Errorf("drained shards report an event at %d", emin)
	}
}

// A panic in the only busy shard of a window reaches the caller of
// stepTo, and a sweep records it against the seed.
func TestShardPanicInlineWindow(t *testing.T) {
	scheds := newScheds(3)
	ss := newShardSet(scheds)
	window := func() {
		scheds[1].After(1, func() { panic("boom in the only busy shard") })
		end := ss.peek()
		ss.stepTo(end)
	}
	if r := recovered(window); r != "boom in the only busy shard" {
		t.Fatalf("stepTo panicked with %v", r)
	}
	if e := asSeedError(t, window); !strings.Contains(e.Msg, "only busy shard") {
		t.Fatalf("seed error %q does not carry the shard's panic", e.Msg)
	}
}

// A window with every shard busy allocates nothing.
func TestParallelWindowAllocatesNothing(t *testing.T) {
	scheds := newScheds(8)
	ss := newShardSet(scheds)
	noop := func() {}
	window := func() {
		for _, s := range scheds {
			s.After(1, noop)
		}
		end := ss.peek()
		if ss.stepTo(end) != len(scheds) {
			t.Fatal("not every shard was busy")
		}
	}
	window() // grow the schedulers' heaps
	if avg := testing.AllocsPerRun(2000, window); avg != 0 {
		t.Fatalf("a window over 8 busy shards allocates %.2f objects", avg)
	}
}

// BenchmarkWindowBarrier times one synchronization window over 8 shards
// — peek, classify, step — with one trivial event on each busy shard, so
// ns/op is the barrier's own cost per window.
func BenchmarkWindowBarrier(b *testing.B) {
	noop := func() {}
	for _, busy := range []int{0, 1, 2, 8} {
		b.Run(fmt.Sprintf("busy%d", busy), func(b *testing.B) {
			scheds := newScheds(8)
			ss := newShardSet(scheds)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, s := range scheds[:busy] {
					s.After(1, noop)
				}
				ss.peek()
				ss.stepTo(sim.Time(i + 1))
			}
		})
	}
}
