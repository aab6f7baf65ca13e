package engine

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
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

// onCoordinator reports whether the calling event is being stepped by the
// goroutine that called workerPool.run, as opposed to a helper.
func onCoordinator() bool {
	buf := make([]byte, 1<<16)
	return strings.Contains(string(buf[:runtime.Stack(buf, false)]), "(*workerPool).run(")
}

// rendezvous returns an event body that waits until n events are running
// at once — which takes n goroutines — and then runs then.
func rendezvous(n int32, then func()) func() {
	var arrived atomic.Int32
	all := make(chan struct{})
	return func() {
		if arrived.Add(1) == n {
			close(all)
		}
		<-all
		then()
	}
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
	for _, workers := range []int{1, 2, 3} {
		scheds := newScheds(4)
		ss := newShardSet(scheds, workers)
		ran := make([]int, len(scheds))
		at := func(i int, when sim.Time) { scheds[i].At(when, func() { ran[i]++ }) }
		at(0, 5)
		at(1, 30) // beyond the first window
		at(3, 10)
		at(3, 10)
		if emin := ss.peek(); emin != 5 {
			t.Fatalf("workers %d: earliest pending event %d, want 5", workers, emin)
		}
		if busy := ss.stepTo(10); busy != 2 {
			t.Errorf("workers %d: window to 10 stepped %d shards, want 2", workers, busy)
		}
		if fmt.Sprint(ran) != "[1 0 0 2]" {
			t.Errorf("workers %d: events run per shard %v, want [1 0 0 2]", workers, ran)
		}
		for i, s := range scheds {
			if s.Now() != 10 {
				t.Errorf("workers %d: shard %d clock %d after the window, want 10", workers, i, s.Now())
			}
		}
		if emin := ss.peek(); emin != 30 {
			t.Errorf("workers %d: earliest pending event %d, want 30", workers, emin)
		}
		if busy := ss.stepTo(20); busy != 0 {
			t.Errorf("workers %d: empty window stepped %d shards", workers, busy)
		}
		ss.peek()
		if busy := ss.stepTo(30); busy != 1 || ran[1] != 1 {
			t.Errorf("workers %d: window to 30 stepped %d shards and ran shard 1 %d times, want 1 and 1", workers, busy, ran[1])
		}
		if emin := ss.peek(); emin != sim.MaxTime {
			t.Errorf("workers %d: drained shards report an event at %d", workers, emin)
		}
		ss.close()
	}
}

// A panic in the only busy shard of a window — stepped inline, the pool
// is not involved — reaches the control goroutine, and a sweep records it
// against the seed.
func TestShardPanicInlineWindow(t *testing.T) {
	scheds := newScheds(3)
	ss := newShardSet(scheds, 2)
	defer ss.close()
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

// A panic in a shard that a helper stepped is re-raised on the control
// goroutine once the window's other shards are done, and a sweep records
// it against the seed. The two busy shards' events wait for each other,
// so they run on two goroutines, and only the one on the helper panics.
func TestShardPanicOnHelper(t *testing.T) {
	scheds := newScheds(3)
	ss := newShardSet(scheds, 2)
	defer ss.close()
	var finished atomic.Int32
	window := func() {
		ev := rendezvous(2, func() {
			if !onCoordinator() {
				panic("boom on the helper")
			}
			finished.Add(1)
		})
		scheds[0].After(1, ev)
		scheds[2].After(1, ev)
		end := ss.peek()
		ss.stepTo(end)
	}
	if r := recovered(window); r != "boom on the helper" {
		t.Fatalf("stepTo panicked with %v", r)
	}
	if finished.Load() != 1 {
		t.Fatalf("the coordinator's shard finished %d times, want 1", finished.Load())
	}
	if e := asSeedError(t, window); !strings.Contains(e.Msg, "boom on the helper") {
		t.Fatalf("seed error %q does not carry the shard's panic", e.Msg)
	}
	// The pool is intact after a captured panic: the next window runs.
	ran := 0
	scheds[0].After(1, func() { ran++ })
	scheds[1].After(1, func() { ran++ })
	if end := ss.peek(); ss.stepTo(end) != 2 || ran != 2 {
		t.Fatalf("window after a captured panic ran %d of 2 events", ran)
	}
}

// Helpers that take a shard in every window keep being woken; the
// back-off only grows on wake-ups that bought nothing.
func TestWakeBackoffFollowsHelperUse(t *testing.T) {
	scheds := newScheds(2)
	ss := newShardSet(scheds, 2)
	defer ss.close()
	for i := 0; i < 50; i++ {
		ev := rendezvous(2, func() {})
		scheds[0].After(1, ev)
		scheds[1].After(1, ev)
		end := ss.peek()
		ss.stepTo(end)
		if ss.pool.backoff != 0 {
			t.Fatalf("window %d: helper stepped a shard, yet the pool backs off %d windows", i, ss.pool.backoff)
		}
	}
	// With one processor a woken helper cannot run before the coordinator
	// blocks, which it has no reason to do: it steps both shards itself
	// and the wake-ups stop.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 200; i++ {
		scheds[0].After(1, func() {})
		scheds[1].After(1, func() {})
		end := ss.peek()
		ss.stepTo(end)
	}
	if ss.pool.backoff < 8 {
		t.Fatalf("200 windows the helper never reached, back-off is only %d", ss.pool.backoff)
	}
}

// A parallel window allocates nothing, woken helper included: the
// descriptor is the pool's own, waking and finishing are operations on
// buffered channels.
func TestParallelWindowAllocatesNothing(t *testing.T) {
	scheds := newScheds(8)
	ss := newShardSet(scheds, 2)
	defer ss.close()
	noop := func() {}
	window := func() {
		for _, s := range scheds {
			s.After(1, noop)
		}
		ss.pool.skip = 0 // take the waking path every time
		end := ss.peek()
		if ss.stepTo(end) != len(scheds) {
			t.Fatal("not every shard was busy")
		}
	}
	window() // grow the schedulers' heaps
	if avg := testing.AllocsPerRun(2000, window); avg != 0 {
		t.Fatalf("a parallel window over 8 busy shards allocates %.2f objects", avg)
	}
}

// BenchmarkWindowBarrier times one synchronization window over 8 shards
// — peek, classify, step, barrier — with one trivial event on each busy
// shard, so ns/op is the barrier's own cost per window. (What it cannot
// show is the price of rousing a helper that is really asleep: in a loop
// this tight the helper never gets that far.)
func BenchmarkWindowBarrier(b *testing.B) {
	noop := func() {}
	for _, workers := range []int{1, 2} {
		for _, busy := range []int{0, 1, 2, 8} {
			b.Run(fmt.Sprintf("workers%d/busy%d", workers, busy), func(b *testing.B) {
				scheds := newScheds(8)
				ss := newShardSet(scheds, workers)
				defer ss.close()
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
}
