package sim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Fatalf("FromSeconds(1.5) = %v, want 1.5s", got)
	}
	if got := (250 * Millisecond).Seconds(); got != 0.25 {
		t.Fatalf("(250 * Millisecond).Seconds() = %v, want 0.25", got)
	}
	if got := Second.Millis(); got != 1000 {
		t.Fatalf("Second.Millis() = %v, want 1000", got)
	}
	if s := (1500 * Millisecond).String(); s != "1.500000s" {
		t.Fatalf("String() = %q", s)
	}
}

func TestTimeScaleSaturates(t *testing.T) {
	if got := MaxTime.Scale(2); got != MaxTime {
		t.Fatalf("Scale should saturate, got %v", got)
	}
	if got := (2 * Second).Scale(0.5); got != Second {
		t.Fatalf("Scale(0.5) = %v, want 1s", got)
	}
}

// TestTimeConversionsSaturate: a duration too long for sim.Time becomes
// ±MaxTime, not MinInt64, which the scheduler would read as "now".
func TestTimeConversionsSaturate(t *testing.T) {
	for _, c := range []struct {
		name string
		got  Time
		want Time
	}{
		{"FromSeconds(1e30)", FromSeconds(1e30), MaxTime},
		{"FromSeconds(300 years)", FromSeconds(300 * 365 * 86400), MaxTime},
		{"FromSeconds(+Inf)", FromSeconds(math.Inf(1)), MaxTime},
		{"FromSeconds(NaN)", FromSeconds(math.NaN()), MaxTime},
		{"FromSeconds(-1e30)", FromSeconds(-1e30), -MaxTime},
		{"FromSeconds(-Inf)", FromSeconds(math.Inf(-1)), -MaxTime},
		{"Second.Scale(NaN)", Second.Scale(math.NaN()), MaxTime},
		{"MaxTime.Scale(-2)", MaxTime.Scale(-2), -MaxTime},
		{"FromSeconds(9e9)", FromSeconds(9e9), Time(9e18)},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// TestAfterSaturatesAtMaxTime: now + d past the end of time is MaxTime —
// no "scheduled in the past" panic, no firing early.
func TestAfterSaturatesAtMaxTime(t *testing.T) {
	s := NewScheduler()
	s.RunUntil(Second)
	var fired []Time
	s.After(MaxTime, func() { fired = append(fired, s.Now()) })
	s.AfterArg(MaxTime-Second/2, func(any) { fired = append(fired, s.Now()) }, nil)
	s.After(FromSeconds(1e30), func() { fired = append(fired, s.Now()) })
	s.RunUntil(MaxTime - 1)
	if len(fired) != 0 {
		t.Fatalf("saturated timers fired at %v, before MaxTime", fired)
	}
	s.Run()
	if len(fired) != 3 || fired[0] != MaxTime || fired[2] != MaxTime {
		t.Fatalf("saturated timers fired at %v, want three at MaxTime", fired)
	}
}

func TestMinMaxTime(t *testing.T) {
	if MinTime(Second, 2*Second) != Second {
		t.Fatal("MinTime wrong")
	}
	if MaxOf(Second, 2*Second) != 2*Second {
		t.Fatal("MaxOf wrong")
	}
}

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.At(3*Second, func() { order = append(order, 3) })
	s.At(1*Second, func() { order = append(order, 1) })
	s.At(2*Second, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
	if s.Now() != 3*Second {
		t.Fatalf("clock = %v, want 3s", s.Now())
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(Second, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	tm := s.At(Second, func() { fired = true })
	if !tm.Active() {
		t.Fatal("timer should be active before firing")
	}
	if !tm.Stop() {
		t.Fatal("Stop should report true for a pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestSchedulerAfterAndNesting(t *testing.T) {
	s := NewScheduler()
	var at2 Time
	s.After(Second, func() {
		s.After(Second, func() { at2 = s.Now() })
	})
	s.Run()
	if at2 != 2*Second {
		t.Fatalf("nested event at %v, want 2s", at2)
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler()
	count := 0
	for i := 1; i <= 5; i++ {
		s.At(Time(i)*Second, func() { count++ })
	}
	s.RunUntil(3 * Second)
	if count != 3 {
		t.Fatalf("RunUntil(3s) ran %d events, want 3", count)
	}
	if s.Now() != 3*Second {
		t.Fatalf("clock = %v, want exactly 3s", s.Now())
	}
	s.RunUntil(10 * Second)
	if count != 5 || s.Now() != 10*Second {
		t.Fatalf("count=%d now=%v", count, s.Now())
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		s.At(0, func() {})
	})
	s.Run()
}

func TestSchedulerNegativeAfterClamps(t *testing.T) {
	s := NewScheduler()
	ran := false
	s.After(-Second, func() { ran = true })
	s.Run()
	if !ran {
		t.Fatal("After with negative delay should run immediately")
	}
}

func TestSchedulerProcessedCount(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 7; i++ {
		s.At(Time(i), func() {})
	}
	s.Run()
	if s.Processed() != 7 {
		t.Fatalf("Processed = %d, want 7", s.Processed())
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must give same stream")
		}
	}
}

// bernoulliGeometric is the reference for Rand.Geometric: the sampler it
// replaced, which spends one Float64 per Bernoulli(p) trial up to and
// including the first success.
func bernoulliGeometric(r *Rand, p float64) int {
	n := 1
	for !r.Bool(p) {
		n++
	}
	return n
}

// geometricSample holds the sample mean, variance and share of ones of n
// draws.
type geometricSample struct{ mean, variance, p1 float64 }

func sampleGeometric(n int, draw func() int) geometricSample {
	var sum, sum2 float64
	ones := 0
	for i := 0; i < n; i++ {
		x := float64(draw())
		sum += x
		sum2 += x * x
		if x == 1 {
			ones++
		}
	}
	mean := sum / float64(n)
	return geometricSample{mean, sum2/float64(n) - mean*mean, float64(ones) / float64(n)}
}

// TestRandGeometricMean checks the inversion sampler's mean, variance and
// P(X=1) against the geometric law (1/p, (1−p)/p², p) and against the
// Bernoulli-loop reference, at loss rates spanning figure 7's range and
// beyond. Tolerances are 5 standard errors of one n-draw estimate against
// theory, 5·√2 of the difference of two against the reference; the
// variance's standard error uses the geometric kurtosis 9 + p²/(1−p).
func TestRandGeometricMean(t *testing.T) {
	const n = 100000
	for _, p := range []float64{0.005, 0.02, 0.1, 0.5, 0.9} {
		r, ref := NewRand(1), NewRand(2)
		got := sampleGeometric(n, func() int { return r.Geometric(p) })
		want := sampleGeometric(n, func() int { return bernoulliGeometric(ref, p) })
		variance := (1 - p) / (p * p)
		se := geometricSample{
			mean:     math.Sqrt(variance / n),
			variance: variance * math.Sqrt((8+p*p/(1-p))/n),
			p1:       math.Sqrt(p * (1 - p) / n),
		}
		for _, c := range []struct {
			what                string
			got, theory, ref, s float64
		}{
			{"mean", got.mean, 1 / p, want.mean, se.mean},
			{"variance", got.variance, variance, want.variance, se.variance},
			{"P(X=1)", got.p1, p, want.p1, se.p1},
		} {
			if math.Abs(c.got-c.theory) > 5*c.s {
				t.Errorf("p=%g: %s = %.5g, theory %.5g (tolerance %.3g)", p, c.what, c.got, c.theory, 5*c.s)
			}
			if math.Abs(c.got-c.ref) > 5*math.Sqrt2*c.s {
				t.Errorf("p=%g: %s = %.5g, Bernoulli reference %.5g (tolerance %.3g)", p, c.what, c.got, c.ref, 5*math.Sqrt2*c.s)
			}
		}
	}
}

func TestRandGeometricEdges(t *testing.T) {
	r := NewRand(1)
	for _, p := range []float64{1, 1.5} {
		if got := r.Geometric(p); got != 1 {
			t.Fatalf("Geometric(%v) = %d, want 1", p, got)
		}
	}
	for _, p := range []float64{0, -0.5} {
		if got := r.Geometric(p); got != 1<<30 {
			t.Fatalf("Geometric(%v) = %d, want 1<<30", p, got)
		}
	}
	// Mean 10¹²: a per-trial sampler would not return; inversion caps.
	for i := 0; i < 1000; i++ {
		if got := r.Geometric(1e-12); got < 1 || got > 1<<30 {
			t.Fatalf("Geometric(1e-12) = %d, want in [1, 1<<30]", got)
		}
	}
}

func TestRandUniformRange(t *testing.T) {
	r := NewRand(3)
	f := func(seed int64) bool {
		v := r.Uniform(2, 5)
		return v >= 2 && v < 5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the scheduler clock never moves backwards no matter the
// scheduling pattern.
func TestSchedulerMonotonicClockProperty(t *testing.T) {
	f := func(delaysMs []uint16) bool {
		s := NewScheduler()
		last := Time(0)
		ok := true
		for _, d := range delaysMs {
			s.After(Time(d)*Millisecond, func() {
				if s.Now() < last {
					ok = false
				}
				last = s.Now()
			})
		}
		s.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestReapOnPop: cancellations followed by a quiet pop-only phase must
// still compact the heap. stopSlot checks the reap threshold only on
// cancellation, so before the pop-path check a run that cancelled many
// timers and then just stepped would keep the dead majority queued and
// pay a dead-entry pop per live event for the rest of the run.
func TestReapOnPop(t *testing.T) {
	s := NewScheduler()
	const live = 8
	for i := 0; i < live; i++ {
		s.At(Time(1000+i), func() {})
	}
	// A block of far-future timers, all cancelled. Cancelling fewer than
	// half the heap never trips the threshold in stopSlot.
	var timers []Timer
	for i := 0; i < live-1; i++ {
		timers = append(timers, s.At(Time(5000+i), func() {}))
	}
	for _, tm := range timers {
		tm.Stop()
	}
	if s.Pending() != 2*live-1 {
		t.Fatalf("setup: want %d queued entries, got %d", 2*live-1, s.Pending())
	}
	// Run the live events. After the live prefix drains, the remainder is
	// all-dead; the pop path must notice and reap rather than leaving the
	// dead block queued indefinitely.
	s.RunUntil(Time(1000 + live))
	if s.Pending() != 0 {
		t.Errorf("dead entries left queued after pop-only phase: %d", s.Pending())
	}
}

// TestPeekTimeSkipsDead: PeekTime must report the earliest live event,
// not a cancelled timer's deadline.
func TestPeekTimeSkipsDead(t *testing.T) {
	s := NewScheduler()
	early := s.At(10, func() {})
	s.At(20, func() {})
	early.Stop()
	at, ok := s.PeekTime()
	if !ok || at != 20 {
		t.Fatalf("PeekTime = %v, %v; want 20, true", at, ok)
	}
	s.RunUntil(25)
	if _, ok := s.PeekTime(); ok {
		t.Error("PeekTime reports an event on a drained scheduler")
	}
}

// TestBatchRunUntilBound: RunUntil must stop at exactly the bound even
// when a same-instant pair straddles pending later work, and resuming
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

// TestBatchesCountInstants: a batch is a maximal run of consecutive
// events at one time. An event scheduled at its own instant joins the
// current batch; an event at an instant the clock only reached through
// a RunUntil bound opens a new one; inline events count like popped ones.
func TestBatchesCountInstants(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 3; i++ {
		s.At(Second, func() {})
	}
	s.At(2*Second, func() { s.At(2*Second, func() {}) })
	s.RunUntil(3 * Second) // instants 1s and 2s; the clock ends at 3s
	s.At(3*Second, func() { s.NoteInlineEvent(3 * Second) })
	s.At(4*Second, func() { s.NoteInlineEvent(5 * Second) })
	s.Run()
	if b, n := s.Batches(), s.Processed(); b != 5 || n != 9 {
		t.Fatalf("%d events in %d batches, want 9 in 5", n, b)
	}
}

// TestBatchResetClearsCounters: Reset must zero the batch counter with
// the rest of the run statistics, and the first event after it opens a
// batch even at time 0.
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
	s.At(0, func() {})
	s.Run()
	if b := s.Batches(); b != 1 {
		t.Fatalf("an event at time 0 after Reset opened %d batches, want 1", b)
	}
}

// TestReservedSeqRunsInOrder: an event scheduled under a reserved seq
// (AtSeqArg) at the current instant may precede events already queued
// for it, and runs before them, exactly where its seq places it. A
// fan-out train re-arms this way whenever CanInline turns it down.
func TestReservedSeqRunsInOrder(t *testing.T) {
	s := NewScheduler()
	var trace string
	note := func(a any) { trace += a.(string) + " " }
	var held [3]uint64
	s.AtArg(Second, func(any) {
		note("a")
		// Not inlinable: b is queued at this instant with an older seq
		// than held[1] and held[2].
		if s.CanInline(Second, held[1]) {
			t.Error("CanInline let a reserved seq jump a queued event")
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
	s.Run()
	if got, want := fmt.Sprintf("%s/%d", trace, s.Processed()), "a a' b c d e f /7"; got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
}
