package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Fatalf("FromSeconds(1.5) = %v, want 1.5s", got)
	}
	if got := FromMillis(250).Seconds(); got != 0.25 {
		t.Fatalf("FromMillis(250).Seconds() = %v, want 0.25", got)
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

func TestRandGammaMoments(t *testing.T) {
	r := NewRand(7)
	const k, theta = 8.0, 2.0
	var sum, sum2 float64
	const n = 30000
	for i := 0; i < n; i++ {
		x := r.Gamma(k, theta)
		sum += x
		sum2 += x * x
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean-k*theta) > 0.3 {
		t.Fatalf("gamma mean = %v, want %v", mean, k*theta)
	}
	if math.Abs(variance-k*theta*theta) > 2 {
		t.Fatalf("gamma var = %v, want %v", variance, k*theta*theta)
	}
}

func TestRandGammaSmallShape(t *testing.T) {
	r := NewRand(7)
	const k, theta = 0.5, 1.0
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		x := r.Gamma(k, theta)
		if x < 0 {
			t.Fatal("gamma variate negative")
		}
		sum += x
	}
	if mean := sum / n; math.Abs(mean-k*theta) > 0.05 {
		t.Fatalf("gamma(0.5) mean = %v, want %v", mean, k*theta)
	}
}

func TestRandGammaDegenerate(t *testing.T) {
	r := NewRand(1)
	if r.Gamma(0, 1) != 0 || r.Gamma(1, 0) != 0 {
		t.Fatal("degenerate gamma should be 0")
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

// TestAdvanceToMatchesRunUntil: for a scheduler whose PeekTime says
// nothing is due by t, AdvanceTo(t) and RunUntil(t) leave the same state
// behind — clock, run bound (what CanInline admits), counters, queue —
// and the run that follows is the same.
func TestAdvanceToMatchesRunUntil(t *testing.T) {
	build := func() (*Scheduler, *[]Time) {
		s := NewScheduler()
		var ran []Time
		s.At(5, func() { ran = append(ran, s.Now()) })
		s.RunUntil(7)
		s.At(9, func() {}).Stop() // a dead entry ahead of the live ones
		s.At(30, func() { ran = append(ran, s.Now()) })
		s.At(30, func() { ran = append(ran, s.Now()) })
		return s, &ran
	}
	a, ranA := build()
	b, ranB := build()
	if at, ok := a.PeekTime(); !ok || at != 30 {
		t.Fatalf("PeekTime = %v, %v; want 30, true", at, ok)
	}
	a.AdvanceTo(20)
	b.RunUntil(20)
	for _, probe := range []Time{19, 20, 21} {
		if a.CanInline(probe, 1<<40) != b.CanInline(probe, 1<<40) {
			t.Errorf("CanInline(%d) differs after AdvanceTo and RunUntil", probe)
		}
	}
	a.RunUntil(40)
	b.RunUntil(40)
	if a.Now() != b.Now() || a.Processed() != b.Processed() || a.Batches() != b.Batches() || a.Pending() != b.Pending() {
		t.Errorf("AdvanceTo then run: now %d, %d events, %d batches, %d pending; RunUntil: %d, %d, %d, %d",
			a.Now(), a.Processed(), a.Batches(), a.Pending(), b.Now(), b.Processed(), b.Batches(), b.Pending())
	}
	if len(*ranA) != 3 || len(*ranB) != 3 || (*ranA)[2] != (*ranB)[2] {
		t.Errorf("events ran at %v after AdvanceTo, %v after RunUntil", *ranA, *ranB)
	}
	// AdvanceTo never moves the clock back.
	a.AdvanceTo(10)
	if a.Now() != 40 {
		t.Errorf("AdvanceTo into the past set the clock to %d", a.Now())
	}
}
