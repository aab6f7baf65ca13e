package lossrate

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sim"
)

// refHistory is the prepend-by-copy reference for the loss-interval
// history: it builds a fresh slice on every loss event and every
// re-aggregation split, the way the estimator did before it shifted in
// place, and it keeps the recent-loss records newest last, dropping the
// oldest by a copy, the way the estimator did before it kept them in a
// ring. Everything that does not restructure the history is delegated to
// a real Estimator that is fed the same operations.
type refHistory struct {
	depth     int
	intervals []int
	initIdx   int
	recent    []lossRecord
}

func (r *refHistory) recordLoss(t sim.Time, newEvent bool) {
	rec := lossRecord{t: t, newEvent: newEvent}
	if n := len(r.recent); n >= 4*r.depth {
		copy(r.recent, r.recent[1:])
		r.recent[n-1] = rec
		return
	}
	r.recent = append(r.recent, rec)
}

// reaggregate is Reaggregate over the copy-shifted records.
func (r *refHistory) reaggregate(rtt sim.Time) int {
	if len(r.recent) < 2 {
		return 0
	}
	prevEvents := 0
	for _, l := range r.recent {
		if l.newEvent {
			prevEvents++
		}
	}
	events := 1
	start := r.recent[0].t
	for _, l := range r.recent[1:] {
		if l.t >= start+rtt {
			events++
			start = l.t
		}
	}
	extra := events - prevEvents
	if split := r.split(extra); split < extra {
		return split
	}
	return max(extra, 0)
}

func (r *refHistory) onNewEvent() {
	r.intervals[0]++
	r.intervals = append([]int{0}, r.intervals...)
	if len(r.intervals) > r.depth+1 {
		r.intervals = r.intervals[:r.depth+1]
	}
	if r.initIdx >= 0 {
		r.initIdx++
		if r.initIdx >= len(r.intervals) {
			r.initIdx = -1
		}
	}
}

func (r *refHistory) split(extra int) int {
	for i := 0; i < extra; i++ {
		if len(r.intervals) < 2 || r.intervals[1] < 2 {
			return i
		}
		half := r.intervals[1] / 2
		r.intervals[1] -= half
		rest := append([]int{half}, r.intervals[1:]...)
		r.intervals = append([]int{r.intervals[0]}, rest...)
		if len(r.intervals) > r.depth+1 {
			r.intervals = r.intervals[:r.depth+1]
		}
	}
	return extra
}

// TestInPlaceHistoryMatchesPrependReference drives random operation
// sequences — packets one at a time and in bulk (OnPackets, k = 0
// included), losses inside and outside the current loss event,
// Appendix B initialisation and adjustment, Appendix A re-aggregation —
// through estimators of inline and spilled depth and checks the history
// after every operation, and each re-aggregation's count. Every run
// records more than 4·depth losses, so the recent-loss ring has wrapped
// before the later re-aggregations read it oldest first.
func TestInPlaceHistoryMatchesPrependReference(t *testing.T) {
	for _, depth := range []int{1, 2, 8, 9, 32} {
		wrapped := 0
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			e := NewEstimator(Weights(depth))
			ref := &refHistory{depth: len(e.weights), intervals: []int{0}, initIdx: -1}
			now := sim.Time(0)
			for op := 0; op < 900; op++ {
				switch k := rng.Intn(11); {
				case k < 5:
					for i := rng.Intn(30); i >= 0; i-- {
						e.OnPacket()
						ref.intervals[0]++
					}
				case k == 10:
					n := rng.Intn(30)
					e.OnPackets(n)
					ref.intervals[0] += n
				case k < 8:
					now += sim.Time(rng.Intn(120)) * sim.Millisecond
					newEvent := e.OnLoss(now, 50*sim.Millisecond)
					if newEvent {
						ref.onNewEvent()
					}
					ref.recordLoss(now, newEvent)
				case k == 8:
					if rng.Intn(2) == 0 {
						p := 1 + rng.Intn(200)
						e.InitFirstInterval(p)
						if len(ref.intervals) >= 2 {
							ref.intervals[1], ref.initIdx = p, 1
						}
					} else if ref.initIdx >= 1 {
						e.AdjustInitInterval(0.25)
						v := float64(ref.intervals[ref.initIdx]) * 0.25
						ref.intervals[ref.initIdx], ref.initIdx = int(max(v, 1)+0.5), -1
					}
				default:
					rtt := sim.Time(1+rng.Intn(40)) * sim.Millisecond
					if e.recentOldest != 0 {
						wrapped++
					}
					if got, want := e.Reaggregate(rtt), ref.reaggregate(rtt); got != want {
						t.Fatalf("depth %d seed %d op %d: Reaggregate split %d, copy-shifted reference %d",
							depth, seed, op, got, want)
					}
				}
				if !slices.Equal(e.intervals, ref.intervals) || e.initIdx != ref.initIdx {
					t.Fatalf("depth %d seed %d op %d: history %v (init %d), prepend reference %v (init %d)",
						depth, seed, op, e.intervals, e.initIdx, ref.intervals, ref.initIdx)
				}
			}
		}
		if wrapped == 0 {
			t.Fatalf("depth %d: no re-aggregation read a wrapped recent-loss ring", depth)
		}
	}
}

// TestOnPacketsEqualsRepeatedOnPacket: OnPackets(k) leaves an estimator
// exactly where k OnPacket calls leave a twin, k = 0 included, whether the
// interval is the first one or follows loss events.
func TestOnPacketsEqualsRepeatedOnPacket(t *testing.T) {
	bulk, single := NewEstimator(nil), NewEstimator(nil)
	now := sim.Time(0)
	for _, k := range []int{0, 1, 7, 0, 1000, 3, 0, 40, 1, 250} {
		bulk.OnPackets(k)
		for i := 0; i < k; i++ {
			single.OnPacket()
		}
		if !slices.Equal(bulk.intervals, single.intervals) || bulk.LossEventRate() != single.LossEventRate() {
			t.Fatalf("after OnPackets(%d): intervals %v rate %v, after %d OnPacket: %v %v",
				k, bulk.intervals, bulk.LossEventRate(), k, single.intervals, single.LossEventRate())
		}
		now += sim.Second
		bulk.OnLoss(now, 100*sim.Millisecond)
		single.OnLoss(now, 100*sim.Millisecond)
	}
}

// TestLossEventsDoNotAllocate: once the history and the recent-loss record
// are full, a loss event and a re-aggregation split cost no allocation, at
// inline depth and at a depth that spilled to the heap.
func TestLossEventsDoNotAllocate(t *testing.T) {
	for _, depth := range []int{8, 32} {
		e := NewEstimator(Weights(depth))
		now := sim.Time(0)
		event := func() {
			for i := 0; i < 40; i++ {
				e.OnPacket()
			}
			now += sim.Second
			e.OnLoss(now, 100*sim.Millisecond)           // a new loss event
			e.OnLoss(now+sim.Millisecond, sim.Second/10) // aggregated into it
		}
		for i := 0; i < 5*depth; i++ {
			event()
		}
		if n := testing.AllocsPerRun(200, event); n != 0 {
			t.Errorf("depth %d: OnLoss allocates %v objects per loss event", depth, n)
		}
		if n := testing.AllocsPerRun(50, func() {
			event()
			if e.Reaggregate(sim.Microsecond) == 0 {
				t.Fatal("setup: re-aggregation split nothing")
			}
		}); n != 0 {
			t.Errorf("depth %d: Reaggregate allocates %v objects per call", depth, n)
		}
	}
}

// TestEstimatorByValue: a zero Estimator held by value becomes usable
// through Reset and keeps the default-depth history in its own storage.
// (The weights are shared, never copied: the line-budget tests in
// internal/tfmcc pin that a receiver holds no weight vector of its own.)
func TestEstimatorByValue(t *testing.T) {
	var host struct {
		pad [3]int
		e   Estimator
	}
	e := &host.e
	e.Reset(nil)
	for i := 0; i < 12; i++ {
		e.OnPacket()
		e.OnLoss(sim.Time(i+1)*sim.Second, 100*sim.Millisecond)
	}
	if &e.intervals[0] != &e.ivBuf[0] {
		t.Fatal("default-depth history left the estimator's inline storage")
	}
	if got, want := e.LossEventRate(), 0.5; got != want {
		t.Fatalf("loss event rate = %v, want %v", got, want)
	}
}

// TestResetSharesWeights: Reset keeps the caller's weight vector itself —
// one vector serves every receiver of a session — and nothing an
// estimator does writes it.
func TestResetSharesWeights(t *testing.T) {
	for _, depth := range []int{4, 8, 32} {
		w := Weights(depth)
		want := slices.Clone(w)
		var a, b Estimator
		a.Reset(w)
		b.Reset(w)
		if &a.weights[0] != &w[0] || &b.weights[0] != &w[0] {
			t.Fatalf("depth %d: an estimator copied the weight vector", depth)
		}
		for i := 0; i < 6*depth; i++ {
			a.OnPackets(i % 7)
			a.OnLoss(sim.Time(i+1)*sim.Second, 100*sim.Millisecond)
			if i == 0 {
				a.InitFirstInterval(50)
			}
		}
		a.AdjustInitInterval(0.25)
		a.Reaggregate(sim.Microsecond)
		a.LossEventRate()
		a.Reset(w)
		if !slices.Equal(w, want) || &a.weights[0] != &w[0] {
			t.Fatalf("depth %d: weights %v after a run, want %v, still shared", depth, w, want)
		}
	}
}
