package lossrate

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestWeightsShape(t *testing.T) {
	w := Weights(8)
	want := []int{5, 5, 5, 5, 4, 3, 2, 1}
	if len(w) != 8 {
		t.Fatalf("len = %d", len(w))
	}
	for i := range w {
		if w[i] != want[i] {
			t.Fatalf("Weights(8) = %v, want %v", w, want)
		}
	}
	if len(Weights(1)) != 1 {
		t.Fatal("Weights(1) should be a single weight")
	}
	w32 := Weights(32)
	if w32[0] != w32[15] || w32[16] <= w32[31] || w32[31] != 1 {
		t.Fatalf("Weights(32) malformed: %v", w32)
	}
}

func TestNoLossMeansZeroRate(t *testing.T) {
	e := NewEstimator(nil)
	for i := 0; i < 100; i++ {
		e.OnPacket()
	}
	if e.HaveLoss() {
		t.Fatal("no loss was reported")
	}
	if e.LossEventRate() != 0 {
		t.Fatal("loss rate should be 0 before first loss")
	}
}

func TestSteadyLossRate(t *testing.T) {
	// 1 loss every 100 packets, well separated in time => p = 1/100.
	e := NewEstimator(nil)
	rtt := 100 * sim.Millisecond
	now := sim.Time(0)
	for ev := 0; ev < 50; ev++ {
		for i := 0; i < 99; i++ {
			e.OnPacket()
		}
		now += sim.Second
		e.OnLoss(now, rtt)
	}
	got := e.LossEventRate()
	if math.Abs(got-0.01)/0.01 > 0.05 {
		t.Fatalf("loss event rate = %v, want ~0.01", got)
	}
}

func TestLossAggregationWithinRTT(t *testing.T) {
	e := NewEstimator(nil)
	rtt := 100 * sim.Millisecond
	if !e.OnLoss(sim.Second, rtt) {
		t.Fatal("first loss must start an event")
	}
	if e.OnLoss(sim.Second+50*sim.Millisecond, rtt) {
		t.Fatal("loss within RTT must be aggregated")
	}
	if !e.OnLoss(sim.Second+150*sim.Millisecond, rtt) {
		t.Fatal("loss after RTT must start a new event")
	}
}

func TestOpenIntervalOnlyIfItHelps(t *testing.T) {
	e := NewEstimator([]int{1, 1})
	rtt := 10 * sim.Millisecond
	// Two events, each after 10 packets.
	for i := 0; i < 10; i++ {
		e.OnPacket()
	}
	e.OnLoss(sim.Second, rtt)
	for i := 0; i < 10; i++ {
		e.OnPacket()
	}
	e.OnLoss(2*sim.Second, rtt)
	// Each closed interval is 10 received packets + the lost one = 11.
	base := e.AvgInterval()
	if base != 11 {
		t.Fatalf("avg = %v, want 11", base)
	}
	// A short open interval must not increase the measured loss rate.
	e.OnPacket()
	if e.AvgInterval() != 11 {
		t.Fatalf("short open interval changed avg: %v", e.AvgInterval())
	}
	// A long open interval should pull the average up.
	for i := 0; i < 100; i++ {
		e.OnPacket()
	}
	if e.AvgInterval() <= 11 {
		t.Fatalf("long open interval ignored: %v", e.AvgInterval())
	}
}

func TestHistoryBounded(t *testing.T) {
	e := NewEstimator(DefaultWeights)
	rtt := sim.Millisecond
	now := sim.Time(0)
	for i := 0; i < 1000; i++ {
		e.OnPacket()
		now += sim.Second
		e.OnLoss(now, rtt)
	}
	if len(e.intervals) > len(DefaultWeights)+1 {
		t.Fatalf("history grew unboundedly: %d", len(e.intervals))
	}
}

func TestInitFirstInterval(t *testing.T) {
	e := NewEstimator(nil)
	e.OnPacket()
	e.OnLoss(sim.Second, sim.Millisecond)
	e.InitFirstInterval(500)
	if e.FirstInterval() != 500 {
		t.Fatalf("FirstInterval = %d, want 500", e.FirstInterval())
	}
	if got := e.LossEventRate(); math.Abs(got-1.0/500) > 1e-9 {
		t.Fatalf("rate = %v, want 1/500", got)
	}
	// Ignored cases.
	e.InitFirstInterval(0)
	if e.FirstInterval() != 500 {
		t.Fatal("InitFirstInterval(0) should be ignored")
	}
	fresh := NewEstimator(nil)
	fresh.InitFirstInterval(10) // no closed interval yet
	if fresh.FirstInterval() != 0 {
		t.Fatal("init before first loss should be ignored")
	}
}

func TestReaggregateSplitsMergedEvents(t *testing.T) {
	// With a huge initial RTT, three well-separated losses collapse into
	// one event. After learning the true RTT, re-aggregation must split
	// them into three events.
	e := NewEstimator(nil)
	initRTT := 500 * sim.Millisecond
	for i := 0; i < 80; i++ {
		e.OnPacket()
	}
	e.OnLoss(sim.Second, initRTT)
	e.OnLoss(sim.Second+100*sim.Millisecond, initRTT)
	e.OnLoss(sim.Second+200*sim.Millisecond, initRTT)
	if got := e.countClosed(); got != 1 {
		t.Fatalf("events before reaggregation = %d, want 1", got)
	}
	extra := e.Reaggregate(60 * sim.Millisecond)
	if extra != 2 {
		t.Fatalf("Reaggregate created %d extra events, want 2", extra)
	}
	if got := e.countClosed(); got != 3 {
		t.Fatalf("events after reaggregation = %d, want 3", got)
	}
	// Loss event rate must have increased (shorter intervals).
	if e.LossEventRate() <= 1.0/80 {
		t.Fatalf("rate did not increase: %v", e.LossEventRate())
	}
}

func TestReaggregateNoChangeWhenRTTAccurate(t *testing.T) {
	e := NewEstimator(nil)
	rtt := 60 * sim.Millisecond
	for i := 0; i < 50; i++ {
		e.OnPacket()
	}
	e.OnLoss(sim.Second, rtt)
	e.OnLoss(2*sim.Second, rtt)
	if extra := e.Reaggregate(rtt); extra != 0 {
		t.Fatalf("unnecessary split: %d", extra)
	}
}

func TestReaggregateFewLosses(t *testing.T) {
	e := NewEstimator(nil)
	if e.Reaggregate(sim.Millisecond) != 0 {
		t.Fatal("reaggregate with no losses should be a no-op")
	}
	e.OnLoss(sim.Second, sim.Second)
	if e.Reaggregate(sim.Millisecond) != 0 {
		t.Fatal("reaggregate with one loss should be a no-op")
	}
}

// countClosed returns the number of closed intervals (== loss events seen,
// capped by history length).
func (e *Estimator) countClosed() int { return len(e.intervals) - 1 }

func TestPacketsSinceLastEvent(t *testing.T) {
	e := NewEstimator(nil)
	e.OnPacket()
	e.OnPacket()
	if e.PacketsSinceLastEvent() != 2 {
		t.Fatal("open interval miscounted")
	}
	e.OnLoss(sim.Second, sim.Millisecond)
	if e.PacketsSinceLastEvent() != 0 {
		t.Fatal("open interval should reset on new event")
	}
}

// Property: the loss event rate is always within [0,1] and equals 0 only
// before the first loss.
func TestLossRateBoundsProperty(t *testing.T) {
	f := func(gaps []uint8) bool {
		e := NewEstimator(nil)
		now := sim.Time(0)
		sawLoss := false
		for _, g := range gaps {
			for i := 0; i < int(g); i++ {
				e.OnPacket()
			}
			now += sim.Second
			e.OnLoss(now, 100*sim.Millisecond)
			sawLoss = true
		}
		p := e.LossEventRate()
		if !sawLoss {
			return p == 0
		}
		return p > 0 && p <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: feeding uniformly larger intervals can only decrease the loss
// event rate (monotonicity of the weighted average).
func TestMonotoneIntervalsProperty(t *testing.T) {
	run := func(gap int) float64 {
		e := NewEstimator(nil)
		now := sim.Time(0)
		for ev := 0; ev < 20; ev++ {
			for i := 0; i < gap; i++ {
				e.OnPacket()
			}
			now += sim.Second
			e.OnLoss(now, sim.Millisecond)
		}
		return e.LossEventRate()
	}
	prev := 2.0
	for _, gap := range []int{1, 2, 5, 10, 50, 200} {
		p := run(gap)
		if p >= prev {
			t.Fatalf("rate not decreasing with interval size: gap=%d p=%v prev=%v", gap, p, prev)
		}
		prev = p
	}
}

func TestAdjustInitInterval(t *testing.T) {
	e := NewEstimator(nil)
	e.OnPacket()
	e.OnLoss(sim.Second, sim.Millisecond)
	e.InitFirstInterval(400)
	if !e.AdjustInitInterval(0.25) {
		t.Fatal("adjustment should apply while interval is in history")
	}
	if e.FirstInterval() != 100 {
		t.Fatalf("adjusted interval = %d, want 100", e.FirstInterval())
	}
	if e.AdjustInitInterval(0.5) {
		t.Fatal("second adjustment must be refused")
	}
}

func TestAdjustInitIntervalAgesOut(t *testing.T) {
	e := NewEstimator([]int{1, 1}) // history of 2 intervals
	e.OnPacket()
	e.OnLoss(sim.Second, sim.Millisecond)
	e.InitFirstInterval(400)
	// Push enough new events that the init interval leaves the history.
	for i := 2; i < 6; i++ {
		e.OnPacket()
		e.OnLoss(sim.Time(i)*sim.Second, sim.Millisecond)
	}
	if e.AdjustInitInterval(0.5) {
		t.Fatal("aged-out interval must not be adjusted")
	}
}

func TestAdjustInitIntervalRejectsBadFactor(t *testing.T) {
	e := NewEstimator(nil)
	e.OnPacket()
	e.OnLoss(sim.Second, sim.Millisecond)
	e.InitFirstInterval(400)
	if e.AdjustInitInterval(0) || e.AdjustInitInterval(-1) {
		t.Fatal("non-positive factors must be rejected")
	}
}
