package rtt

import (
	"testing"

	"repro/internal/sim"
)

func TestInitialRTTBeforeMeasurement(t *testing.T) {
	e := NewEstimator(DefaultConfig())
	if e.Valid() {
		t.Fatal("fresh estimator must not be valid")
	}
	if e.RTT() != 500*sim.Millisecond {
		t.Fatalf("initial RTT = %v, want 500ms", e.RTT())
	}
}

func TestFirstMeasurementTakesFullValue(t *testing.T) {
	e := NewEstimator(DefaultConfig())
	// Report sent at t=1s, echoed with 10ms hold, echo arrives at 1.070s:
	// instantaneous RTT = 60ms.
	inst := e.Measure(sim.FromMillis(1070), sim.Second, 10*sim.Millisecond, sim.FromMillis(1040), false)
	if inst != 60*sim.Millisecond {
		t.Fatalf("instantaneous = %v, want 60ms", inst)
	}
	if !e.Valid() || e.RTT() != 60*sim.Millisecond {
		t.Fatalf("first measurement should replace estimate entirely, got %v", e.RTT())
	}
}

func TestEWMASmoothingCLRvsOther(t *testing.T) {
	mk := func(isCLR bool) sim.Time {
		e := NewEstimator(DefaultConfig())
		e.Measure(sim.FromMillis(1100), sim.Second, 0, sim.FromMillis(1050), isCLR) // 100ms
		// Single spurious 200ms sample.
		e.Measure(sim.FromMillis(1200), sim.Second, 0, sim.FromMillis(1100), isCLR)
		return e.RTT()
	}
	clr := mk(true)
	other := mk(false)
	// alpha 0.05 -> 105ms; alpha 0.5 -> 150ms.
	if clr != 105*sim.Millisecond {
		t.Fatalf("CLR smoothed = %v, want 105ms", clr)
	}
	if other != 150*sim.Millisecond {
		t.Fatalf("non-CLR smoothed = %v, want 150ms", other)
	}
}

func TestNegativeSampleClamped(t *testing.T) {
	e := NewEstimator(DefaultConfig())
	inst := e.Measure(sim.Second, 2*sim.Second, 0, sim.Second, false)
	if inst != 0 {
		t.Fatalf("negative RTT sample should clamp to 0, got %v", inst)
	}
}

func TestOneWayAdjustmentTracksRTTChange(t *testing.T) {
	e := NewEstimator(DefaultConfig())
	// True forward delay 30ms, backward 30ms; receiver clock runs 1h ahead
	// of the sender (skew must cancel).
	skew := sim.Time(3600 * sim.Second)
	sendTS := sim.Second
	arrive := sendTS + 30*sim.Millisecond + skew // receiver-clock arrival
	// Explicit measurement: report at arrive, echo 0 hold, echo arrives
	// 60ms later carrying data timestamp from sender clock.
	e.Measure(arrive+60*sim.Millisecond, arrive, 0, sendTS+60*sim.Millisecond-30*sim.Millisecond-skew+skew, false)
	// A clean setup is easier read through helper numbers below.
	e2 := NewEstimator(DefaultConfig())
	now := arrive + 60*sim.Millisecond
	dataSendTS := now - 30*sim.Millisecond - skew // sent 30ms before arrival, sender clock
	e2.Measure(now, arrive, 0, dataSendTS, false)
	if e2.RTT() != 60*sim.Millisecond {
		t.Fatalf("measured RTT = %v, want 60ms", e2.RTT())
	}
	// Forward delay doubles to 60ms: one-way adjustment should push the
	// instantaneous estimate to 30+60=90ms regardless of skew.
	later := now + 10*sim.Second
	dataTS2 := later - 60*sim.Millisecond - skew
	inst, ok := e2.AdjustOneWay(later, dataTS2)
	if !ok {
		t.Fatal("adjustment should be possible after a measurement")
	}
	if inst != 90*sim.Millisecond {
		t.Fatalf("adjusted instantaneous = %v, want 90ms", inst)
	}
	if e2.RTT() <= 60*sim.Millisecond {
		t.Fatal("EWMA should move towards the higher RTT")
	}
}

func TestOneWayAdjustmentNeedsMeasurement(t *testing.T) {
	e := NewEstimator(DefaultConfig())
	if _, ok := e.AdjustOneWay(sim.Second, 0); ok {
		t.Fatal("adjustment without prior measurement must fail")
	}
}

func TestDiscardOneWay(t *testing.T) {
	e := NewEstimator(DefaultConfig())
	e.Measure(sim.FromMillis(1060), sim.Second, 0, sim.FromMillis(1030), false)
	e.DiscardOneWay()
	if _, ok := e.AdjustOneWay(2*sim.Second, sim.FromMillis(1970)); ok {
		t.Fatal("adjustment after discard must fail")
	}
}
