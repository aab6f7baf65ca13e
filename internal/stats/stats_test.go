package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestSeriesBasics(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Max() != 0 || s.StdDev() != 0 || s.CoV() != 0 {
		t.Fatal("empty series should be all zero")
	}
	s.Add(sim.Second, 10)
	s.Add(2*sim.Second, 20)
	s.Add(3*sim.Second, 30)
	if s.Mean() != 20 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if s.Max() != 30 {
		t.Fatalf("max = %v", s.Max())
	}
	if got := s.StdDev(); math.Abs(got-10) > 1e-12 {
		t.Fatalf("std = %v, want 10", got)
	}
	if got := s.CoV(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("cov = %v, want 0.5", got)
	}
}

func TestMeanBetween(t *testing.T) {
	var s Series
	for i := 0; i < 10; i++ {
		s.Add(sim.Time(i)*sim.Second, float64(i))
	}
	if got := s.MeanBetween(2*sim.Second, 5*sim.Second); got != 3 {
		t.Fatalf("MeanBetween = %v, want 3", got)
	}
	if got := s.MeanBetween(100*sim.Second, 200*sim.Second); got != 0 {
		t.Fatalf("empty window should be 0, got %v", got)
	}
}

func TestSeriesTSV(t *testing.T) {
	var s Series
	s.Add(1500*sim.Millisecond, 42)
	got := s.TSV()
	if !strings.Contains(got, "1.500\t42.000") {
		t.Fatalf("TSV = %q", got)
	}
}

func TestMeterSamples(t *testing.T) {
	sch := sim.NewScheduler()
	m := NewMeter("x", sch, sim.Second)
	m.Start()
	m.Start() // idempotent
	// 1250 bytes over the first second = 10 Kbit/s.
	sch.After(500*sim.Millisecond, func() { m.Add(1250) })
	sch.After(1500*sim.Millisecond, func() { m.Add(2500) })
	sch.RunUntil(2500 * sim.Millisecond)
	if len(m.Series.Points) != 2 {
		t.Fatalf("samples = %d, want 2", len(m.Series.Points))
	}
	if m.Series.Points[0].V != 10 {
		t.Fatalf("first sample = %v Kbit/s, want 10", m.Series.Points[0].V)
	}
	if m.Series.Points[1].V != 20 {
		t.Fatalf("second sample = %v Kbit/s, want 20", m.Series.Points[1].V)
	}
	if m.TotalBytes() != 3750 {
		t.Fatalf("total = %d", m.TotalBytes())
	}
	if m.MeanKbps() != 15 {
		t.Fatalf("mean = %v", m.MeanKbps())
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{1, 1, 1, 1}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("equal flows index = %v", got)
	}
	if got := JainIndex([]float64{1, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("single hog index = %v, want 0.25", got)
	}
	if JainIndex(nil) != 0 || JainIndex([]float64{0, 0}) != 0 {
		t.Fatal("degenerate cases should be 0")
	}
}

func TestJainIndexBoundsProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		any := false
		for i, r := range raw {
			xs[i] = float64(r)
			if r > 0 {
				any = true
			}
		}
		idx := JainIndex(xs)
		if !any {
			return idx == 0
		}
		return idx >= 1/float64(len(xs))-1e-12 && idx <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordMatchesDirect(t *testing.T) {
	var w Welford
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		w.Add(x)
	}
	if w.N() != len(xs) {
		t.Fatalf("n = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v", w.Mean())
	}
	// Sample variance of this classic set is 32/7.
	if math.Abs(w.Var()-32.0/7) > 1e-12 {
		t.Fatalf("var = %v, want %v", w.Var(), 32.0/7)
	}
	if math.Abs(w.Std()-math.Sqrt(32.0/7)) > 1e-12 {
		t.Fatalf("std = %v", w.Std())
	}
	var empty Welford
	if empty.Var() != 0 {
		t.Fatal("variance of <2 samples should be 0")
	}
}
