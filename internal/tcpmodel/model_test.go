package tcpmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestThroughputKnownPoint(t *testing.T) {
	m := Default()
	// p=10%, RTT=50ms: the paper states the fair rate is ~300 Kbit/s
	// (section 3, Figure 7 discussion).
	x := m.Throughput(0.1, 0.050)
	kbit := x * 8 / 1000
	if kbit < 200 || kbit > 400 {
		t.Fatalf("Throughput(0.1, 50ms) = %.1f Kbit/s, want ~300", kbit)
	}
}

func TestThroughputMonotonicInLoss(t *testing.T) {
	m := Default()
	prev := math.Inf(1)
	for _, p := range []float64{0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1} {
		x := m.Throughput(p, 0.1)
		if x >= prev {
			t.Fatalf("throughput not decreasing at p=%v: %v >= %v", p, x, prev)
		}
		prev = x
	}
}

// TestThroughputNonIncreasingInLoss: for any p1 < p2, Throughput(p1) >=
// Throughput(p2) as computed, rounding included — over random pairs
// spanning p <= 0, (0, 1] and p > 1, and over each p's math.Nextafter
// neighbours. Figure 7 relies on it to take a round's minimum rate as the
// rate at the round's highest loss event rate.
func TestThroughputNonIncreasingInLoss(t *testing.T) {
	m := Default()
	rng := rand.New(rand.NewSource(1))
	draw := func() float64 {
		switch rng.Intn(10) {
		case 0:
			return []float64{0, -1, 1, math.SmallestNonzeroFloat64, 1.5}[rng.Intn(5)]
		case 1:
			return -rng.Float64()
		default:
			return math.Pow(10, -12+13*rng.Float64()) // 1e-12 .. 10
		}
	}
	check := func(p1, p2, rtt float64) {
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		if x1, x2 := m.Throughput(p1, rtt), m.Throughput(p2, rtt); x1 < x2 {
			t.Fatalf("rtt %v: Throughput(%v) = %v < Throughput(%v) = %v", rtt, p1, x1, p2, x2)
		}
	}
	for i := 0; i < 200000; i++ {
		rtt := []float64{0.001, 0.05, 0.1, 1.7}[i%4]
		p := draw()
		check(p, draw(), rtt)
		check(p, math.Nextafter(p, math.Inf(1)), rtt)
		check(math.Nextafter(p, math.Inf(-1)), p, rtt)
	}
}

func TestThroughputMonotonicInRTT(t *testing.T) {
	m := Default()
	prev := math.Inf(1)
	for _, r := range []float64{0.01, 0.05, 0.1, 0.5, 1} {
		x := m.Throughput(0.01, r)
		if x >= prev {
			t.Fatalf("throughput not decreasing at rtt=%v", r)
		}
		prev = x
	}
}

func TestThroughputEdgeCases(t *testing.T) {
	m := Default()
	if !math.IsInf(m.Throughput(0, 0.1), 1) {
		t.Fatal("p=0 should be unbounded")
	}
	if !math.IsInf(m.Throughput(0.1, 0), 1) {
		t.Fatal("rtt=0 should be unbounded")
	}
	if x := m.Throughput(2, 0.1); x != m.Throughput(1, 0.1) {
		t.Fatal("p should be clamped to 1")
	}
}

func TestLossRateInverts(t *testing.T) {
	m := Default()
	for _, p := range []float64{1e-5, 1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.3} {
		for _, rtt := range []float64{0.01, 0.06, 0.25, 0.5} {
			x := m.Throughput(p, rtt)
			got := m.LossRate(x, rtt)
			if math.Abs(got-p)/p > 1e-3 {
				t.Fatalf("LossRate(Throughput(%v,%v)) = %v", p, rtt, got)
			}
		}
	}
}

func TestLossRateEdges(t *testing.T) {
	m := Default()
	if got := m.LossRate(0, 0.1); got != 1 {
		t.Fatalf("LossRate(0) = %v, want 1", got)
	}
	if got := m.LossRate(math.Inf(1), 0.1); got != 1e-9 {
		t.Fatalf("LossRate(inf) = %v, want 1e-9", got)
	}
}

func TestSimpleModelInverts(t *testing.T) {
	m := Default()
	f := func(pRaw, rttRaw uint16) bool {
		p := 1e-5 + float64(pRaw)/65536.0*0.5
		rtt := 0.005 + float64(rttRaw)/65536.0
		x := m.SimpleThroughput(p, rtt)
		got := m.SimpleLossRate(x, rtt)
		return math.Abs(got-p)/p < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSimpleMoreConservativeThanFull(t *testing.T) {
	// For a given throughput the simplified model implies a smaller loss
	// interval (larger p) in the relevant regime, i.e. for the same p it
	// predicts at least roughly comparable throughput. The paper only
	// claims the simplified inverse gives "a slightly more conservative
	// estimate"; check at moderate loss rates that the simple model's
	// predicted rate is within a small factor of the full model.
	m := Default()
	for _, p := range []float64{0.001, 0.01, 0.05} {
		full := m.Throughput(p, 0.1)
		simple := m.SimpleThroughput(p, 0.1)
		if simple < full*0.8 || simple > full*2.5 {
			t.Fatalf("models diverge at p=%v: full=%v simple=%v", p, full, simple)
		}
	}
}

func TestLossEventsPerRTTShape(t *testing.T) {
	// Figure 17 / Appendix A: L(p) has a single interior maximum of about
	// 0.13 loss events per RTT. The paper's 0.13 corresponds to b = 2
	// (delayed ACKs); with the b = 1 default the maximum is ~0.19, still
	// far below 1, which is what makes RTT-overestimated loss aggregation
	// safe.
	m := Default()
	m.B = 2
	maxL := func(m Params) float64 {
		max := 0.0
		for p := 0.0001; p <= 1.0; p *= 1.05 {
			if l := m.LossEventsPerRTT(p, 0.1); l > max {
				max = l
			}
		}
		return max
	}
	if got := maxL(m); got < 0.10 || got > 0.16 {
		t.Fatalf("max loss events per RTT (b=2) = %v, want ~0.13", got)
	}
	m.B = 1
	if got := maxL(m); got < 0.15 || got > 0.25 {
		t.Fatalf("max loss events per RTT (b=1) = %v, want ~0.19", got)
	}
	if m.LossEventsPerRTT(0, 0.1) != 0 {
		t.Fatal("L(0) should be 0")
	}
}

func TestLossEventsPerRTTIndependentOfRTT(t *testing.T) {
	// L = p·X·R/s; with the full model X ∝ 1/R, so L is RTT-independent.
	m := Default()
	for _, p := range []float64{0.001, 0.01, 0.1} {
		a := m.LossEventsPerRTT(p, 0.05)
		b := m.LossEventsPerRTT(p, 0.5)
		if math.Abs(a-b) > 1e-12 {
			t.Fatalf("L depends on RTT at p=%v: %v vs %v", p, a, b)
		}
	}
}

func TestRTTOverestimateIsConservative(t *testing.T) {
	// Appendix A: a flow using an RTT estimate k times too high computes a
	// conservative (lower) rate even after loss intervals inflate by up to
	// k (for loss event rates below ~10%).
	m := Default()
	trueRTT := 0.05
	for _, k := range []float64{2, 5, 10} {
		for _, p := range []float64{0.001, 0.01, 0.05} {
			fair := m.Throughput(p, trueRTT)
			// Inflated RTT, loss intervals stretched by at most k => p/k.
			conservative := m.Throughput(p/k, k*trueRTT)
			if conservative > fair*1.05 {
				t.Fatalf("k=%v p=%v: inflated-RTT rate %v exceeds fair %v",
					k, p, conservative, fair)
			}
		}
	}
}

func BenchmarkThroughput(b *testing.B) {
	m := Default()
	for i := 0; i < b.N; i++ {
		_ = m.Throughput(0.01, 0.1)
	}
}

func BenchmarkLossRateInverse(b *testing.B) {
	m := Default()
	for i := 0; i < b.N; i++ {
		_ = m.LossRate(1e6, 0.1)
	}
}
