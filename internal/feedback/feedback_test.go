package feedback

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func cfg(bias BiasMethod) Config {
	c := DefaultConfig(100 * sim.Millisecond) // T = 400ms
	c.Bias = bias
	return c
}

func TestBiasMethodString(t *testing.T) {
	for b, want := range map[BiasMethod]string{
		BiasNone: "unbiased", BiasModifyN: "modified-N",
		BiasOffset: "offset", BiasModifiedOffset: "modified-offset",
		BiasMethod(99): "unknown",
	} {
		if b.String() != want {
			t.Fatalf("%d.String() = %q, want %q", b, b.String(), want)
		}
	}
}

func TestNormalizeValue(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{1.0, 1}, {0.95, 1}, {0.9, 1}, {0.7, 0.5}, {0.5, 0}, {0.3, 0}, {0, 0},
	}
	for _, c := range cases {
		if got := NormalizeValue(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("NormalizeValue(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestDelayRangeAllBiases(t *testing.T) {
	rng := sim.NewRand(1)
	for _, b := range []BiasMethod{BiasNone, BiasModifyN, BiasOffset, BiasModifiedOffset} {
		c := cfg(b)
		for i := 0; i < 2000; i++ {
			d := c.Delay(rng.Float64(), rng.Float64())
			if d < 0 || d > c.T {
				t.Fatalf("bias %v: delay %v outside [0,T]", b, d)
			}
		}
	}
}

func TestDelayDeterministicEndpoints(t *testing.T) {
	c := cfg(BiasNone)
	// u = 1 gives exactly T.
	if d := c.Delay(0.5, 1); d != c.T {
		t.Fatalf("Delay(x,1) = %v, want T=%v", d, c.T)
	}
	// u = 1/N gives exactly 0.
	if d := c.Delay(0.5, 1/c.N); d > sim.Microsecond {
		t.Fatalf("Delay(x,1/N) = %v, want ~0", d)
	}
	// u below 1/N clamps at 0.
	if d := c.Delay(0.5, 1e-9); d != 0 {
		t.Fatalf("Delay clamp failed: %v", d)
	}
}

func TestOffsetBiasShiftsLowRates(t *testing.T) {
	c := cfg(BiasOffset)
	// Same u, lower x must never fire later.
	for _, u := range []float64{0.01, 0.1, 0.5, 0.99} {
		if c.Delay(0.1, u) > c.Delay(0.9, u) {
			t.Fatalf("offset bias: low-rate receiver fires later at u=%v", u)
		}
	}
	// x=0 removes the whole offset: max possible delay is (1-delta)T.
	if d := c.Delay(0, 1); d != sim.Time(0.75*float64(c.T)) {
		t.Fatalf("Delay(0,1) = %v, want (1-delta)T", d)
	}
}

func TestImmediateResponseProbability(t *testing.T) {
	// P(delay == 0) should be ~1/N for the unbiased timer.
	c := cfg(BiasNone)
	c.N = 100
	rng := sim.NewRand(2)
	zero := 0
	const trials = 200000
	for i := 0; i < trials; i++ {
		if c.Delay(1, rng.Float64()) == 0 {
			zero++
		}
	}
	got := float64(zero) / trials
	if math.Abs(got-1.0/c.N) > 0.002 {
		t.Fatalf("P(immediate) = %v, want ~%v", got, 1.0/c.N)
	}
}

func TestCDFMatchesEmpirical(t *testing.T) {
	rng := sim.NewRand(3)
	for _, b := range []BiasMethod{BiasNone, BiasOffset, BiasModifiedOffset, BiasModifyN} {
		c := cfg(b)
		x := 0.4
		for _, frac := range []float64{0.25, 0.5, 0.75, 0.9} {
			tt := sim.Time(frac * float64(c.T))
			want := c.CDF(x, tt)
			hits := 0
			const trials = 60000
			for i := 0; i < trials; i++ {
				if c.Delay(x, rng.Float64()) <= tt {
					hits++
				}
			}
			got := float64(hits) / trials
			if math.Abs(got-want) > 0.01 {
				t.Fatalf("bias %v t=%v: CDF=%v empirical=%v", b, tt, want, got)
			}
		}
	}
}

func TestCDFMonotone(t *testing.T) {
	c := cfg(BiasModifiedOffset)
	prev := -1.0
	for i := 0; i <= 100; i++ {
		tt := sim.Time(float64(c.T) * float64(i) / 100)
		v := c.CDF(0.6, tt)
		if v < prev-1e-12 {
			t.Fatalf("CDF not monotone at %v", tt)
		}
		prev = v
	}
	if c.CDF(0.6, c.T) < 0.999 {
		t.Fatal("CDF(T) should be ~1")
	}
}

func TestCancelRule(t *testing.T) {
	c := Config{Eps: 0.1}
	// Echo 100: cancel iff own > 90.
	if !c.Cancel(95, 100) {
		t.Fatal("own=95 within 10% of echo=100 should cancel")
	}
	if c.Cancel(85, 100) {
		t.Fatal("own=85 more than 10% below echo should survive")
	}
	c.Eps = 0
	if c.Cancel(99.99, 100) {
		t.Fatal("eps=0: strictly lower rate should survive")
	}
	if c.Cancel(100, 100) {
		t.Fatal("eps=0: equal rate is not lower than the echo, survives")
	}
	if !c.Cancel(100.01, 100) {
		t.Fatal("eps=0: rate above the echo should cancel")
	}
	c.Eps = 1
	if !c.Cancel(0.0001, 100) {
		t.Fatal("eps=1: everything cancels")
	}
}

func TestGuardedT(t *testing.T) {
	base := 400 * sim.Millisecond
	// High rate: guard is tiny, base wins.
	if got := GuardedT(base, 3, 1000, 1e6); got != base {
		t.Fatalf("high-rate GuardedT = %v, want base", got)
	}
	// 1 packet/s at g=3: guard = 4s.
	if got := GuardedT(base, 3, 1000, 1000); got != 4*sim.Second {
		t.Fatalf("low-rate GuardedT = %v, want 4s", got)
	}
	if got := GuardedT(base, 3, 1000, 0); got <= 4*sim.Second {
		t.Fatalf("zero rate should give huge guard, got %v", got)
	}
}

func TestExpectedResponsesAgainstMonteCarlo(t *testing.T) {
	N := 10000.0
	Tp := sim.Time(3 * sim.Second)
	d := sim.Second // d = 1 RTT, T' = 3 RTTs
	rng := sim.NewRand(4)
	for _, n := range []int{10, 100, 1000} {
		want := ExpectedResponses(n, N, d, Tp)
		// Monte Carlo of the same process.
		c := Config{T: Tp, N: N, Bias: BiasNone}
		var sum float64
		const trials = 400
		for tr := 0; tr < trials; tr++ {
			times := make([]sim.Time, n)
			min := sim.MaxTime
			for i := range times {
				times[i] = c.Delay(0, rng.Float64())
				if times[i] < min {
					min = times[i]
				}
			}
			cnt := 0
			for _, tt := range times {
				if tt <= min+d {
					cnt++
				}
			}
			sum += float64(cnt)
		}
		got := sum / trials
		if math.Abs(got-want)/want > 0.15 {
			t.Fatalf("n=%d: analytic %v vs monte carlo %v", n, want, got)
		}
	}
}

func TestExpectedResponsesShape(t *testing.T) {
	N := 10000.0
	// Figure 4: for T' around 3-4 RTTs and n up to N the response count
	// stays moderate (single to low double digits); shrinking T' towards
	// the network delay causes implosion.
	d := sim.Second
	small := ExpectedResponses(1000, N, d, 3*sim.Second)
	if small < 1 || small > 40 {
		t.Fatalf("E[M] at T'=3 RTT = %v, want moderate", small)
	}
	implosive := ExpectedResponses(10000, N, d, sim.Time(1.2*float64(sim.Second)))
	if implosive < small*2 {
		t.Fatalf("shrinking T' should blow up responses: %v vs %v", implosive, small)
	}
	if ExpectedResponses(0, N, d, 3*sim.Second) != 0 {
		t.Fatal("n=0 should be 0")
	}
	if ExpectedResponses(1, N, d, 3*sim.Second) != 1 {
		t.Fatal("n=1 should be exactly 1")
	}
}

func TestExpectedResponsesMonotoneInN(t *testing.T) {
	N := 10000.0
	d := 500 * sim.Millisecond
	Tp := 3 * sim.Second
	prev := 0.0
	for _, n := range []int{1, 10, 100, 1000, 10000} {
		v := ExpectedResponses(n, N, d, Tp)
		if v < prev {
			t.Fatalf("E[M] not nondecreasing at n=%d: %v < %v", n, v, prev)
		}
		prev = v
	}
}

func TestSimulateRoundNoImplosion(t *testing.T) {
	// Worst case of Figure 3: every receiver suddenly congested. With
	// ε = 1 ("all suppressed") the count must stay small even at n=5000.
	c := cfg(BiasModifiedOffset)
	c.Eps = 1
	rng := sim.NewRand(5)
	vals := make([]float64, 5000)
	for i := range vals {
		vals[i] = rng.Uniform(0.3, 0.7)
	}
	res := SimulateRound(c, vals, 100*sim.Millisecond, rng)
	if res.NumSent < 1 {
		t.Fatal("at least one response must get through")
	}
	if res.NumSent > 60 {
		t.Fatalf("implosion with eps=1: %d responses", res.NumSent)
	}
}

func TestSimulateRoundLowestAlwaysHeardWithEpsZero(t *testing.T) {
	// ε = 0 guarantees the lowest-rate receiver reports.
	c := cfg(BiasModifiedOffset)
	c.Eps = 0
	rng := sim.NewRand(6)
	for trial := 0; trial < 20; trial++ {
		vals := make([]float64, 300)
		for i := range vals {
			vals[i] = rng.Uniform(0.2, 0.9)
		}
		res := SimulateRound(c, vals, 50*sim.Millisecond, rng)
		if res.BestValue != res.TrueMin {
			t.Fatalf("trial %d: best sent %v != true min %v", trial, res.BestValue, res.TrueMin)
		}
	}
}

func TestSimulateRoundEpsBoundsReportedRate(t *testing.T) {
	// ε = 0.1: the best sent value is no more than ~10% above the true
	// minimum (section 2.5.2).
	c := cfg(BiasModifiedOffset)
	c.Eps = 0.1
	rng := sim.NewRand(7)
	for trial := 0; trial < 20; trial++ {
		vals := make([]float64, 500)
		for i := range vals {
			vals[i] = rng.Uniform(0.2, 0.9)
		}
		res := SimulateRound(c, vals, 50*sim.Millisecond, rng)
		if res.Quality() > 0.12 {
			t.Fatalf("trial %d: quality %v exceeds eps bound", trial, res.Quality())
		}
	}
}

func TestSimulateRoundCancellationCounts(t *testing.T) {
	// More aggressive cancellation (larger ε) must not increase traffic.
	rng := sim.NewRand(8)
	vals := make([]float64, 2000)
	for i := range vals {
		vals[i] = rng.Uniform(0.3, 0.7)
	}
	counts := map[float64]int{}
	for _, eps := range []float64{0, 0.1, 1} {
		c := cfg(BiasModifiedOffset)
		c.Eps = eps
		res := SimulateRound(c, vals, 100*sim.Millisecond, sim.NewRand(9))
		counts[eps] = res.NumSent
	}
	if counts[1] > counts[0.1] || counts[0.1] > counts[0] {
		t.Fatalf("response counts not monotone in eps: %v", counts)
	}
}

func TestBiasImprovesQuality(t *testing.T) {
	// Figure 6's core claim: offset biasing brings the reported rate much
	// closer to the true minimum than unbiased timers.
	delay := 100 * sim.Millisecond
	mk := func(rng *sim.Rand) []float64 {
		vals := make([]float64, 1000)
		for i := range vals {
			vals[i] = rng.Uniform(0.1, 1.0)
		}
		return vals
	}
	cu := cfg(BiasNone)
	cu.Eps = 1
	cb := cfg(BiasModifiedOffset)
	cb.Eps = 1
	_, _, qualU := MeanOverRounds(cu, mk, delay, 60, sim.NewRand(10))
	_, _, qualB := MeanOverRounds(cb, mk, delay, 60, sim.NewRand(10))
	if qualB >= qualU {
		t.Fatalf("bias should improve quality: unbiased %v, biased %v", qualU, qualB)
	}
}

func TestFirstResponseTimeDecreasesWithN(t *testing.T) {
	// Figure 5: response time decreases roughly logarithmically with n.
	c := cfg(BiasNone)
	delay := 50 * sim.Millisecond
	prev := math.Inf(1)
	for _, n := range []int{1, 10, 100, 1000} {
		mk := func(rng *sim.Rand) []float64 {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = 0.5
			}
			return vals
		}
		_, first, _ := MeanOverRounds(c, mk, delay, 80, sim.NewRand(11))
		if first >= prev {
			t.Fatalf("first response time not decreasing at n=%d: %v >= %v", n, first, prev)
		}
		prev = first
	}
}

// TestMeanOverRoundsReusesRoundStorage: the rounds of one MeanOverRounds
// call share their response and sent-log storage, so with a values
// closure that reuses its slice the call allocates as much at 5 trials as
// at 50.
func TestMeanOverRoundsReusesRoundStorage(t *testing.T) {
	c := cfg(BiasModifiedOffset)
	vals := make([]float64, 500)
	mk := func(rng *sim.Rand) []float64 {
		for i := range vals {
			vals[i] = rng.Uniform(0.1, 1.0)
		}
		return vals
	}
	allocs := func(trials int) float64 {
		rng := sim.NewRand(13)
		return testing.AllocsPerRun(5, func() { MeanOverRounds(c, mk, 50*sim.Millisecond, trials, rng) })
	}
	if a5, a50 := allocs(5), allocs(50); a5 != a50 {
		t.Fatalf("MeanOverRounds allocates %v objects at 5 trials, %v at 50", a5, a50)
	}
}

func TestRoundResultQualityEdges(t *testing.T) {
	r := RoundResult{TrueMin: 0, NumSent: 1}
	if r.Quality() != 0 {
		t.Fatal("zero true min should yield 0 quality")
	}
	r = RoundResult{TrueMin: 1, NumSent: 0}
	if r.Quality() != 0 {
		t.Fatal("no responses should yield 0 quality")
	}
}

// Property: SimulateRound always sends at least one response and never
// more than n, and the best sent value is >= the true minimum.
func TestSimulateRoundInvariants(t *testing.T) {
	rng := sim.NewRand(12)
	f := func(seed int64, nRaw uint8, epsRaw uint8) bool {
		n := int(nRaw)%200 + 1
		eps := float64(epsRaw) / 255.0
		c := cfg(BiasModifiedOffset)
		c.Eps = eps
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Uniform(0.05, 1)
		}
		res := SimulateRound(c, vals, 50*sim.Millisecond, sim.NewRand(seed))
		if res.NumSent < 1 || res.NumSent > n {
			return false
		}
		return res.BestValue >= res.TrueMin-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
