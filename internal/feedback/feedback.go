// Package feedback implements TFMCC's scalable feedback suppression
// (paper section 2.5): exponentially distributed random timers, the three
// ways of biasing them in favour of low-rate receivers (modified N,
// offset, modified offset), the ε-based cancellation rule, the implosion
// guard for low sending rates, and the analytic expected number of
// duplicate responses from Fuhrmann & Widmer.
package feedback

import (
	"math"

	"repro/internal/sim"
)

// BiasMethod selects how feedback timers favour low-rate receivers.
type BiasMethod int

const (
	// BiasNone is the plain exponential timer of Equation (2).
	BiasNone BiasMethod = iota
	// BiasModifyN shrinks the assumed receiver-set size for low-rate
	// receivers, shifting the whole CDF up.
	BiasModifyN
	// BiasOffset reserves a fraction delta of T as a deterministic
	// offset proportional to the feedback value x (Equation 3).
	BiasOffset
	// BiasModifiedOffset is BiasOffset with x truncated to [0.5,0.9] and
	// renormalised to [0,1] — the method TFMCC ships with.
	BiasModifiedOffset
)

// String implements fmt.Stringer for trace labels.
func (b BiasMethod) String() string {
	switch b {
	case BiasNone:
		return "unbiased"
	case BiasModifyN:
		return "modified-N"
	case BiasOffset:
		return "offset"
	case BiasModifiedOffset:
		return "modified-offset"
	}
	return "unknown"
}

// Config parameterises a feedback round.
type Config struct {
	T     sim.Time   // maximum feedback delay, c · RTT_max with c in [3,6]
	N     float64    // upper bound on receiver-set size (paper: 10000)
	Delta float64    // offset fraction delta of T (paper: 0.25)
	Eps   float64    // cancellation threshold ε (paper: 0.1)
	Bias  BiasMethod // timer biasing method
}

// DefaultConfig returns the TFMCC defaults: T = 4·maxRTT, N = 10000,
// delta = 0.25, ε = 0.1, modified offset bias.
func DefaultConfig(maxRTT sim.Time) Config {
	return Config{
		T:     maxRTT.Scale(4),
		N:     10000,
		Delta: 0.25,
		Eps:   0.1,
		Bias:  BiasModifiedOffset,
	}
}

// NormalizeValue maps the ratio x = X_calc/X_send onto the truncated,
// renormalised feedback value x' used by the modified offset method:
// biasing starts below 90% of the sending rate and saturates at 50%.
func NormalizeValue(x float64) float64 {
	x = math.Min(x, 0.9)
	x = math.Max(x, 0.5)
	return (x - 0.5) / 0.4
}

// Delay draws a feedback delay for a receiver whose feedback value is
// x = X_calc/X_send in [0,1] (smaller = more urgent), given a uniform
// variate u in (0,1]. Deterministic in (x, u) so the timer distributions
// can be unit-tested exactly.
func (c Config) Delay(x, u float64) sim.Time {
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	T := float64(c.T)
	lnN := math.Log(c.N)
	switch c.Bias {
	case BiasNone:
		d := T * (1 + math.Log(u)/lnN)
		return clampTime(d)
	case BiasModifyN:
		// Low x shrinks the effective receiver bound, but never below
		// its actual urgency floor: N' = N^x (x=1 -> N, x->0 -> 1).
		n := math.Pow(c.N, math.Max(x, 1e-6))
		d := T * (1 + math.Log(u)/math.Log(math.Max(n, math.E)))
		return clampTime(d)
	case BiasOffset:
		d := c.Delta*x*T + (1-c.Delta)*T*(1+math.Log(u)/lnN)
		return clampTime(d)
	case BiasModifiedOffset:
		d := c.Delta*NormalizeValue(x)*T + (1-c.Delta)*T*(1+math.Log(u)/lnN)
		return clampTime(d)
	}
	return clampTime(T)
}

func clampTime(d float64) sim.Time {
	if d < 0 {
		return 0
	}
	return sim.Time(d)
}

// CDF returns P(delay <= t) for feedback value x under the configured
// bias — the curves of Figure 1. t is expressed in the same units as c.T.
func (c Config) CDF(x float64, t sim.Time) float64 {
	T := float64(c.T)
	tt := float64(t)
	prob := func(T0, off float64) float64 {
		// delay = off + T0·(1+ln u / ln N) <= t
		// <=> ln u >= (t-off-T0)/T0 · ln N
		if T0 <= 0 {
			if tt >= off {
				return 1
			}
			return 0
		}
		z := (tt - off - T0) / T0 * math.Log(c.N)
		if z >= 0 {
			return 1
		}
		return math.Exp(z)
	}
	switch c.Bias {
	case BiasNone:
		return prob(T, 0)
	case BiasModifyN:
		n := math.Pow(c.N, math.Max(x, 1e-6))
		z := (tt - T) / T * math.Log(math.Max(n, math.E))
		if z >= 0 {
			return 1
		}
		return math.Exp(z)
	case BiasOffset:
		return prob((1-c.Delta)*T, c.Delta*x*T)
	case BiasModifiedOffset:
		return prob((1-c.Delta)*T, c.Delta*NormalizeValue(x)*T)
	}
	return 0
}

// Cancel reports whether a receiver with calculated rate own should cancel
// its pending feedback after hearing an echoed rate echoed, using the
// ε-rule of section 2.5.2: cancel iff echoed - own < ε·echoed. ε = 0
// cancels only reports that are not lower than the echo; ε = 1 cancels on
// any echo.
func (c Config) Cancel(own, echoed float64) bool {
	return echoed-own < c.Eps*echoed
}

// GuardedT returns the feedback delay T after the low-rate implosion
// guard of section 2.5.3: T = max(T, (g+1)·s/X_send), so that at least g
// consecutive data packets (which carry the suppressing echo) can be lost
// without implosion. packetSize is in bytes, rate in bytes/second.
func GuardedT(base sim.Time, g int, packetSize int, rate float64) sim.Time {
	if rate <= 0 {
		return sim.MaxTime / 4
	}
	guard := sim.FromSeconds(float64(g+1) * float64(packetSize) / rate)
	return sim.MaxOf(base, guard)
}

// ExpectedResponses returns the expected number of feedback messages E[M]
// for n receivers using plain exponential suppression (Equation 2) with
// one-way suppression latency d and suppression interval T' — the
// quantity Fuhrmann & Widmer derive and the paper plots as Figure 4. All
// receivers hold the same (worst-case) feedback value, so a response is
// suppressed only by a response at least d earlier.
//
// The timer CDF is F(t) = N^(t/T'-1) for t in [0,T'] with an atom of
// mass 1/N at t = 0. Receiver i responds iff t_i <= min_{j≠i} t_j + d, so
//
//	E[M] = n · [ F(d)·P(m=0) + ∫ F(s+d) dG(s) ]
//
// with G the CDF of the minimum of the other n-1 timers. The integral is
// evaluated numerically (exact up to quadrature error). It is the
// one-point case of ExpectedResponsesCurve.
func ExpectedResponses(n int, N float64, d, Tprime sim.Time) float64 {
	var out [1]float64
	expectedResponses(out[:], []int{n}, N, d, Tprime)
	return out[0]
}

// ExpectedResponsesCurve returns ExpectedResponses(n, N, d, Tprime) for
// every n in ns, bit for bit, at the cost of one quadrature: F(s) and
// F(s+d) are evaluated once per step for all n, and each n keeps its own
// accumulator, summed in the same step order as a lone call.
func ExpectedResponsesCurve(ns []int, N float64, d, Tprime sim.Time) []float64 {
	out := make([]float64, len(ns))
	expectedResponses(out, ns, N, d, Tprime)
	return out
}

// expectedResponses writes E[M] for each ns[k] into out[k], which serves
// as the accumulator of the quadrature sum for ns[k] >= 2.
func expectedResponses(out []float64, ns []int, N float64, d, Tprime sim.Time) {
	T := float64(Tprime)
	dd := float64(d)
	lnN := math.Log(N)
	F := func(t float64) float64 {
		if t <= 0 {
			return 1 / N
		}
		if t >= T {
			return 1
		}
		return math.Pow(N, t/T-1)
	}
	quad := false
	for k, n := range ns {
		if n >= 2 {
			// Atom: the minimum of the others is exactly 0.
			atom := 1 - math.Pow(1-1/N, float64(n)-1)
			out[k] = F(dd) * atom
			quad = true
		}
	}
	if quad {
		// Continuous part: dG(s) = (n-1)(1-F(s))^(n-2) f(s) ds with
		// f(s) = F(s)·lnN/T.
		const steps = 40000
		h := T / steps
		for i := 0; i < steps; i++ {
			s := (float64(i) + 0.5) * h
			fs := F(s)
			fsd := F(s + dd)
			for k, n := range ns {
				if n < 2 {
					continue
				}
				nf := float64(n)
				g := (nf - 1) * math.Pow(1-fs, nf-2) * fs * lnN / T
				out[k] += fsd * g * h
			}
		}
	}
	for k, n := range ns {
		switch {
		case n <= 0:
			out[k] = 0
		case n == 1:
			out[k] = 1
		default:
			out[k] = max(float64(n)*out[k], 1)
		}
	}
}
