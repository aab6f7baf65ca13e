package sim

import (
	"math"
	"math/rand"
)

// Rand wraps a deterministic pseudo-random source with the distributions
// the protocols and workloads need. All simulation randomness must flow
// through a Rand so that every experiment is reproducible from its seed.
type Rand struct {
	r *rand.Rand
}

// NewRand returns a deterministic generator for the given seed.
func NewRand(seed int64) *Rand {
	return &Rand{r: rand.New(rand.NewSource(seed))}
}

// Reseed rewinds the generator to the start of the stream for seed,
// in place: every value drawn afterwards matches NewRand(seed). Holders
// of the *Rand (links, protocol agents) keep their pointer valid, which
// is what lets a rewound scenario reproduce a fresh one bit-for-bit.
func (r *Rand) Reseed(seed int64) { r.r.Seed(seed) }

// Float64 returns a uniform value in [0,1).
func (r *Rand) Float64() float64 { return r.r.Float64() }

// Uniform returns a uniform value in [lo,hi).
func (r *Rand) Uniform(lo, hi float64) float64 { return lo + (hi-lo)*r.r.Float64() }

// Intn returns a uniform integer in [0,n).
func (r *Rand) Intn(n int) int { return r.r.Intn(n) }

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.r.Float64() < p }

// Exp returns an exponentially distributed value with the given mean.
func (r *Rand) Exp(mean float64) float64 { return r.r.ExpFloat64() * mean }

// GeometricParam returns the argument Geometric takes for success
// probability p: ln(1−p). Every p ≥ 1 maps to −Inf (the first trial
// succeeds), and p ≤ 0 or NaN to 0 (no trial ever succeeds). A caller
// that draws many gaps at one p computes it once.
func GeometricParam(p float64) float64 {
	switch {
	case p >= 1:
		return math.Inf(-1)
	case p > 0:
		return math.Log1p(-p)
	default:
		return 0
	}
}

// Geometric returns the number of Bernoulli(p) trials up to and including
// the first success (support {1,2,...}), given lnq = GeometricParam(p). It
// models the gap between packet losses under independent loss with
// probability p.
//
// It draws by inversion from one uniform U in (0,1]: 1 + ⌊ln U / ln(1−p)⌋,
// since P(X > k) = (1−p)^k = P(U ≤ (1−p)^k). The result is capped at
// 1<<30, which is also what lnq ≥ 0 or NaN (no loss ever) returns; lnq =
// −Inf returns 1. Neither edge draws a uniform.
func (r *Rand) Geometric(lnq float64) int {
	const maxGap = 1 << 30
	if !(lnq < 0) {
		return maxGap
	}
	if math.IsInf(lnq, -1) {
		return 1
	}
	u := 1 - r.r.Float64()
	k := math.Floor(math.Log(u) / lnq)
	if k >= maxGap-1 {
		return maxGap
	}
	return 1 + int(k)
}
