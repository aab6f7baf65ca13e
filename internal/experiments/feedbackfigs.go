package experiments

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/feedback"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcpmodel"
)

func init() {
	// The feedback-mechanism figures are closed-form or Monte-Carlo plots:
	// they never drive the discrete-event engine, so they are registered
	// as analytic and engine benchmarks skip their (zero) counters.
	registerAnalytic("1", "Different feedback biasing methods (CDF of feedback time)", Figure1)
	registerAnalytic("2", "Time-value distribution of one feedback round", Figure2)
	registerAnalytic("3", "Different feedback cancellation methods (#responses vs n)", Figure3)
	registerAnalytic("4", "Expected number of feedback messages (analytic)", Figure4)
	registerAnalytic("5", "Response time of feedback biasing methods (RTTs)", Figure5)
	registerAnalytic("6", "Quality of reported rate (relative excess over minimum)", Figure6)
	registerAnalytic("17", "Loss events per RTT vs loss event rate", Figure17)
}

// fbBase returns the canonical feedback configuration used by the
// mechanism figures: T = 4 RTTs with RTT normalised to 1 s, N = 10000.
func fbBase(bias feedback.BiasMethod) feedback.Config {
	c := feedback.DefaultConfig(sim.Second) // T = 4 "RTTs"
	c.Bias = bias
	return c
}

// Figure1 plots the CDF of the feedback time for the unbiased exponential
// timer, the offset method and the modified-N method, for a receiver with
// feedback value x = 0.5 (time axis in RTTs, T = 4 RTTs).
func Figure1(int64) *Result {
	res := &Result{}
	const x = 0.5
	for _, bias := range []feedback.BiasMethod{feedback.BiasNone, feedback.BiasOffset, feedback.BiasModifyN} {
		cfg := fbBase(bias)
		s := &stats.Series{Name: bias.String()}
		for i := 0; i <= 400; i++ {
			t := sim.Time(float64(i) / 100 * float64(sim.Second)) // 0..4 RTTs
			s.Add(t, cfg.CDF(x, t))
		}
		res.Series = append(res.Series, s)
	}
	return res
}

// Figure2 reproduces the time-value scatter of one feedback round with
// n = 500 receivers holding uniformly distributed values, for unbiased
// and offset-biased timers. Suppressed responses carry y of the value;
// series are split by outcome so the plot can mark them differently.
func Figure2(seed int64) *Result {
	res := &Result{}
	rng := sim.NewRand(seed)
	const n = 500
	delay := 250 * sim.Millisecond // 1 RTT up + down at RTT=1s scale /4
	for _, bias := range []feedback.BiasMethod{feedback.BiasNone, feedback.BiasOffset} {
		cfg := fbBase(bias)
		cfg.Eps = 1 // cancel on any echo, as in the illustration
		values := make([]float64, n)
		for i := range values {
			values[i] = rng.Float64()
		}
		r := feedback.SimulateRound(cfg, values, delay, rng)
		sent := &stats.Series{Name: bias.String() + "/sent"}
		supp := &stats.Series{Name: bias.String() + "/suppressed"}
		for _, resp := range r.Responses {
			if resp.Sent {
				sent.Add(resp.At, resp.Value)
			} else {
				supp.Add(resp.At, resp.Value)
			}
		}
		best := &stats.Series{Name: bias.String() + "/best"}
		best.Add(r.BestAt, r.BestValue)
		res.Series = append(res.Series, sent, supp, best)
	}
	return res
}

// Figure3 counts feedback responses in the worst-case round (every
// receiver suddenly congested) for the three cancellation strategies
// ε = 1 (all suppressed), ε = 0.1, ε = 0 (only higher suppressed), as a
// function of the number of receivers.
func Figure3(seed int64) *Result {
	res := &Result{}
	labels := map[float64]string{1: "all suppressed", 0.1: "10% lower suppressed", 0: "higher suppressed"}
	delay := 250 * sim.Millisecond
	epss := []float64{1, 0.1, 0}
	res.Series = eachSeries(len(epss), func(k int) *stats.Series {
		eps := epss[k]
		s := &stats.Series{Name: labels[eps]}
		rng := sim.NewRand(seed)
		for _, n := range logSpace(1, 10000, 13) {
			cfg := fbBase(feedback.BiasModifiedOffset)
			cfg.Eps = eps
			v := make([]float64, n)
			mk := func(r *sim.Rand) []float64 {
				for i := range v {
					v[i] = r.Uniform(0.3, 0.7)
				}
				return v
			}
			trials := trialsFor(n)
			sent, _, _ := feedback.MeanOverRounds(cfg, mk, delay, trials, rng)
			s.Add(sim.FromSeconds(float64(n)), sent)
		}
		return s
	})
	res.Notes = append(res.Notes, "x axis = number of receivers (stored in the time column)")
	return res
}

// Figure4 evaluates the analytic expected number of feedback messages for
// T' between 2 and 6 RTTs and receiver counts up to N = 10000.
func Figure4(int64) *Result {
	res := &Result{}
	const N = 10000
	d := sim.Second // network delay = 1 RTT
	ns := logSpace(1, 100000, 16)
	tps := []float64{2, 3, 4, 5, 6}
	res.Series = eachSeries(len(tps), func(i int) *stats.Series {
		tp := tps[i]
		s := &stats.Series{Name: fmt.Sprintf("T'=%g RTTs", tp)}
		em := feedback.ExpectedResponsesCurve(ns, N, d, sim.Time(tp*float64(sim.Second)))
		for k, n := range ns {
			s.Add(sim.FromSeconds(float64(n)), em[k])
		}
		return s
	})
	res.Notes = append(res.Notes, "x axis = number of receivers (stored in the time column)")
	return res
}

// Figure5 measures the mean time of the first response for the three
// biasing methods as the receiver count grows.
func Figure5(seed int64) *Result {
	res := &Result{}
	return biasSweep(res, seed, func(sent, first, qual float64) float64 { return first })
}

// Figure6 measures how close the best reported rate is to the true
// minimum for the three biasing methods (0 = optimal).
func Figure6(seed int64) *Result {
	res := &Result{}
	return biasSweep(res, seed, func(sent, first, qual float64) float64 { return qual })
}

func biasSweep(res *Result, seed int64, pick func(sent, first, qual float64) float64) *Result {
	delay := 250 * sim.Millisecond
	methods := []struct {
		name string
		bias feedback.BiasMethod
	}{
		{"unbiased exponential", feedback.BiasNone},
		{"basic offset", feedback.BiasOffset},
		{"modified offset", feedback.BiasModifiedOffset},
	}
	res.Series = eachSeries(len(methods), func(i int) *stats.Series {
		m := methods[i]
		cfg := fbBase(m.bias)
		cfg.Eps = 1 // isolate the effect of the timer bias
		s := &stats.Series{Name: m.name}
		rng := sim.NewRand(seed)
		for _, n := range logSpace(1, 10000, 13) {
			v := make([]float64, n)
			mk := func(r *sim.Rand) []float64 {
				for i := range v {
					v[i] = r.Uniform(0.5, 1.0)
				}
				return v
			}
			sent, first, qual := feedback.MeanOverRounds(cfg, mk, delay, trialsFor(n), rng)
			s.Add(sim.FromSeconds(float64(n)), pick(sent, first, qual))
		}
		return s
	})
	res.Notes = append(res.Notes, "x axis = number of receivers (stored in the time column)")
	return res
}

// Figure17 plots the number of loss events per RTT as a function of the
// loss event rate (Appendix A). The paper's maximum of ~0.13 corresponds
// to b = 2 in the TCP model.
func Figure17(int64) *Result {
	res := &Result{}
	m := tcpmodel.Default()
	m.B = 2
	s := &stats.Series{Name: "loss events/RTT (b=2)"}
	max := 0.0
	for p := 0.0001; p <= 1.0; p *= 1.1 {
		v := m.LossEventsPerRTT(p, 0.1)
		s.Add(sim.FromSeconds(p), v)
		if v > max {
			max = v
		}
	}
	res.Series = append(res.Series, s)
	res.Notes = append(res.Notes,
		fmt.Sprintf("maximum %.3f loss events per RTT (paper: ~0.13)", max),
		"x axis = loss event rate (stored in the time column, seconds==rate)")
	return res
}

// eachSeries builds a figure's n independent series, series(0) to
// series(n−1), each on its own goroutine, and returns them in index order.
// Each call must own everything it writes (its Rand, its buffers), so the
// result does not depend on how the calls interleave. A panic in a call
// is raised again on the caller's goroutine once every call has returned.
func eachSeries(n int, series func(i int) *stats.Series) []*stats.Series {
	out := make([]*stats.Series, n)
	panics := make([]any, n)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { panics[i] = recover() }()
			out[i] = series(i)
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	return out
}

// logSpace returns ~k integers log-spaced in [lo, hi], deduplicated.
func logSpace(lo, hi, k int) []int {
	out := []int{}
	prev := -1
	for i := 0; i < k; i++ {
		f := float64(i) / float64(k-1)
		v := int(math.Round(float64(lo) * math.Pow(float64(hi)/float64(lo), f)))
		if v != prev {
			out = append(out, v)
			prev = v
		}
	}
	return out
}

// trialsFor scales Monte-Carlo repetitions down as rounds get bigger.
func trialsFor(n int) int {
	switch {
	case n <= 10:
		return 400
	case n <= 100:
		return 200
	case n <= 1000:
		return 60
	default:
		return 15
	}
}
