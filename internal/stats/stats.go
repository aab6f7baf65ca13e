// Package stats provides the measurement utilities the experiments use:
// time series, windowed throughput meters, running moments, and fairness
// and smoothness summaries matching the metrics reported in the paper.
package stats

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/sim"
)

// Point is one sample of a time series.
type Point struct {
	T sim.Time
	V float64
}

// Series is an append-only time series.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a sample.
func (s *Series) Add(t sim.Time, v float64) { s.Points = append(s.Points, Point{T: t, V: v}) }

// Mean returns the mean of all values (0 for an empty series).
func (s *Series) Mean() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range s.Points {
		sum += p.V
	}
	return sum / float64(len(s.Points))
}

// MeanBetween returns the mean of samples with from <= T < to.
func (s *Series) MeanBetween(from, to sim.Time) float64 {
	sum, n := 0.0, 0
	for _, p := range s.Points {
		if p.T >= from && p.T < to {
			sum += p.V
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Max returns the maximum value (0 for an empty series).
func (s *Series) Max() float64 {
	max := 0.0
	for _, p := range s.Points {
		if p.V > max {
			max = p.V
		}
	}
	return max
}

// StdDev returns the sample standard deviation.
func (s *Series) StdDev() float64 {
	n := len(s.Points)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	sum := 0.0
	for _, p := range s.Points {
		d := p.V - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(n-1))
}

// CoV returns the coefficient of variation (std/mean), the smoothness
// metric used to compare TFMCC's rate with TCP's sawtooth.
func (s *Series) CoV() float64 {
	m := s.Mean()
	if m == 0 {
		return 0
	}
	return s.StdDev() / m
}

// TSV renders the series as "time<TAB>value" lines in seconds/raw units.
func (s *Series) TSV() string {
	var b strings.Builder
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%.3f\t%.3f\n", p.T.Seconds(), p.V)
	}
	return b.String()
}

// Meter accumulates bytes and periodically emits throughput samples in
// Kbit/s, like the ns-2 throughput monitors behind the paper's figures.
// Series is a pointer so a pooled meter can be re-armed with a fresh
// series while results that captured the previous run's series keep it.
type Meter struct {
	Series   *Series
	Interval sim.Time

	sched      *sim.Scheduler
	bytes      int64
	totalBytes int64
	started    bool
}

// NewMeter creates a meter that samples every interval once Start is
// called.
func NewMeter(name string, sched *sim.Scheduler, interval sim.Time) *Meter {
	m := new(Meter)
	m.Reset(name, sched, interval)
	return m
}

// Reset (re-)arms a new or pooled meter for a run: counters zeroed,
// sampling stopped until the next Start, and a fresh Series — never the
// old one, which a previous run's results may still reference.
func (m *Meter) Reset(name string, sched *sim.Scheduler, interval sim.Time) {
	*m = Meter{Series: &Series{Name: name}, Interval: interval, sched: sched}
}

// Start begins periodic sampling.
func (m *Meter) Start() {
	if m.started {
		return
	}
	m.started = true
	m.tick()
}

// tick arms the next sample without allocating: one package-level
// callback, with the meter itself as the event argument.
func (m *Meter) tick() { m.sched.AfterArg(m.Interval, meterSample, m) }

func meterSample(a any) {
	m := a.(*Meter)
	kbps := float64(m.bytes) * 8 / m.Interval.Seconds() / 1000
	m.Series.Add(m.sched.Now(), kbps)
	m.bytes = 0
	m.tick()
}

// Add records delivered bytes.
func (m *Meter) Add(bytes int) {
	m.bytes += int64(bytes)
	m.totalBytes += int64(bytes)
}

// TotalBytes returns all bytes ever recorded.
func (m *Meter) TotalBytes() int64 { return m.totalBytes }

// MeanKbps returns the mean of the sampled series.
func (m *Meter) MeanKbps() float64 { return m.Series.Mean() }

// JainIndex returns Jain's fairness index over per-flow throughputs:
// (Σx)²/(n·Σx²), 1.0 = perfectly fair.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sum2 float64
	for _, x := range xs {
		sum += x
		sum2 += x * x
	}
	if sum2 == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sum2)
}

// Welford tracks running mean and variance without storing samples.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates a sample.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the sample count.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the sample variance.
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }
