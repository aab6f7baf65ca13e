// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, an event queue with cancellable timers, seeded
// randomness helpers and an arena that pools protocol objects by type
// across rewound runs. It is the substrate equivalent of the ns-2
// scheduler used in the TFMCC paper.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. It is also used for durations.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// MaxTime is the largest representable simulation time.
const MaxTime = Time(math.MaxInt64)

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis returns t expressed in milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// String formats the time with millisecond precision for traces.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// FromSeconds converts a duration in seconds to a Time, saturating at
// ±MaxTime; NaN reads as MaxTime.
func FromSeconds(s float64) Time { return saturate(s * float64(Second)) }

// Scale multiplies a time by a dimensionless factor, saturating like
// FromSeconds.
func (t Time) Scale(f float64) Time { return saturate(float64(t) * f) }

// saturate converts nanoseconds to a Time. A bare conversion of a value
// outside int64 (or of NaN) is MinInt64 on amd64, which turns a duration
// too long to represent into one the scheduler reads as "now".
func saturate(ns float64) Time {
	if !(ns < float64(MaxTime)) { // ≥ 2⁶³, or NaN
		return MaxTime
	}
	if ns <= -float64(MaxTime) {
		return -MaxTime
	}
	return Time(ns)
}

// Later returns the instant d >= 0 after t >= 0, saturating at MaxTime:
// an arrival past the end of time is MaxTime, which no RunUntil bound
// below it reaches.
func Later(t, d Time) Time {
	if d > MaxTime-t {
		return MaxTime
	}
	return t + d
}

// MinTime returns the smaller of a and b.
func MinTime(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// MaxOf returns the larger of a and b.
func MaxOf(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
