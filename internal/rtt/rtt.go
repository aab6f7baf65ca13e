// Package rtt implements TFMCC's scalable round-trip time estimation
// (paper section 2.4): an exponentially weighted moving average over rare
// explicit measurements, continuous one-way-delay adjustments between
// them, and handling of the conservative initial RTT used before the
// first real measurement.
package rtt

import "repro/internal/sim"

// The constants of section 2.4.2/2.4.3. Every estimator runs them; an
// experiment on one is an edit to its constant here.
const (
	InitialRTT  sim.Time = 500 * sim.Millisecond // reported before any measurement
	AlphaCLR    float64  = 0.05                  // EWMA weight of a new sample for the CLR
	AlphaOther  float64  = 0.5                   // EWMA weight for non-CLR receivers
	AlphaOneWay float64  = 0.05                  // EWMA weight for one-way-delay adjustments
)

// Config carries no value: the estimator runs the constants above. It is
// kept, with DefaultConfig and NewEstimator's parameter, for the callers
// in bench/.
type Config struct{}

// DefaultConfig returns the empty Config.
func DefaultConfig() Config { return Config{} }

// Estimator tracks one receiver's RTT to the sender.
type Estimator struct {
	est      sim.Time
	owdBack  sim.Time // derived receiver->sender one-way delay (incl. skew)
	valid    bool
	owdValid bool
}

// NewEstimator returns an estimator that reports InitialRTT until the
// first measurement. The Config is ignored.
func NewEstimator(Config) *Estimator { return new(Estimator) }

// Reset puts the estimator into the state NewEstimator returns, for
// owners that hold the estimator by value.
func (e *Estimator) Reset() { *e = Estimator{} }

// Valid reports whether a real RTT measurement has been made.
func (e *Estimator) Valid() bool { return e.valid }

// RTT returns the current estimate (the initial RTT before the first
// measurement).
func (e *Estimator) RTT() sim.Time {
	if !e.valid {
		return InitialRTT
	}
	return e.est
}

// Measure incorporates an explicit RTT measurement: the receiver sent a
// timestamped report at sendTS, the sender echoed it with processing
// offset echoDelay, and the echo arrived at now with sender timestamp
// dataSendTS (the data packet's send time, used to split the RTT into
// one-way components). isCLR selects the CLR smoothing constant. It
// returns the instantaneous sample.
func (e *Estimator) Measure(now, sendTS, echoDelay, dataSendTS sim.Time, isCLR bool) sim.Time {
	inst := now - sendTS - echoDelay
	if inst < 0 {
		inst = 0
	}
	if !e.valid {
		e.valid = true
		e.est = inst
	} else {
		alpha := AlphaOther
		if isCLR {
			alpha = AlphaCLR
		}
		e.est = ewma(e.est, inst, alpha)
	}
	// One-way split for later adjustments (section 2.4.3). The skew
	// cancels when recombined with a later forward delay.
	e.owdBack = inst - (now - dataSendTS)
	e.owdValid = true
	return inst
}

// AdjustOneWay updates the estimate from a data packet's send timestamp
// without an explicit measurement: rtt' = d_recv->send + d'_send->recv.
// It returns the adjusted instantaneous estimate and whether an
// adjustment was possible. A large change signals the caller that a real
// measurement should be requested.
func (e *Estimator) AdjustOneWay(now, dataSendTS sim.Time) (sim.Time, bool) {
	if !e.owdValid {
		return 0, false
	}
	fwd := now - dataSendTS
	inst := e.owdBack + fwd
	if inst < 0 {
		inst = 0
	}
	e.est = ewma(e.est, inst, AlphaOneWay)
	return inst, true
}

// DiscardOneWay drops the stored one-way state. The paper discards all
// interim one-way adjustments when a receiver is selected as CLR and
// makes a fresh explicit measurement.
func (e *Estimator) DiscardOneWay() { e.owdValid = false }

func ewma(old, sample sim.Time, alpha float64) sim.Time {
	return sim.Time(alpha*float64(sample) + (1-alpha)*float64(old))
}
