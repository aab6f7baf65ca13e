package scenario

import (
	"fmt"

	"repro/internal/sim"
)

// Overrides are the command-line knobs applicable to any Spec without
// knowing its shape: the run's length. Any other variation is an edit
// to the spec document (tfmccsim -spec-out, then -scenario-file), which
// Build checks like any other document.
type Overrides struct {
	Duration sim.Time // total simulated time; 0 keeps the spec's value
}

// None returns the no-op override set.
func None() Overrides { return Overrides{} }

// Apply returns a copy of the spec with the overrides folded in. It
// refuses a negative duration, naming its flag; the receiver spec is
// never mutated.
func (s *Spec) Apply(o Overrides) (*Spec, error) {
	if o.Duration < 0 {
		return nil, fmt.Errorf("scenario: override -duration %v is negative (0 keeps the spec's value)", o.Duration)
	}
	out := *s
	if o.Duration > 0 {
		out.Duration = o.Duration
	}
	return &out, nil
}
