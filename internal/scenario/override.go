package scenario

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Overrides are the command-line knobs applicable to any Spec without
// knowing its shape. Zero means "keep the spec's value", except on the
// two loss fields, where 0 is a meaningful value and exactly -1 (what
// None sets) is the one "unset" marker. Apply rejects everything else
// that is not a value: negatives, NaN, infinities, a loss above 1.
type Overrides struct {
	Duration  sim.Time // total simulated time
	CoreBW    float64  // bytes/s on every core link
	CoreDelay sim.Time
	CoreLoss  float64 // -1 = unset
	CoreQueue int
	// EdgeLoss (-1 = unset) replaces the down-direction loss of every
	// site's LAST hop — the edge link nearest the receiver — and of the
	// population access hop; earlier hops of two-hop tails keep their
	// declared loss.
	EdgeLoss  float64
	Receivers int // population size; needs a Population-based spec
	Fanout    int // tree fan-out
	Depth     int // tree depth
	Hops      int // chain length
}

// None returns the no-op override set (loss fields need an explicit
// "unset" marker because 0 is meaningful).
func None() Overrides { return Overrides{CoreLoss: -1, EdgeLoss: -1} }

// validate names the first field (by its command-line flag) whose value
// is neither "unset" nor something a spec can hold.
func (o Overrides) validate() error {
	type field struct {
		flag string
		v    float64
	}
	for _, f := range []field{
		{"-duration", float64(o.Duration)}, {"-corebw", o.CoreBW},
		{"-coredelay", float64(o.CoreDelay)}, {"-corequeue", float64(o.CoreQueue)},
		{"-receivers", float64(o.Receivers)},
		{"-fanout", float64(o.Fanout)}, {"-depth", float64(o.Depth)}, {"-hops", float64(o.Hops)},
	} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) { // negated so that NaN fails too
			return fmt.Errorf("scenario: override %s is negative or not finite (0 keeps the spec's value)", f.flag)
		}
	}
	for _, f := range []field{{"-coreloss", o.CoreLoss}, {"-edgeloss", o.EdgeLoss}} {
		if f.v != -1 && !(f.v >= 0 && f.v <= 1) {
			return fmt.Errorf("scenario: override %s %v is not a loss probability in [0, 1] (-1 keeps the spec's value)", f.flag, f.v)
		}
	}
	return nil
}

// Apply returns a copy of the spec with the overrides folded in, or an
// error naming the override that is out of range. Steps are copied only
// as deeply as they are modified; the receiver spec is never mutated.
func (s *Spec) Apply(o Overrides) (*Spec, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	out := *s
	if o.Duration > 0 {
		out.Duration = o.Duration
	}
	if o.CoreBW > 0 {
		out.Topology.Core.BW = o.CoreBW
	}
	if o.CoreDelay > 0 {
		out.Topology.Core.Delay = o.CoreDelay
	}
	if o.CoreLoss >= 0 {
		out.Topology.Core.Loss = o.CoreLoss
	}
	if o.CoreQueue > 0 {
		out.Topology.Core.Queue = o.CoreQueue
	}
	if o.Fanout > 0 {
		out.Topology.Fanout = o.Fanout
	}
	if o.Depth > 0 {
		out.Topology.Depth = o.Depth
	}
	if o.Hops > 0 {
		out.Topology.Hops = o.Hops
	}
	if o.Receivers > 0 {
		if s.Pop == nil {
			return nil, fmt.Errorf("scenario %s: -receivers needs a population-based spec (this one declares receivers as explicit steps)", s.Name)
		}
		pop := *s.Pop
		pop.Count = o.Receivers // PerAttach placement still round-robins
		out.Pop = &pop
	}
	if o.EdgeLoss >= 0 {
		if out.Pop != nil {
			pop := *out.Pop
			if pop.Hop == (Hop{}) {
				pop.Hop = FastHop()
			}
			pop.Hop.Down.Loss = o.EdgeLoss
			out.Pop = &pop
		}
		steps := make([]Step, len(out.Steps))
		copy(steps, out.Steps)
		for i, st := range steps {
			if st.Site == nil || len(st.Site.Hops) == 0 {
				continue // a site with no hops is Build's to refuse
			}
			site := *st.Site
			site.Hops = append([]Hop(nil), site.Hops...)
			site.Hops[len(site.Hops)-1].Down.Loss = o.EdgeLoss
			steps[i].Site = &site
		}
		out.Steps = steps
	}
	return &out, nil
}
