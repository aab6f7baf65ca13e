package scenario

import (
	"fmt"
	"math"
	"slices"

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

// Apply returns a copy of the spec with the overrides folded in. It
// refuses, naming the flag, the first override that is neither unset nor
// a value a spec can hold, and then the first one the spec's shape
// ignores, whose run would be byte-identical without it: core link
// values on a star, which has no core link; tree shape on anything but a
// tree; a chain length on anything but a chain; a receiver count on a
// spec without a population; edge loss on a spec with no site and no
// population hop. Steps are copied only as deeply as they are modified;
// the receiver spec is never mutated.
func (s *Spec) Apply(o Overrides) (*Spec, error) {
	kind := s.Topology.Kind
	star, notTree := kind == Star, kind != Tree
	noCore, treeOnly := "it has no core link", "only a tree has a fan-out and a depth"
	edges := s.Pop != nil && !s.Pop.Direct || slices.ContainsFunc(s.Steps, func(st Step) bool { return st.Site != nil })
	// Each override once: its flag, its value, whether it is a loss (unset
	// at -1, else in [0, 1]; any other override is unset at 0, else
	// positive and finite), why s ignores it ("" when s uses it) and how
	// it folds into the copy.
	fields := []struct {
		flag    string
		v       float64
		loss    bool
		ignored string
		apply   func(out *Spec, o Overrides)
	}{
		{"-duration", float64(o.Duration), false, "", func(out *Spec, o Overrides) { out.Duration = o.Duration }},
		{"-corebw", o.CoreBW, false, when(star, noCore), func(out *Spec, o Overrides) { out.Topology.Core.BW = o.CoreBW }},
		{"-coredelay", float64(o.CoreDelay), false, when(star, noCore), func(out *Spec, o Overrides) { out.Topology.Core.Delay = o.CoreDelay }},
		{"-corequeue", float64(o.CoreQueue), false, when(star, noCore), func(out *Spec, o Overrides) { out.Topology.Core.Queue = o.CoreQueue }},
		{"-receivers", float64(o.Receivers), false, when(s.Pop == nil, "it declares its receivers as explicit steps, not as a population"), func(out *Spec, o Overrides) {
			pop := *out.Pop
			pop.Count = o.Receivers // PerAttach placement still round-robins
			out.Pop = &pop
		}},
		{"-fanout", float64(o.Fanout), false, when(notTree, treeOnly), func(out *Spec, o Overrides) { out.Topology.Fanout = o.Fanout }},
		{"-depth", float64(o.Depth), false, when(notTree, treeOnly), func(out *Spec, o Overrides) { out.Topology.Depth = o.Depth }},
		{"-hops", float64(o.Hops), false, when(kind != Chain, "only a chain has hops"), func(out *Spec, o Overrides) { out.Topology.Hops = o.Hops }},
		{"-coreloss", o.CoreLoss, true, when(star, noCore), func(out *Spec, o Overrides) { out.Topology.Core.Loss = o.CoreLoss }},
		{"-edgeloss", o.EdgeLoss, true, when(!edges, "it has no site and no population hop"), func(out *Spec, o Overrides) { out.setEdgeLoss(o.EdgeLoss) }},
	}
	for _, f := range fields {
		if f.loss && f.v != -1 && !(f.v >= 0 && f.v <= 1) {
			return nil, fmt.Errorf("scenario: override %s %v is not a loss probability in [0, 1] (-1 keeps the spec's value)", f.flag, f.v)
		}
		if !f.loss && (!(f.v >= 0) || math.IsInf(f.v, 1)) { // negated so that NaN fails too
			return nil, fmt.Errorf("scenario: override %s is negative or not finite (0 keeps the spec's value)", f.flag)
		}
	}
	out := *s
	for _, f := range fields {
		if f.v > 0 || f.loss && f.v == 0 {
			if f.ignored != "" {
				return nil, fmt.Errorf("scenario %s: override %s has no effect on a %s spec: %s", s.Name, f.flag, kind, f.ignored)
			}
			f.apply(&out, o)
		}
	}
	return &out, nil
}

// when returns why when ignored holds, "" otherwise.
func when(ignored bool, why string) string {
	if ignored {
		return why
	}
	return ""
}

// setEdgeLoss sets the down-direction loss of the population access hop
// and of every site's last hop to loss, copying what it changes.
func (s *Spec) setEdgeLoss(loss float64) {
	if s.Pop != nil {
		pop := *s.Pop
		if pop.Hop == (Hop{}) {
			pop.Hop = FastHop()
		}
		pop.Hop.Down.Loss = loss
		s.Pop = &pop
	}
	steps := make([]Step, len(s.Steps))
	copy(steps, s.Steps)
	for i, st := range steps {
		if st.Site == nil || len(st.Site.Hops) == 0 {
			continue // a site with no hops is Build's to refuse
		}
		site := *st.Site
		site.Hops = append([]Hop(nil), site.Hops...)
		site.Hops[len(site.Hops)-1].Down.Loss = loss
		steps[i].Site = &site
	}
	s.Steps = steps
}
