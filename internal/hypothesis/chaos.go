package hypothesis

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// ChaosPlan draws a randomized-but-deterministic fault schedule over a
// scenario spec: the level's count of faults of kinds the spec's shape
// supports — core-link partitions with guaranteed heals, edge-link
// outages, receiver crashes, impairment (corrupt/duplicate/reorder)
// bursts — at times and durations drawn from a dedicated RNG seeded by
// Seed, so the same plan over the same spec always yields the same
// script whatever run seeds it is later swept with. Level scales
// intensity; faults start in the middle half of the run, leaving the
// head to reach steady state and the tail to observe recovery after the
// final guaranteed heal.
type ChaosPlan struct {
	Level int   `json:"level"`          // 1 (mild) .. 3 (hostile)
	Seed  int64 `json:"seed,omitempty"` // schedule RNG seed; default 1
}

// chaosLevel is one intensity preset.
type chaosLevel struct {
	bursts    int      // faults drawn per plan
	minOutage sim.Time // outage / impairment burst duration range
	maxOutage sim.Time
	maxImpair float64 // upper bound of each drawn impairment rate
	crashFrac float64 // fraction of the receiver set that may crash
}

// Levels returns the chaos level presets in ascending intensity, for
// docs and listings.
func Levels() map[int]string {
	out := map[int]string{}
	for lvl, c := range chaosLevels {
		out[lvl] = fmt.Sprintf("%d bursts, outages %v-%v, impairment rates <= %.0f%%, up to %.0f%% of receivers crash",
			c.bursts, c.minOutage, c.maxOutage, c.maxImpair*100, c.crashFrac*100)
	}
	return out
}

var chaosLevels = map[int]chaosLevel{
	1: {bursts: 2, minOutage: 1 * sim.Second, maxOutage: 3 * sim.Second, maxImpair: 0.05, crashFrac: 0},
	2: {bursts: 4, minOutage: 2 * sim.Second, maxOutage: 6 * sim.Second, maxImpair: 0.15, crashFrac: 0.25},
	3: {bursts: 8, minOutage: 2 * sim.Second, maxOutage: 10 * sim.Second, maxImpair: 0.30, crashFrac: 0.5},
}

func (p *ChaosPlan) seed() int64 {
	if p.Seed == 0 {
		return 1
	}
	return p.Seed
}

// Apply returns a copy of spec with the plan's fault script appended to
// its event list and HalveOnSilence set, leaving the receiver untouched.
func (p *ChaosPlan) Apply(spec *scenario.Spec) (*scenario.Spec, error) {
	lvl, ok := chaosLevels[p.Level]
	if !ok {
		return nil, fmt.Errorf("hypothesis: unknown chaos level %d (have 1..%d)", p.Level, len(chaosLevels))
	}
	if spec.Duration <= 0 {
		return nil, fmt.Errorf("hypothesis: chaos over zero-duration spec %q", spec.Name)
	}
	from, to := spec.Duration/4, spec.Duration*3/4

	out := *spec
	out.Name = fmt.Sprintf("%s-chaos%d-s%d", spec.Name, p.Level, p.seed())
	out.Events = append([]scenario.Event(nil), spec.Events...)
	// Chaos runs are fault runs: without the section 5 no-feedback
	// failure mode a crashed CLR would freeze the rate forever.
	out.HalveOnSilence = true

	// Fault targets are read from a scratch build of the spec: core link
	// pairs, sites (every first hop is an edge-down target) and declared
	// receivers, which both the crash budget and the index draw use.
	built, err := scenario.BuildScratch(spec, 1)
	if err != nil {
		return nil, fmt.Errorf("hypothesis: chaos over spec %q: %w", spec.Name, err)
	}
	coreLinks, sites, receivers := len(built.Topo.Links)/2, len(built.SiteLinks), len(built.Recvs)
	crashBudget := int(lvl.crashFrac * float64(receivers))

	rng := sim.NewRand(p.seed())
	drawAt := func() sim.Time { return from + sim.Time(rng.Float64()*float64(to-from)) }
	drawDur := func() sim.Time {
		return lvl.minOutage + sim.Time(rng.Float64()*float64(lvl.maxOutage-lvl.minOutage))
	}
	// healAt keeps every heal strictly inside the run so no fault is
	// left standing at the end of the schedule.
	healAt := func(at, dur sim.Time) sim.Time {
		h := at + dur
		if limit := spec.Duration - sim.Second; h > limit {
			h = sim.MaxOf(at, limit)
		}
		return h
	}
	randLink := func() scenario.LinkRef {
		// Uniform over core link pairs and site first hops.
		i := rng.Intn(coreLinks + sites)
		if i < coreLinks {
			return scenario.CoreLink(i)
		}
		return scenario.SiteLink(i-coreLinks, 0, rng.Intn(2) == 1)
	}

	for b := 0; b < lvl.bursts; b++ {
		var kinds []string
		if coreLinks > 0 {
			kinds = append(kinds, "partition")
		}
		if sites > 0 {
			kinds = append(kinds, "edge-down")
		}
		if crashBudget > 0 {
			kinds = append(kinds, "crash")
		}
		if coreLinks+sites > 0 {
			kinds = append(kinds, "impair")
		}
		if len(kinds) == 0 {
			return nil, fmt.Errorf("hypothesis: spec %q offers no chaos targets (no core links, sites or receivers)", spec.Name)
		}
		at := drawAt()
		switch kinds[rng.Intn(len(kinds))] {
		case "partition":
			l := scenario.CoreLink(rng.Intn(coreLinks))
			dur := drawDur()
			out.Events = append(out.Events,
				scenario.PartitionEvent(at, scenario.DuplexRefs(l)...),
				scenario.HealEvent(healAt(at, dur), scenario.DuplexRefs(l)...))
		case "edge-down":
			l := scenario.SiteLink(rng.Intn(sites), 0, rng.Intn(2) == 1)
			dur := drawDur()
			out.Events = append(out.Events,
				scenario.PartitionEvent(at, l),
				scenario.HealEvent(healAt(at, dur), l))
		case "crash":
			out.Events = append(out.Events, scenario.CrashEvent(at, rng.Intn(receivers)))
			crashBudget--
		case "impair":
			l := randLink()
			dur := drawDur()
			out.Events = append(out.Events,
				scenario.ImpairEvent(at, l, scenario.Impair{
					Corrupt:   rng.Float64() * lvl.maxImpair,
					Duplicate: rng.Float64() * lvl.maxImpair,
					Reorder:   rng.Float64() * lvl.maxImpair,
				}),
				scenario.ImpairEvent(healAt(at, dur), l, scenario.Impair{}))
		}
	}
	return &out, nil
}
