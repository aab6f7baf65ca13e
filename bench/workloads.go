package main

import (
	"fmt"
	"math"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// use is one scenario of a workload: Seeds consecutive seeds of registry
// entry ID per pass. DurSec overrides the spec's simulated duration
// (Spec-backed entries only); SetupBuilds is how many cold builds of the
// scenario one set-up repetition performs; SetupRun marks a hand-wired or
// analytic entry whose cold first run stands in for the build it does not
// expose.
type use struct {
	ID          string
	Seeds       int
	DurSec      float64
	SetupBuilds int
	SetupRun    bool
}

// workload is a fixed, ordered run list executed on one goroutine and one
// warm RunCtx. The sizes give a pass of 1.2-1.5 s on the 2-core reference
// box, so a 10 s measurement repeats every run 6-8 times and the per-run
// minimum has something to choose from (the two hand-wired figures and
// figure 7 cannot be shortened, so stepped_clock and analytic_scaling run
// 5-6 s passes, region_sharded 2.3 s ones).
type workload struct {
	Name          string
	Why           string
	Uses          []use
	EngineWorkers int  // >= 2 routes Spec-backed runs through internal/engine
	Merge         bool // merge the per-seed series into CI bands after each pass
}

var workloads = []workload{
	{
		Name: "large_group",
		Why:  "1000 receivers behind one bottleneck (figure 12, 40 sim-s, 2 seeds): receiver-set scaling; tfmcc receive path and simnet multicast fan-out dominate, working set exceeds cache",
		Uses: []use{{ID: "12", Seeds: 2, DurSec: 40, SetupBuilds: 10}},
	},
	{
		Name:  "unicast_sweep",
		Why:   "figure 9 (1 TFMCC + 15 TCP on a dumbbell) x 8 seeds merged into CI bands: the seed-sweep user; sim heap and simnet unicast queueing dominate, tfmcc receiver near zero, 8 arena rewinds",
		Uses:  []use{{ID: "9", Seeds: 8, SetupBuilds: 1200}},
		Merge: true,
	},
	{
		Name: "deep_fanout",
		Why:  "deeptree, wireless and chainloss presets, serial: multi-hop multicast forwarding with per-link random loss and small receiver state; serial twin of region_sharded",
		Uses: []use{
			{ID: "deeptree", Seeds: 1, SetupBuilds: 100},
			{ID: "wireless", Seeds: 4, SetupBuilds: 100},
			{ID: "chainloss", Seeds: 4, SetupBuilds: 100},
		},
	},
	{
		Name: "region_sharded",
		Why:  "the deep_fanout presets at engineworkers=2: internal/engine windows, handoffs and per-region pools; a gain for serial that costs sharded (or vice versa) shows here",
		Uses: []use{
			{ID: "deeptree", Seeds: 1, SetupBuilds: 150},
			{ID: "wireless", Seeds: 4, SetupBuilds: 150},
			{ID: "chainloss", Seeds: 4, SetupBuilds: 150},
		},
		EngineWorkers: 2,
	},
	{
		Name: "churn_faults",
		Why:  "seven fault presets x 4 seeds (28 runs of 7-130 ms): join/leave, route and tree re-derivation, link mutation, impairments, CLR re-election; build and rewind are a visible share",
		Uses: []use{
			{ID: "flashcrowd", Seeds: 4, SetupBuilds: 250},
			{ID: "massleave", Seeds: 4, SetupBuilds: 250},
			{ID: "clrfail", Seeds: 4, SetupBuilds: 250},
			{ID: "partition", Seeds: 4, SetupBuilds: 250},
			{ID: "corruptfb", Seeds: 4, SetupBuilds: 250},
			{ID: "degrade", Seeds: 4, SetupBuilds: 250},
			{ID: "tcpburst", Seeds: 4, SetupBuilds: 250},
		},
	},
	{
		Name: "stepped_clock",
		Why:  "figures 13 and 14, the hand-wired SerialOnly runners that step RunUntil in 100 ms slices over 40/200-receiver stars: 10x the median allocs/event, mid-size group",
		Uses: []use{{ID: "13", Seeds: 1}, {ID: "14", Seeds: 2, SetupRun: true}},
	},
	{
		Name: "analytic_scaling",
		Why:  "figures 3-7, event-free Monte-Carlo: feedback rounds and lossrate+tcpmodel over 10^4 estimators; sim and simnet do nothing, unit of work is one figure run",
		Uses: []use{{ID: "3", Seeds: 1}, {ID: "4", Seeds: 1}, {ID: "5", Seeds: 1, SetupRun: true}, {ID: "6", Seeds: 1}, {ID: "7", Seeds: 1}},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// item is one run of a pass: the only inputs the program under test sees.
type item struct {
	ID       string
	Seed     int64
	Ov       scenario.Overrides
	Spec     bool // Spec-backed: RunOverridden; otherwise RunWith
	Analytic bool
}

// slowFixed are the fixed-cost entries dropped from scaled-down smoke
// runs (each costs seconds and cannot be shortened from outside).
var slowFixed = map[string]bool{"13": true, "7": true}

// runList expands the workload into its ordered run list. Seeds derive
// from base: run k of the workload uses seed base*1000+k, so -seed 1 and
// the hold-out -seed 1001 share no seed. scale < 1 shrinks seeds per
// scenario and simulated durations for smoke tests; its numbers are not
// comparable with a full run.
func (w workload) runList(base int64, scale float64) ([]item, error) {
	var out []item
	k := int64(0)
	for _, u := range w.Uses {
		e, ok := experiments.Lookup(u.ID)
		if !ok {
			return nil, fmt.Errorf("workload %s: unknown scenario %q", w.Name, u.ID)
		}
		if scale < 1 && slowFixed[u.ID] {
			continue
		}
		seeds := u.Seeds
		ov := scenario.None()
		if u.DurSec > 0 {
			ov.Duration = sim.FromSeconds(u.DurSec)
		}
		if scale < 1 {
			seeds = int(math.Max(1, math.Round(float64(seeds)*scale)))
			if e.Spec != nil {
				d := e.Spec().Duration
				if ov.Duration > 0 {
					d = ov.Duration
				}
				ov.Duration = sim.MaxOf(d.Scale(scale), 2*sim.Second)
			}
		}
		for s := 0; s < seeds; s++ {
			out = append(out, item{ID: u.ID, Seed: base*1000 + k, Ov: ov, Spec: e.Spec != nil, Analytic: e.Analytic()})
			k++
		}
	}
	return out, nil
}
