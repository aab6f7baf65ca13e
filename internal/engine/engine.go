// Package engine builds a declarative scenario on a region-sharded
// simulation core. The topology is partitioned into regions — the
// transit-stub domain structure when the generator hinted it, a
// delay-threshold cut otherwise — and handed to
// simnet.Network.EnableSharding, which owns everything a region runs on:
// its scheduler, its network and protocol RNG streams (derived from the
// seed and the region index), the window loop and the counters
// (RegionStats). simnet.Network.RunUntil advances the regions together
// in conservative lookahead windows no wider than the minimum delay of
// any region-crossing link, so a packet propagating across a cut always
// arrives at or after the next synchronization barrier and no scheduler
// ever sees an event in its past. There are no null messages: shards
// with an event due step to the window end, one after another on the
// goroutine that called RunUntil (the others just have their clock moved
// there), and a cross-region send is scheduled into its destination
// shard when it is sent. This package only partitions, enables sharding
// and builds.
//
// Control flow that spans regions (the scenario event script, aggregate
// and sample tickers, invariant checker ticks, receiver joins, flow
// start/stop) stays on the control scheduler, which only runs at
// barriers while every shard is quiesced; windows are additionally
// clipped to the next pending control event so those callbacks observe
// all shards at exactly their own clock. Between two RunUntil calls the
// caller is at a barrier too, so a stop predicate that polls protocol
// state in slices (a spec family's member) runs on either engine unchanged.
//
// Output is deterministic: for a fixed seed the result is byte-identical
// across runs, because the region structure, the window schedule and the
// order events enter each scheduler depend only on the topology, the
// seed, the RunUntil calls and the control events. No packet waits for a
// barrier, so an armed invariant checker's ticks, which clip windows,
// move no byte of any registry entry, and neither does slicing RunUntil
// (TestGoldenLedger's checked pass and TestSlicedRunUntil pin both; a
// crossing arrival and a local event at one instant are still ordered by
// when each entered the heap, PERFORMANCE.md §4). A sharded run is its
// own deterministic universe, distinct from the serial engine's
// (per-region RNG streams replace the two global ones), which is why
// SetEngineWorkers(1) keeps the serial path. No command, sweep or
// hypothesis selects this engine: it, simnet's shard.go and partition.go
// are kept only for bench/'s region_sharded workload, until the bench/
// edit that retires that workload deletes them.
package engine

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Stats describes one region-sharded run.
type Stats struct {
	Shards        int      // regions the topology was cut into
	Windows       uint64   // synchronization windows executed
	WindowNS      sim.Time // summed window widths (mean width = WindowNS/Windows)
	ShardSteps    uint64   // summed busy shards per window (mean busy = ShardSteps/Windows)
	Batches       uint64   // dispatch instants across control + shard schedulers
	ShardEvents   []uint64 // events executed per region scheduler
	ControlEvents uint64   // events executed on the control scheduler
	HandoffsSent  uint64   // cross-region packets sent
	HandoffsRecv  uint64   // equals HandoffsSent (kept for bench/)
}

// Partition computes the region assignment the engine will use for a
// spec: it builds the scenario on a scratch network (a faithful replica,
// jittered delays included: see scenario.BuildScratch), then resolves
// the links whose delay the event script mutates (their endpoints must
// share a region so the lookahead can never be undercut mid-run) and
// partitions. maxShards caps the region count, 0 meaning
// simnet.MaxAutoShards.
func Partition(spec *scenario.Spec, seed int64, maxShards int) (simnet.Partition, error) {
	sc, err := scenario.BuildScratch(spec, seed)
	if err != nil {
		return simnet.Partition{}, err
	}
	pinned := map[*simnet.Link]bool{}
	for _, ev := range spec.Events {
		if ev.SetLink == nil || ev.SetLink.Delay == nil {
			continue
		}
		for _, r := range ev.SetLink.Links {
			l, err := sc.Link(r)
			if err != nil {
				return simnet.Partition{}, err
			}
			pinned[l] = true
		}
	}
	return simnet.PartitionRegions(sc.Env.Net, pinned, maxShards), nil
}

// Build partitions spec, enables sharding on env.Net and builds the
// scenario on it. env must be freshly rewound for seed (the contract
// scenario.Build has); a later env reset tears sharding down again. The
// caller then starts the scenario and drives it with RunUntil exactly as
// on the serial engine.
func Build(env scenario.Env, spec *scenario.Spec, seed int64) (*scenario.Scenario, error) {
	part, err := Partition(spec, seed, 0)
	if err != nil {
		return nil, err
	}
	if part.Shards == 0 {
		return nil, fmt.Errorf("engine: scenario %s has no nodes to partition", spec.Name)
	}
	env.Net.EnableSharding(part, seed)
	return scenario.Build(env, spec)
}

// Run builds spec on env in sharded mode and executes it to the spec's
// duration, returning the populated scenario and the run's counters.
// workers is ignored: it is kept for the bench/ module's caller.
func Run(env scenario.Env, spec *scenario.Spec, seed int64, workers int) (*scenario.Scenario, Stats, error) {
	sc, err := Build(env, spec, seed)
	if err != nil {
		return nil, Stats{}, err
	}
	sc.Start()
	sc.RunUntil(spec.Duration)
	rs := env.Net.RegionStats()
	st := Stats{
		Shards: len(rs.Events), Windows: rs.Windows, WindowNS: rs.WindowNS, ShardSteps: rs.ShardSteps,
		Batches: env.Sch.Batches() + rs.Batches, ShardEvents: rs.Events, ControlEvents: env.Sch.Processed(),
		HandoffsSent: rs.Handoffs, HandoffsRecv: rs.Handoffs,
	}
	return sc, st, nil
}
