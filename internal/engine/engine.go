// Package engine builds a declarative scenario on a region-sharded
// simulation core. The topology is partitioned into regions — the
// transit-stub domain structure when the generator hinted it, a
// delay-threshold cut otherwise — and each region gets its own
// scheduler and RNG streams. simnet.Network.RunUntil then advances the
// regions together in conservative lookahead windows no wider than the
// minimum delay of any region-crossing link, so a packet propagating
// across a cut always arrives at or after the next synchronization
// barrier and no scheduler ever sees an event in its past. There are no
// null messages: shards with an event due step to the window end, one
// after another on the goroutine that called RunUntil (the others just
// have their clock moved there), cross-region sends park in per-pair
// outboxes, and a barrier drains them into the destination shards, where
// they dispatch in (arrival time, source region, per-source push order).
//
// Control flow that spans regions (the scenario event script, aggregate
// and sample tickers, invariant checker ticks, receiver joins, flow
// start/stop) stays on the control scheduler, which only runs at
// barriers while every shard is quiesced; windows are additionally
// clipped to the next pending control event so those callbacks observe
// all shards at exactly their own clock. Between two RunUntil calls the
// caller is at a barrier too, so a runner that polls protocol state in
// slices runs on either engine unchanged.
//
// Output is deterministic: for a fixed seed the result is byte-identical
// across runs, because the region structure, the window schedule and the
// handoff order depend only on the topology, the seed, the RunUntil calls
// and the control events. Control events include an armed invariant
// checker's ticks: they clip windows, and a handoff drained at another
// barrier takes another place among its region's events of the same
// instant, so a checked run is not always byte-identical to an unchecked
// one (PERFORMANCE.md §4 "Region engine"). A sharded run is its own
// deterministic universe, distinct from the serial engine's (per-region
// RNG streams replace the two global ones), which is why -engineworkers 1
// keeps the serial path rather than a one-shard engine.
package engine

import (
	"fmt"

	"repro/internal/invariant"
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
	HandoffsSent  uint64   // cross-region packets pushed by source shards
	HandoffsRecv  uint64   // cross-region packets drained into destinations
}

// Partition computes the region assignment the engine will use for a
// spec: it builds the scenario on a scratch network — construction is
// deterministic in the seed, and the only construction-time random
// draws (site jitter) come from the protocol stream in both modes, so
// the scratch topology including jittered delays is a faithful replica
// — then resolves the links whose delay the event script mutates (their
// endpoints must share a region so the lookahead can never be undercut
// mid-run) and partitions. maxShards caps the region count, 0 meaning
// simnet.MaxAutoShards.
func Partition(spec *scenario.Spec, seed int64, maxShards int) (simnet.Partition, error) {
	sch := sim.NewScheduler()
	net := simnet.New(sch, sim.NewRand(seed))
	env := scenario.Env{Sch: sch, Net: net, Rng: sim.NewRand(seed + 7)}
	sc, err := scenario.Build(env, spec)
	if err != nil {
		return simnet.Partition{}, err
	}
	pinned := map[*simnet.Link]bool{}
	for _, ev := range spec.Events {
		if ev.SetLink == nil || ev.SetLink.Delay == nil {
			continue
		}
		l, err := sc.Link(ev.SetLink.Link)
		if err != nil {
			return simnet.Partition{}, err
		}
		pinned[l] = true
	}
	return simnet.PartitionRegions(net, pinned, maxShards), nil
}

// shardRngMix spreads the region index across the seed bits (the
// 64-bit golden ratio, the usual splitmix increment) so per-region
// streams are decorrelated from each other and from the serial streams.
const shardRngMix = 0x9E3779B97F4A7C15

// setups returns the per-region scheduler and RNG bindings for a run of
// the given seed. Streams depend only on (seed, region).
func setups(shards int, seed int64) []simnet.ShardSetup {
	out := make([]simnet.ShardSetup, shards)
	for i := range out {
		mix := int64(uint64(seed) ^ (uint64(i+1) * shardRngMix))
		out[i] = simnet.ShardSetup{
			Sched:    sim.NewScheduler(),
			NetRng:   sim.NewRand(mix),
			ProtoRng: sim.NewRand(mix + 7),
		}
	}
	return out
}

// Build partitions spec, enables sharding on env.Net and builds the
// scenario on it, registering the cross-shard invariants when env has a
// checker. env must be freshly rewound for seed (the contract
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
	env.Net.EnableSharding(part, setups(part.Shards, seed))
	sc, err := scenario.Build(env, spec)
	if err != nil {
		return nil, err
	}
	if env.Check != nil {
		invariant.RegisterShardPredicates(env.Check, env.Net)
	}
	return sc, nil
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
	net := env.Net
	st := Stats{ShardEvents: net.ShardEventCounts(), ControlEvents: env.Sch.Processed()}
	st.Shards = len(st.ShardEvents)
	st.Windows, st.WindowNS, st.ShardSteps = net.WindowCounts()
	st.HandoffsSent, st.HandoffsRecv = net.HandoffCounts()
	st.Batches = env.Sch.Batches() + net.ShardBatches()
	return sc, st, nil
}
