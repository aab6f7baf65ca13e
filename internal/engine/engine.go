// Package engine executes a declarative scenario on a region-sharded
// simulation core. The topology is partitioned into regions — the
// transit-stub domain structure when the generator hinted it, a
// delay-threshold cut otherwise — and each region gets its own
// scheduler and RNG streams. Regions advance together in conservative
// lookahead windows no wider than the minimum delay of any
// region-crossing link, so a packet propagating across a cut always
// arrives at or after the next synchronization barrier and no scheduler
// ever sees an event in its past. There are no null messages: shards with
// an event due step to the window end, one after another on the goroutine
// that called Run (the others just have their clock moved there),
// cross-region sends park in per-pair outboxes, and a barrier drains them
// into the destination shards, where they dispatch in (arrival time,
// source region, per-source push order).
//
// Control flow that spans regions (the scenario event script, aggregate
// and sample tickers, invariant checker ticks, receiver joins, flow
// start/stop) stays on the control scheduler, which only runs at
// barriers while every shard is quiesced; windows are additionally
// clipped to the next pending control event so those callbacks observe
// all shards at exactly their own clock.
//
// Output is deterministic: for a fixed seed the result is byte-identical
// across runs, because the region structure, the window schedule and the
// handoff order depend only on the topology and the seed. A sharded run
// is its own deterministic universe, distinct from the serial engine's
// (per-region RNG streams replace the two global ones), which is why
// -engineworkers 1 keeps the serial path rather than a one-shard engine.
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
	Lookahead     sim.Time // conservative window bound; InfiniteLookahead if uncut
	Windows       uint64   // synchronization windows executed
	WindowNS      sim.Time // summed window widths (mean width = WindowNS/Windows)
	ShardSteps    uint64   // summed busy shards per window (mean busy = ShardSteps/Windows)
	Batches       uint64   // dispatch batches across control + shard schedulers
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

// Setups returns the per-region scheduler and RNG bindings for a run of
// the given seed. Streams depend only on (seed, region).
func Setups(shards int, seed int64) []simnet.ShardSetup {
	setups := make([]simnet.ShardSetup, shards)
	for i := range setups {
		mix := int64(uint64(seed) ^ (uint64(i+1) * shardRngMix))
		setups[i] = simnet.ShardSetup{
			Sched:    sim.NewScheduler(),
			NetRng:   sim.NewRand(mix),
			ProtoRng: sim.NewRand(mix + 7),
		}
	}
	return setups
}

// Run builds spec on env in sharded mode and executes it to the spec's
// duration on the calling goroutine, returning the populated scenario
// exactly as scenario.Run does. env must be freshly rewound for seed (the
// same contract scenario.Run has); the engine enables sharding on env.Net
// before building, and a later env reset tears it down again. workers is
// ignored: it is kept for the bench/ module's caller.
func Run(env scenario.Env, spec *scenario.Spec, seed int64, workers int) (*scenario.Scenario, Stats, error) {
	part, err := Partition(spec, seed, 0)
	if err != nil {
		return nil, Stats{}, err
	}
	k := part.Shards
	if k == 0 {
		return nil, Stats{}, fmt.Errorf("engine: scenario %s has no nodes to partition", spec.Name)
	}
	setups := Setups(k, seed)
	env.Net.EnableSharding(part.ShardOf, setups)
	sc, err := scenario.Build(env, spec)
	if err != nil {
		return nil, Stats{}, err
	}
	if env.Check != nil {
		invariant.RegisterShardPredicates(env.Check, shardState{Network: env.Net, ctl: env.Sch})
	}
	sc.Start()
	env.Net.BarrierSync() // end construction replay before the first window

	scheds := make([]*sim.Scheduler, k)
	for i, s := range setups {
		scheds[i] = s.Sched
	}
	shards := newShardSet(scheds)

	st := Stats{Shards: k, Lookahead: part.Lookahead}
	ctl, net, dur := env.Sch, env.Net, spec.Duration
	now := sim.Time(0)
	for {
		// Window end: the adaptive lookahead bound, clipped to the run
		// duration and to the next control event (which must see shards at
		// its own time). The conservative bound is not now+Lookahead but
		// Emin+Lookahead, where Emin is the earliest pending event on any
		// shard: no shard can emit a cross-region packet before its first
		// event, so every future handoff arrives at or after Emin+Lookahead.
		// Idle stretches — suppression silences, converged steady state —
		// thus collapse into one wide window instead of a barrier per
		// lookahead quantum.
		end := dur
		// emin == MaxTime means no shard has pending work: only a control
		// event can create any, and the clip below handles it.
		if emin := shards.peek(); part.Lookahead < simnet.InfiniteLookahead && emin < sim.MaxTime {
			if w := emin + part.Lookahead; w >= emin && w < end {
				end = w
			}
		}
		if ct, ok := ctl.PeekTime(); ok && ct < end {
			end = ct
		}
		if end < now {
			end = now
		}
		st.ShardSteps += uint64(shards.stepTo(end))
		net.DrainHandoffs()
		ctl.RunUntil(end)
		net.BarrierSync()
		st.Windows++
		st.WindowNS += end - now
		if end >= dur {
			break
		}
		now = end
	}
	st.ShardEvents = net.ShardEventCounts()
	st.ControlEvents = ctl.Processed()
	st.HandoffsSent, st.HandoffsRecv = net.HandoffCounts()
	st.Batches = ctl.Batches()
	for _, s := range scheds {
		st.Batches += s.Batches()
	}
	return sc, st, nil
}

// shardSet moves the region schedulers through one window at a time.
// What a window costs follows the shards that have something to do in
// it: peek reads every shard's earliest pending event (the engine needs
// the minimum to size the window anyway), and stepTo then runs only the
// shards with an event due by the window end, in region order. The others
// just have their clock moved: a shard's schedule cannot change before the
// barrier except through its own events — the handoff drain and control
// events, the only other writers, run after it — so a shard with nothing
// due has nothing to run.
type shardSet struct {
	scheds []*sim.Scheduler
	next   []sim.Time // per shard: earliest pending event at the last peek, MaxTime if none
}

func newShardSet(scheds []*sim.Scheduler) *shardSet {
	return &shardSet{scheds: scheds, next: make([]sim.Time, len(scheds))}
}

// peek records every shard's earliest pending event time and returns
// the minimum, sim.MaxTime when no shard has anything pending.
func (s *shardSet) peek() sim.Time {
	emin := sim.MaxTime
	for i, sch := range s.scheds {
		t, ok := sch.PeekTime()
		if !ok {
			t = sim.MaxTime
		}
		s.next[i] = t
		emin = min(emin, t)
	}
	return emin
}

// stepTo brings every shard to time end, running the events due by then,
// and returns how many shards had any. Nothing may have been scheduled
// on a shard since the last peek.
func (s *shardSet) stepTo(end sim.Time) int {
	busy := 0
	for i, sch := range s.scheds {
		if s.next[i] <= end {
			sch.RunUntil(end)
			busy++
		} else {
			sch.AdvanceTo(end)
		}
	}
	return busy
}

// shardState adapts a running engine to the cross-shard invariant
// predicates: the network supplies shard clocks and handoff counters,
// the control scheduler the reference clock.
type shardState struct {
	*simnet.Network
	ctl *sim.Scheduler
}

func (s shardState) ControlNow() sim.Time { return s.ctl.Now() }
