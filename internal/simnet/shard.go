package simnet

import "repro/internal/sim"

// Sharded (region) execution support.
//
// EnableSharding assigns every node to a region and gives each region
// its own scheduler and RNG pair, derived from the run's seed and the
// region index. All intra-region traffic — link entry modules,
// serialisers, propagation, protocol timers — runs on the region's
// shard; the only inter-region interaction is propagation over a
// crossing link, which the sender schedules straight into the
// destination shard. RunUntil steps the shards one after another on the
// calling goroutine, in conservative lookahead windows no wider than the
// minimum crossing-link delay, so a crossing packet always arrives at or
// after the window's end, which no shard clock passes inside the window:
// the destination scheduler never sees an event in its past, whichever
// of the two shards steps first. Everything else — the packet free
// lists, routes, compiled multicast trees, fault counters — is the
// network's one copy, shared by every region.
//
// All of it lives in Network.regions, which is zero on a serial network:
// a network that never calls EnableSharding takes exactly the serial
// code paths it always did, and Reset tears sharding down by zeroing it.
// RegionStats reads its counters in one call.

// regions is a network's region state: the partition, the shards and
// the counters of the sharded run so far. Zero means serial (shards is
// nil); only hints are also set on a serial network.
type regions struct {
	shardOf   []int32
	shards    []shardCtx
	lookahead sim.Time
	hints     map[NodeID]int32

	handoffs   uint64 // packets sent over crossing links
	windows    uint64
	windowNS   sim.Time
	shardSteps uint64
}

// shardCtx is one region's execution context.
type shardCtx struct {
	sched *sim.Scheduler
	rng   *sim.Rand // network stream: loss/corrupt/dup/reorder draws
	proto *sim.Rand // protocol stream: e.g. feedback suppression draws

	// next is the shard's earliest pending event at the last peek, MaxTime
	// if none.
	next sim.Time
}

// regionRngMix spreads the region index across the seed bits (the
// 64-bit golden ratio, the usual splitmix increment) so per-region
// streams are decorrelated from each other and from the serial streams.
const regionRngMix = 0x9E3779B97F4A7C15

// EnableSharding switches the network to sharded execution: p maps every
// node (present and to be built — the caller derives it from a scratch
// build of the same scenario) to a region and bounds RunUntil's windows
// by its lookahead. Each region gets a new scheduler and network and
// protocol streams that depend only on (seed, region). Existing links
// are rebound; links added later bind on creation. Reset tears sharding
// down again.
func (n *Network) EnableSharding(p Partition, seed int64) {
	if p.Shards == 0 {
		panic("simnet: EnableSharding with no shards")
	}
	r := regions{shardOf: p.ShardOf, shards: make([]shardCtx, p.Shards),
		lookahead: p.Lookahead, hints: n.regions.hints}
	for i := range r.shards {
		mix := int64(uint64(seed) ^ (uint64(i+1) * regionRngMix))
		r.shards[i] = shardCtx{sched: sim.NewScheduler(), rng: sim.NewRand(mix), proto: sim.NewRand(mix + 7)}
	}
	n.regions = r
	for _, l := range n.linkList {
		n.bindLink(l)
	}
}

// RunUntil advances the simulation to time t. A serial network runs its
// scheduler. A sharded one runs windows: each ends at the earliest pending
// shard event plus the lookahead (no shard can emit a cross-region packet
// before its first event, so every future handoff arrives at or after
// that), clipped to t and to the next control event, which must see the
// shards at its own time. Idle stretches — suppression silences,
// converged steady state — thus collapse into one wide window instead of
// a barrier per lookahead quantum. At each barrier the busy shards step
// to the window end and the control events due run. A crossing send made
// anywhere — in a shard, in a control event, by the caller between two
// calls — is already in its destination's scheduler, so the next window
// is sized from the shards' heaps alone.
func (n *Network) RunUntil(t sim.Time) {
	ctl, r := n.sched, &n.regions
	if r.shards == nil {
		ctl.RunUntil(t)
		return
	}
	for now := ctl.Now(); ; now = ctl.Now() {
		end := t
		// emin == MaxTime means no shard has pending work: only a control
		// event can create any, and the clip below handles it.
		if emin := r.peek(); r.lookahead < InfiniteLookahead && emin < sim.MaxTime {
			if w := emin + r.lookahead; w >= emin && w < end {
				end = w
			}
		}
		if ct, ok := ctl.PeekTime(); ok && ct < end {
			end = ct
		}
		end = max(end, now)
		r.shardSteps += uint64(r.stepTo(end))
		ctl.RunUntil(end)
		r.windows++
		r.windowNS += end - now
		if end >= t {
			return
		}
	}
}

// peek records every shard's earliest pending event time and returns
// the minimum, sim.MaxTime when no shard has anything pending.
func (r *regions) peek() sim.Time {
	emin := sim.MaxTime
	for i := range r.shards {
		sc := &r.shards[i]
		t, ok := sc.sched.PeekTime()
		if !ok {
			t = sim.MaxTime
		}
		sc.next = t
		emin = min(emin, t)
	}
	return emin
}

// stepTo runs every shard to time end and returns how many had an event
// due by then at the last peek (the window's ShardSteps). Other shards
// write into a shard's schedule only at or after end, so a shard with
// nothing due at the peek runs at most the crossing arrivals landing
// exactly at end.
func (r *regions) stepTo(end sim.Time) int {
	busy := 0
	for i := range r.shards {
		sc := &r.shards[i]
		if sc.next <= end {
			busy++
		}
		sc.sched.RunUntil(end)
	}
	return busy
}

// bindLink points a link at the scheduler/RNG it executes on and
// classifies it as crossing or intra-region.
func (n *Network) bindLink(l *Link) {
	r := &n.regions
	if r.shards == nil {
		l.sched, l.rng, l.crossTo = n.sched, n.rng, -1
		return
	}
	ls, ld := r.shardOf[l.From], r.shardOf[l.To]
	l.sched, l.rng, l.crossTo = r.shards[ls].sched, r.shards[ls].rng, -1
	if ld != ls {
		l.crossTo = ld
	}
}

// SchedFor returns the scheduler that executes events at the given node:
// the node's shard scheduler when sharded, the network scheduler
// otherwise. Protocol endpoints bind their timers through this so the
// same constructor works in both modes.
func (n *Network) SchedFor(id NodeID) *sim.Scheduler {
	if n.regions.shards == nil {
		return n.sched
	}
	return n.regions.shards[n.regions.shardOf[id]].sched
}

// RandFor returns the network-stream RNG for draws made by code executing
// at the given node (the network's own RNG when serial).
func (n *Network) RandFor(id NodeID) *sim.Rand {
	if n.regions.shards == nil {
		return n.rng
	}
	return n.regions.shards[n.regions.shardOf[id]].rng
}

// ProtoRandFor returns the protocol-stream RNG for the given node on a
// sharded network, and fallback otherwise. Serial runs keep drawing from
// whatever stream the protocol was built with, bit-for-bit.
func (n *Network) ProtoRandFor(id NodeID, fallback *sim.Rand) *sim.Rand {
	if n.regions.shards == nil {
		return fallback
	}
	return n.regions.shards[n.regions.shardOf[id]].proto
}

// SetRegionHint records a partitioning hint: topology generators label
// the natural cut (e.g. transit-stub domains) and PartitionRegions seeds
// its region assignment from the labels. Hints are advisory — unhinted
// nodes inherit a region through their links.
func (n *Network) SetRegionHint(id NodeID, region int) {
	if n.regions.hints == nil {
		n.regions.hints = map[NodeID]int32{}
	}
	n.regions.hints[id] = int32(region)
}

// RegionStats is what a sharded run has counted since EnableSharding.
type RegionStats struct {
	Events     []uint64 // events executed per region scheduler
	Batches    uint64   // dispatch instants summed over the region schedulers
	Handoffs   uint64   // packets sent over crossing links
	Windows    uint64   // RunUntil windows run
	WindowNS   sim.Time // their summed widths
	ShardSteps uint64   // summed per-window counts of shards that had an event due
}

// RegionStats returns the region counters of a sharded network, and the
// zero RegionStats (Events nil) on a serial one. The control scheduler's
// events and batches are not included; callers fold those separately.
// Call it when the shards are quiesced: at a barrier or after RunUntil.
func (n *Network) RegionStats() RegionStats {
	r := &n.regions
	if r.shards == nil {
		return RegionStats{}
	}
	st := RegionStats{Events: make([]uint64, len(r.shards)), Handoffs: r.handoffs,
		Windows: r.windows, WindowNS: r.windowNS, ShardSteps: r.shardSteps}
	for i := range r.shards {
		st.Events[i] = r.shards[i].sched.Processed()
		st.Batches += r.shards[i].sched.Batches()
	}
	return st
}

// ShardClocks returns each shard scheduler's current time (nil when not
// sharded). At a barrier every entry equals the control clock; the
// cross-shard skew invariant pins that.
func (n *Network) ShardClocks() []sim.Time {
	r := &n.regions
	if r.shards == nil {
		return nil
	}
	out := make([]sim.Time, len(r.shards))
	for i := range r.shards {
		out[i] = r.shards[i].sched.Now()
	}
	return out
}
