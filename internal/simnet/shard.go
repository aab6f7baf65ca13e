package simnet

import "repro/internal/sim"

// Sharded (region) execution support.
//
// EnableSharding assigns every node to a region and binds each region to
// its own scheduler and RNG pair. All intra-region traffic — link entry
// modules, serialisers, propagation, protocol timers — runs on the
// region's shard; the only inter-region interaction is propagation over a
// crossing link, which is appended to a per-(src,dst) outbox and drained
// into the destination shard at the next synchronization barrier.
// RunUntil steps the shards one after another on the calling goroutine,
// in conservative lookahead windows no wider than the minimum
// crossing-link delay, so a handoff's arrival time is always at or after
// the next barrier and the destination scheduler never sees an event in
// its past. Everything else — the packet free lists, routes, compiled
// multicast trees, fault counters — is the network's one copy, shared by
// every region.
//
// Everything here is gated on n.sharded; a network that never calls
// EnableSharding takes exactly the serial code paths it always did.

// shardCtx is one region's execution context.
type shardCtx struct {
	sched *sim.Scheduler
	rng   *sim.Rand // network stream: loss/corrupt/dup/reorder draws
	proto *sim.Rand // protocol stream: e.g. feedback suppression draws

	// next is the shard's earliest pending event at the last peek, MaxTime
	// if none.
	next sim.Time

	// sent counts the handoffs this shard pushed; dirty lists the
	// destinations whose outbox it made non-empty since the last drain, so
	// a barrier visits only the outboxes that hold something.
	sent  uint64
	dirty []int32
}

// handoff is one cross-region propagation in flight between barriers.
type handoff struct {
	at  sim.Time
	l   *Link
	pkt *Packet
}

// ShardSetup binds one region to its scheduler and RNG streams.
type ShardSetup struct {
	Sched    *sim.Scheduler
	NetRng   *sim.Rand
	ProtoRng *sim.Rand
}

// EnableSharding switches the network to sharded execution: p maps every
// node (present and to be built — the caller derives it from a scratch
// build of the same scenario) to a region and bounds RunUntil's windows
// by its lookahead, and setups binds each region's scheduler and RNGs.
// Existing links are rebound; links added later bind on creation. Reset
// tears sharding down again.
func (n *Network) EnableSharding(p Partition, setups []ShardSetup) {
	k := len(setups)
	if k == 0 {
		panic("simnet: EnableSharding with no shards")
	}
	n.sharded = true
	n.shardOf = append(n.shardOf[:0], p.ShardOf...)
	n.lookahead = p.Lookahead
	n.shards = make([]*shardCtx, k)
	for i, s := range setups {
		n.shards[i] = &shardCtx{sched: s.Sched, rng: s.NetRng, proto: s.ProtoRng}
	}
	n.outbox = make([][]handoff, k*k)
	n.handRecv = 0
	n.windows, n.windowNS, n.shardSteps = 0, 0, 0
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
// to the window end, the control events due run, and the handoffs either
// of them pushed are drained before the next window is sized. The drain
// also runs on entry, for whatever the caller sent between two calls.
func (n *Network) RunUntil(t sim.Time) {
	ctl := n.sched
	if !n.sharded {
		ctl.RunUntil(t)
		return
	}
	n.DrainHandoffs()
	for now := ctl.Now(); ; now = ctl.Now() {
		end := t
		// emin == MaxTime means no shard has pending work: only a control
		// event can create any, and the clip below handles it.
		if emin := n.peek(); n.lookahead < InfiniteLookahead && emin < sim.MaxTime {
			if w := emin + n.lookahead; w >= emin && w < end {
				end = w
			}
		}
		if ct, ok := ctl.PeekTime(); ok && ct < end {
			end = ct
		}
		end = max(end, now)
		n.shardSteps += uint64(n.stepTo(end))
		ctl.RunUntil(end)
		n.DrainHandoffs()
		n.windows++
		n.windowNS += end - now
		if end >= t {
			return
		}
	}
}

// peek records every shard's earliest pending event time and returns
// the minimum, sim.MaxTime when no shard has anything pending.
func (n *Network) peek() sim.Time {
	emin := sim.MaxTime
	for _, sc := range n.shards {
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
// due by then (the window's ShardSteps). A shard's schedule cannot change
// before the barrier except through its own events — the control events
// and the handoff drain, the only other writers, run after it — so a
// shard with nothing due at the last peek only has its clock moved.
func (n *Network) stepTo(end sim.Time) int {
	busy := 0
	for _, sc := range n.shards {
		if sc.next <= end {
			busy++
		}
		sc.sched.RunUntil(end)
	}
	return busy
}

// Sharded reports whether the network is in sharded execution mode.
func (n *Network) Sharded() bool { return n.sharded }

// bindLink points a link at the scheduler/RNG it executes on and
// classifies it as crossing or intra-region.
func (n *Network) bindLink(l *Link) {
	if !n.sharded {
		l.sched, l.rng, l.shard, l.crossTo = n.sched, n.rng, -1, -1
		return
	}
	ls, ld := n.shardOf[l.From], n.shardOf[l.To]
	sc := n.shards[ls]
	l.sched, l.rng, l.shard = sc.sched, sc.rng, ls
	if ld != ls {
		l.crossTo = ld
	} else {
		l.crossTo = -1
	}
}

func (n *Network) schedForNode(id NodeID) *sim.Scheduler {
	if !n.sharded {
		return n.sched
	}
	return n.shards[n.shardOf[id]].sched
}

// SchedFor returns the scheduler that executes events at the given node:
// the node's shard scheduler when sharded, the network scheduler
// otherwise. Protocol endpoints bind their timers through this so the
// same constructor works in both modes.
func (n *Network) SchedFor(id NodeID) *sim.Scheduler { return n.schedForNode(id) }

// RandFor returns the network-stream RNG for draws made by code executing
// at the given node (the network's own RNG when serial).
func (n *Network) RandFor(id NodeID) *sim.Rand {
	if !n.sharded {
		return n.rng
	}
	return n.shards[n.shardOf[id]].rng
}

// ProtoRandFor returns the protocol-stream RNG for the given node on a
// sharded network, and fallback otherwise. Serial runs keep drawing from
// whatever stream the protocol was built with, bit-for-bit.
func (n *Network) ProtoRandFor(id NodeID, fallback *sim.Rand) *sim.Rand {
	if !n.sharded {
		return fallback
	}
	return n.shards[n.shardOf[id]].proto
}

// pushHandoff queues one cross-region propagation with its arrival time
// on the (from-side, to-side) outbox.
func (n *Network) pushHandoff(l *Link, at sim.Time, pkt *Packet) {
	sc := n.shards[l.shard]
	sc.sent++
	box := &n.outbox[int(l.shard)*len(n.shards)+int(l.crossTo)]
	if len(*box) == 0 {
		sc.dirty = append(sc.dirty, l.crossTo)
	}
	*box = append(*box, handoff{at: at, l: l, pkt: pkt})
}

// DrainHandoffs moves every queued cross-region packet into its
// destination shard's scheduler and returns how many it moved. Must be
// called at a barrier (all shards quiesced).
//
// Within a destination, handoffs dispatch in (arrival time, source
// region, per-source push order), which depends on the topology and the
// seed alone. No sort is needed to get there:
// a scheduler breaks ties on one instant by schedule order, an outbox
// holds its source's pushes in push order, and the walk below reaches the
// outboxes of one destination in ascending source order — so scheduling
// them as found gives the scheduler exactly that key.
// (TestDrainOrderMatchesSortedReference pins it against the explicit
// sort this replaced.) Only outboxes written since the last drain are
// visited, and each is cleared as soon as it is scheduled so a parked
// backing array never pins packets or links.
func (n *Network) DrainHandoffs() int {
	k := len(n.shards)
	moved := 0
	for src, sc := range n.shards {
		for _, dst := range sc.dirty {
			box := &n.outbox[src*k+int(dst)]
			sched := n.shards[dst].sched
			for i := range *box {
				h := &(*box)[i]
				sched.AtArg(h.at, h.l.deliverFn, h.pkt)
			}
			moved += len(*box)
			clear(*box)
			*box = (*box)[:0]
		}
		sc.dirty = sc.dirty[:0]
	}
	n.handRecv += uint64(moved)
	return moved
}

// SetRegionHint records a partitioning hint: topology generators label
// the natural cut (e.g. transit-stub domains) and PartitionRegions seeds
// its region assignment from the labels. Hints are advisory — unhinted
// nodes inherit a region through their links.
func (n *Network) SetRegionHint(id NodeID, region int) {
	if n.hints == nil {
		n.hints = map[NodeID]int32{}
	}
	n.hints[id] = int32(region)
}

// ShardEventCounts returns per-shard processed-event counts (nil when
// not sharded). Safe to call once shards are quiesced.
func (n *Network) ShardEventCounts() []uint64 {
	if !n.sharded {
		return nil
	}
	out := make([]uint64, len(n.shards))
	for i, sc := range n.shards {
		out[i] = sc.sched.Processed()
	}
	return out
}

// ShardBatches returns the dispatch instants (Scheduler.Batches) summed
// over every region scheduler (0 when not sharded). The control
// scheduler's are not included; callers fold those separately.
func (n *Network) ShardBatches() uint64 {
	var out uint64
	for _, sc := range n.shards {
		out += sc.sched.Batches()
	}
	return out
}

// HandoffCounts returns the cross-region handoffs pushed by all shards
// and the handoffs drained into destination shards. After RunUntil
// returns the two are equal; engine.TestEngineStatsConservation and
// bench/ pin that conservation.
func (n *Network) HandoffCounts() (sent, recv uint64) {
	for _, sc := range n.shards {
		sent += sc.sent
	}
	return sent, n.handRecv
}

// WindowCounts returns RunUntil's window schedule since sharding was
// enabled: the windows run, their summed widths, and the summed count of
// shards each stepped (mean busy shards = steps/windows).
func (n *Network) WindowCounts() (windows uint64, width sim.Time, steps uint64) {
	return n.windows, n.windowNS, n.shardSteps
}

// ControlNow is the control scheduler's clock, the reference the
// cross-shard invariants compare shard clocks against.
func (n *Network) ControlNow() sim.Time { return n.sched.Now() }

// ShardClocks returns each shard scheduler's current time (nil when not
// sharded). At a barrier every entry equals the control clock; the
// cross-shard skew invariant pins that.
func (n *Network) ShardClocks() []sim.Time {
	if !n.sharded {
		return nil
	}
	out := make([]sim.Time, len(n.shards))
	for i, sc := range n.shards {
		out[i] = sc.sched.Now()
	}
	return out
}
