// Package engine executes a declarative scenario on a region-parallel
// simulation core. The topology is partitioned into regions — the
// transit-stub domain structure when the generator hinted it, a
// delay-threshold cut otherwise — and each region gets its own
// scheduler, RNG streams and packet cache (in front of the network's one
// free list). Regions advance together in conservative lookahead windows
// no wider than the minimum delay of any region-crossing link, so a
// packet propagating across a cut always arrives at or after the next
// synchronization barrier and no scheduler ever sees an event in its
// past. There are no null messages: shards with an event due step to the
// window end (the others just have their clock moved there), cross-region
// sends park in per-pair outboxes, and a barrier drains them into the
// destination shards, where they dispatch in (arrival time, source
// region, per-source push order).
//
// Control flow that spans regions (the scenario event script, aggregate
// and sample tickers, invariant checker ticks, receiver joins, flow
// start/stop) stays on the control scheduler, which only runs at
// barriers while every shard is quiesced; windows are additionally
// clipped to the next pending control event so those callbacks observe
// all shards at exactly their own clock.
//
// Output is deterministic: for a fixed seed the result is byte-identical
// across runs and across worker counts, because the region structure,
// the window schedule and the handoff order depend only on the topology
// and the seed — workers is purely the number of goroutines that step
// shards, the one running Run included (see shardSet and workerPool for
// what a window costs). A sharded run is its own deterministic universe,
// distinct from the serial engine's (per-region RNG streams replace the
// two global ones), which is why -engineworkers 1 keeps the serial path
// rather than a one-shard engine.
package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/invariant"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Stats describes one region-parallel run.
type Stats struct {
	Shards        int      // regions the topology was cut into
	Workers       int      // goroutines stepping them, the caller's included (<= Shards)
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
// the given seed. Streams depend only on (seed, region), never on the
// worker count.
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
// duration with the given number of workers — the calling goroutine and
// workers-1 helpers — returning the populated scenario exactly as
// scenario.Run does. env must be freshly rewound for seed (the same
// contract scenario.Run has); the engine enables sharding on env.Net
// before building, and a later env reset tears it down again.
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
	// End construction replay and compile routes before any shard steps
	// concurrently: both are control-thread-only operations.
	env.Net.BarrierSync()

	if workers > k {
		workers = k
	}
	if workers < 1 {
		workers = 1
	}
	scheds := make([]*sim.Scheduler, k)
	for i, s := range setups {
		scheds[i] = s.Sched
	}
	shards := newShardSet(scheds, workers)
	defer shards.close()

	st := Stats{Shards: k, Workers: workers, Lookahead: part.Lookahead}
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
		// lookahead quantum. Emin is read at the barrier from deterministic
		// per-shard schedules, so the window schedule stays invariant in the
		// worker count.
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
// shards with an event due by the window end. The others just have their
// clock moved: a shard's schedule cannot change before the barrier
// except through its own events — the handoff drain and control events,
// the only other writers, run after it — so a shard with nothing due has
// nothing to run. A window with at most one busy shard, and every window
// when workers == 1, is stepped on the calling goroutine with no
// synchronization at all; two or more busy shards go to the worker pool.
type shardSet struct {
	scheds []*sim.Scheduler
	next   []sim.Time       // per shard: earliest pending event at the last peek, MaxTime if none
	busy   []*sim.Scheduler // scratch: the shards stepTo found busy
	pool   *workerPool      // nil when workers == 1
}

func newShardSet(scheds []*sim.Scheduler, workers int) *shardSet {
	s := &shardSet{
		scheds: scheds,
		next:   make([]sim.Time, len(scheds)),
		busy:   make([]*sim.Scheduler, 0, len(scheds)),
	}
	if workers > 1 {
		s.pool = newWorkerPool(workers)
	}
	return s
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
// on a shard since the last peek. A panic inside a shard's event
// surfaces here, on the caller's goroutine, whoever stepped the shard.
func (s *shardSet) stepTo(end sim.Time) int {
	s.busy = s.busy[:0]
	for i, sch := range s.scheds {
		if s.next[i] <= end {
			s.busy = append(s.busy, sch)
		} else {
			sch.AdvanceTo(end)
		}
	}
	if s.pool != nil && len(s.busy) > 1 {
		s.pool.run(s.busy, end)
	} else {
		for _, sch := range s.busy {
			sch.RunUntil(end)
		}
	}
	return len(s.busy)
}

func (s *shardSet) close() {
	if s.pool != nil {
		s.pool.close()
	}
}

// shardState adapts a running engine to the cross-shard invariant
// predicates: the network supplies shard clocks and handoff counters,
// the control scheduler the reference clock.
type shardState struct {
	*simnet.Network
	ctl *sim.Scheduler
}

func (s shardState) ControlNow() sim.Time { return s.ctl.Now() }

// workerPool lets helper goroutines share the stepping of one window's
// busy shards with the coordinator — the goroutine running Run, which is
// itself one of the workers. Which goroutine steps which shard is
// irrelevant to the result (shards are independent within a window), so
// there is no affinity and no per-shard hand-off: the coordinator writes
// the window into the pool, publishes it with one store to the claim
// word, rouses at most one parked helper per shard it cannot step itself,
// and then everybody takes shards off the claim word until none are left.
// A window therefore costs at most one wake-up at workers == 2, never a
// channel operation per shard, and allocates nothing.
//
// The claim word counts the shards of the current window nobody has taken
// yet; a stepper owns busy[v-1] once its compare-and-swap v -> v-1
// succeeds. A stepper reads the descriptor (busy, end) only after a
// successful claim, and the window it then belongs to cannot complete —
// so the descriptor cannot be rewritten — before that stepper has counted
// its shard done. That is what makes a helper that wakes late harmless:
// it finds the word at zero and parks again, or claims a shard of
// whatever window is current by then, which is as good a claim as any.
//
// pending counts the window's unfinished shards plus one for the
// coordinator, which gives its unit back when it finds nothing left to
// claim. Whoever brings the count to zero ends the window: if that is the
// coordinator it just carries on, otherwise it has parked on done and the
// last helper out sends. Nobody spins, so the barrier completes at
// GOMAXPROCS=1 too.
//
// Rousing a parked goroutine costs more than stepping a shard through a
// window of a few events, and a helper roused for such a window arrives
// after the coordinator has stepped everything itself. So the coordinator
// checks what each round of wake-ups bought: when no helper got hold of a
// single shard, it leaves the helpers parked for twice as many parallel
// windows as the time before (1, 2, 4 … maxWakeBackoff) before it tries
// again; when one did, it halves that interval. Helpers that get work more
// often than not are thus woken every window, and helpers that never do
// cost one wake-up in maxWakeBackoff windows. Like everything else about
// who steps what, this never reaches the output.
//
// A panic on any stepper (a protocol bug surfacing inside a shard) is
// captured — the other steppers still finish the window — and re-raised
// on the control goroutine after the barrier, where seed sweeps already
// recover panics.
type workerPool struct {
	busy []*sim.Scheduler // current window: shards to step…
	end  sim.Time         // …and the time to step them to

	claim   atomic.Int32
	pending atomic.Int32

	wake   chan struct{}  // one token per helper to rouse, room for one each; closed by close
	done   chan struct{}  // last helper out -> parked coordinator
	exited sync.WaitGroup // helpers that have not returned yet

	backoff int // parallel windows to sit out after the last round of wake-ups…
	skip    int // …and how many of those are still to go

	mu  sync.Mutex
	rec any // first captured stepper panic
}

// maxWakeBackoff bounds how long helpers that keep arriving too late are
// left alone: one round of wake-ups in this many parallel windows is what
// a run whose windows are too small to share pays for finding out when
// that changes.
const maxWakeBackoff = 1024

// newWorkerPool starts workers-1 helpers; the coordinator is the
// remaining worker.
func newWorkerPool(workers int) *workerPool {
	p := &workerPool{
		wake: make(chan struct{}, workers-1),
		done: make(chan struct{}, 1),
	}
	p.exited.Add(workers - 1)
	for i := 1; i < workers; i++ {
		go func() {
			defer p.exited.Done()
			for range p.wake {
				p.steal()
			}
		}()
	}
	return p
}

// run steps every scheduler in busy to end on the coordinator and the
// helpers, and returns once all of them are there. It must only be
// called from the coordinator, which may reuse busy's storage afterwards.
func (p *workerPool) run(busy []*sim.Scheduler, end sim.Time) {
	p.busy, p.end = busy, end
	p.pending.Store(int32(len(busy)) + 1)
	p.claim.Store(int32(len(busy)))
	woke := false
	if p.skip > 0 {
		p.skip--
	} else {
		woke = true
		for i := min(len(busy), cap(p.wake)+1) - 1; i > 0; i-- {
			select {
			case p.wake <- struct{}{}:
			default: // that helper has not picked its last token up yet
			}
		}
	}
	mine := p.steal()
	if p.pending.Add(-1) != 0 {
		<-p.done
	}
	if woke {
		if mine < len(busy) {
			p.backoff /= 2
		} else {
			p.backoff = min(max(1, 2*p.backoff), maxWakeBackoff)
		}
		p.skip = p.backoff
	}
	// Every stepper's write to rec happens before its pending decrement,
	// which happens before this read.
	if r := p.rec; r != nil {
		p.rec = nil
		panic(r)
	}
}

// steal claims and steps shards of the current window until none is
// left unclaimed, and returns how many it stepped.
func (p *workerPool) steal() int {
	n := 0
	for {
		v := p.claim.Load()
		if v == 0 {
			return n
		}
		if p.claim.CompareAndSwap(v, v-1) {
			p.step(p.busy[v-1])
			n++
		}
	}
}

// step runs one claimed shard to the window end and counts it done.
func (p *workerPool) step(s *sim.Scheduler) {
	defer func() {
		if r := recover(); r != nil {
			p.mu.Lock()
			if p.rec == nil {
				p.rec = r
			}
			p.mu.Unlock()
		}
		if p.pending.Add(-1) == 0 {
			p.done <- struct{}{}
		}
	}()
	s.RunUntil(p.end)
}

// close stops the helpers and returns once they have exited. It must
// not be called while a window is running.
func (p *workerPool) close() {
	close(p.wake)
	p.exited.Wait()
}
