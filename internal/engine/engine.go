// Package engine executes a declarative scenario on a region-parallel
// simulation core. The topology is partitioned into regions — the
// transit-stub domain structure when the generator hinted it, a
// delay-threshold cut otherwise — and each region gets its own
// scheduler, RNG streams and packet cache (in front of the network's one
// free list). Regions advance together in
// conservative lookahead windows no wider than the minimum delay of any
// region-crossing link, so a packet propagating across a cut always
// arrives at or after the next synchronization barrier and no scheduler
// ever sees an event in its past. There are no null messages: shards
// simply step to the window end, cross-region sends park in per-pair
// outboxes, and a barrier drains them — sorted by (arrival time, source
// region, per-source sequence) — into the destination shards.
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
// and the seed — workers is purely a goroutine count. A sharded run is
// its own deterministic universe, distinct from the serial engine's
// (per-region RNG streams replace the two global ones), which is why
// -engineworkers 1 keeps the serial path rather than a one-shard engine.
package engine

import (
	"fmt"
	"sync"

	"repro/internal/invariant"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Stats describes one region-parallel run.
type Stats struct {
	Shards        int      // regions the topology was cut into
	Workers       int      // goroutines stepping them (<= Shards)
	Lookahead     sim.Time // conservative window bound; InfiniteLookahead if uncut
	Windows       uint64   // synchronization windows executed
	WindowNS      sim.Time // summed window widths (mean width = WindowNS/Windows)
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
// duration on the given number of worker goroutines, returning the
// populated scenario exactly as scenario.Run does. env must be freshly
// rewound for seed (the same contract scenario.Run has); the engine
// enables sharding on env.Net before building, and a later env reset
// tears it down again.
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
	for _, s := range setups {
		// Shards inherit the control scheduler's dispatch mode so a
		// batch-on and a batch-off sharded run stay byte-identical to
		// each other per mode toggle, never mixed.
		s.Sched.SetBatching(env.Sch.Batching())
	}
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
	var pool *workerPool
	if workers > 1 {
		pool = newWorkerPool(workers)
		defer pool.close()
	}

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
		if part.Lookahead < simnet.InfiniteLookahead {
			emin := sim.MaxTime
			for _, s := range scheds {
				if t, ok := s.PeekTime(); ok && t < emin {
					emin = t
				}
			}
			// emin == MaxTime means no shard has pending work: only a
			// control event can create any, and the clip below handles it.
			if emin < sim.MaxTime {
				if w := emin + part.Lookahead; w >= emin && w < end {
					end = w
				}
			}
		}
		if ct, ok := ctl.PeekTime(); ok && ct < end {
			end = ct
		}
		if end < now {
			end = now
		}
		if pool != nil {
			pool.runAll(scheds, end)
		} else {
			for _, s := range scheds {
				s.RunUntil(end)
			}
		}
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

// shardState adapts a running engine to the cross-shard invariant
// predicates: the network supplies shard clocks and handoff counters,
// the control scheduler the reference clock.
type shardState struct {
	*simnet.Network
	ctl *sim.Scheduler
}

func (s shardState) ControlNow() sim.Time { return s.ctl.Now() }

// workerPool steps shard schedulers on a fixed set of goroutines. Which
// worker steps which shard is irrelevant to the result — shards are
// independent within a window — so the pool needs no affinity, only a
// barrier per window. A panic on a worker (a protocol bug surfacing
// inside a shard) is captured and re-raised on the control goroutine
// after the window barrier, where seed sweeps already recover panics.
type workerPool struct {
	tasks chan poolTask

	mu  sync.Mutex
	rec any // first captured worker panic
}

type poolTask struct {
	sch *sim.Scheduler
	end sim.Time
	wg  *sync.WaitGroup
}

func newWorkerPool(n int) *workerPool {
	p := &workerPool{tasks: make(chan poolTask)}
	for i := 0; i < n; i++ {
		go p.worker()
	}
	return p
}

func (p *workerPool) worker() {
	for t := range p.tasks {
		p.runOne(t)
	}
}

func (p *workerPool) runOne(t poolTask) {
	defer t.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			p.mu.Lock()
			if p.rec == nil {
				p.rec = r
			}
			p.mu.Unlock()
		}
	}()
	t.sch.RunUntil(t.end)
}

// runAll steps every shard to end and waits for all of them.
func (p *workerPool) runAll(scheds []*sim.Scheduler, end sim.Time) {
	var wg sync.WaitGroup
	wg.Add(len(scheds))
	for _, s := range scheds {
		p.tasks <- poolTask{sch: s, end: end, wg: &wg}
	}
	wg.Wait()
	p.mu.Lock()
	r := p.rec
	p.rec = nil
	p.mu.Unlock()
	if r != nil {
		panic(r)
	}
}

func (p *workerPool) close() { close(p.tasks) }
