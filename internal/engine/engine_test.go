package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/invariant"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// shortRun executes a registry scenario with the duration clipped for
// test budgets and returns the full result TSV — the byte stream the
// determinism contract is defined over.
func shortRun(t *testing.T, c *experiments.RunCtx, id string, seed int64, dur sim.Time) string {
	t.Helper()
	ov := scenario.None()
	ov.Duration = dur
	res, err := experiments.RunOverridden(c, id, ov, seed)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return res.TSV()
}

func shardedCtx(workers int) *experiments.RunCtx {
	c := experiments.NewRunCtx()
	c.SetEngineWorkers(workers)
	return c
}

// Sharded runs are deterministic: the same seed gives byte-identical
// output on repeated runs of one context (arena rewind) and on a fresh
// context (cold build).
func TestShardedDeterminismAndRewind(t *testing.T) {
	for _, id := range []string{"wireless", "tcpburst", "flashcrowd"} {
		c := shardedCtx(2)
		a := shortRun(t, c, id, 1, 8*sim.Second)
		b := shortRun(t, c, id, 1, 8*sim.Second)
		if a != b {
			t.Errorf("%s: sharded rewind run diverged from first run", id)
		}
		fresh := shortRun(t, shardedCtx(2), id, 1, 8*sim.Second)
		if a != fresh {
			t.Errorf("%s: sharded fresh-context run diverged from rewound run", id)
		}
	}
}

// freshEnv returns a new environment for seed, the invariant checker
// armed when check is set.
func freshEnv(seed int64, check bool) scenario.Env {
	sch := sim.NewScheduler()
	env := scenario.Env{Sch: sch, Net: simnet.New(sch, sim.NewRand(seed)), Rng: sim.NewRand(seed + 7)}
	if check {
		env.Check = invariant.New(sch, 0)
		env.Check.Start()
	}
	return env
}

// presetSpec returns a registry preset's spec with its duration set.
func presetSpec(t *testing.T, id string, dur sim.Time) *scenario.Spec {
	t.Helper()
	e, ok := experiments.Lookup(id)
	if !ok || e.Spec == nil {
		t.Fatalf("%s: no such preset", id)
	}
	spec := e.Spec()
	spec.Duration = dur
	return spec
}

// engineRun drives engine.Run itself on a fresh environment, the way
// RunCtx does for -engineworkers >= 2, with the invariant checker armed
// when check is set.
func engineRun(t *testing.T, id string, seed int64, dur sim.Time, check bool) (string, engine.Stats, []invariant.Violation) {
	t.Helper()
	env := freshEnv(seed, check)
	sc, st, err := engine.Run(env, presetSpec(t, id, dur), seed, 2)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var viol []invariant.Violation
	if check {
		viol = env.Check.Violations()
	}
	return (&experiments.Result{Figure: id, Series: sc.Series()}).TSV(), st, viol
}

// A sharded run skips idle shards — some window steps fewer than all of
// them — and keeps every invariant with the checker armed, so "no shard
// clock lags control" also holds for shards a window only moved. The
// RunCtx path the CLIs take at -engineworkers 2 is the same universe as
// engine.Run.
func TestWorkerCountInvariance(t *testing.T) {
	for _, id := range []string{"wireless", "partition", "chainloss", "deeptree"} {
		base, st, viol := engineRun(t, id, 3, 8*sim.Second, true)
		for _, v := range viol {
			t.Errorf("%s: invariant violated: %s", id, v)
		}
		if st.ShardSteps == 0 || st.ShardSteps >= uint64(st.Shards)*st.Windows {
			t.Errorf("%s: %d shard steps over %d windows of %d shards: no window skipped an idle shard",
				id, st.ShardSteps, st.Windows, st.Shards)
		}
		if got := shortRun(t, shardedCtx(2), id, 3, 8*sim.Second); got != base {
			t.Errorf("%s: RunCtx at -engineworkers 2 diverged from engine.Run", id)
		}
	}
}

// A panic inside a shard of a real run — here a handler bound over a
// receiver's, called while its region steps — comes out of RunUntil on
// the calling goroutine, so a sweep over seeds records it as that seed's
// error and carries on.
func TestShardPanicBecomesSeedError(t *testing.T) {
	spec := presetSpec(t, "wireless", 8*sim.Second)
	_, errs := sweep.RunRaw(sweep.Config{Seeds: 2, Workers: 1, Base: 1}, func(_ int, seed int64) []*stats.Series {
		sc, err := engine.Build(freshEnv(seed, false), spec, seed)
		if err != nil {
			panic(err)
		}
		if seed == 2 {
			at := simnet.Addr{Node: sc.SiteLeaf[0], Port: sc.Sess.Port}
			sc.Env.Net.Bind(at, simnet.HandlerFunc(func(*simnet.Packet) { panic("receiver handler blew up") }))
		}
		sc.Start()
		sc.RunUntil(spec.Duration)
		return nil
	})
	if len(errs) != 1 || errs[0].Seed != 2 || !strings.Contains(errs[0].Msg, "handler blew up") {
		t.Errorf("sweep recorded %v, want the handler's panic against seed 2", errs)
	}
}

// A caller may act between two RunUntil calls — here a receiver leaves,
// sending its Leave report from outside any window. The next call drains
// whatever that pushed before it steps a shard: nothing panics, every
// handoff is drained and the checker stays clean.
func TestLeaveBetweenRunUntilCalls(t *testing.T) {
	env := freshEnv(1, true)
	sc, err := engine.Build(env, presetSpec(t, "wireless", 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	sc.Start()
	sc.RunUntil(5 * sim.Second)
	sc.Recvs[0].Leave()
	sc.RunUntil(10 * sim.Second)
	if sent, recv := env.Net.HandoffCounts(); sent == 0 || sent != recv {
		t.Errorf("handoffs sent %d, drained %d, want equal and non-zero", sent, recv)
	}
	for _, v := range env.Check.Violations() {
		t.Errorf("invariant violated: %s", v)
	}
}

// -engineworkers 1 (and 0) never engages the sharded engine: output is
// byte-identical to the plain serial path for every registry scenario.
func TestSerialWorkerByteIdentity(t *testing.T) {
	for _, id := range experiments.ScenarioIDs() {
		serial := shortRun(t, experiments.NewRunCtx(), id, 1, 5*sim.Second)
		for _, w := range []int{0, 1} {
			if got := shortRun(t, shardedCtx(w), id, 1, 5*sim.Second); got != serial {
				t.Errorf("%s: -engineworkers %d diverged from serial engine", id, w)
			}
		}
	}
}

// Sharded runs keep every invariant: the engine predicates (packet
// conservation), the protocol predicates (sender rate bound, CLR
// liveness) and the cross-shard ones (clock skew, handoff conservation)
// all hold under fault-injecting scenarios.
func TestShardedInvariantsClean(t *testing.T) {
	for _, id := range []string{"wireless", "partition", "clrfail", "corruptfb"} {
		c := shardedCtx(2)
		c.EnableInvariants()
		shortRun(t, c, id, 1, 8*sim.Second)
		for _, v := range c.Violations() {
			t.Errorf("%s: invariant violated: %s", id, v)
		}
	}
}

// The per-shard accounting satisfies its conservation identities: every
// handoff pushed is drained, the total event count decomposes into
// control plus per-region events, and the window schedule is consistent
// with both.
func TestEngineStatsConservation(t *testing.T) {
	for _, tc := range []struct {
		id  string
		dur sim.Time
	}{
		{"wireless", 8 * sim.Second},
		{"flashcrowd", 40 * sim.Second}, // through the join burst
		{"partition", 100 * sim.Second}, // through the partition and its heal
	} {
		c := shardedCtx(2)
		shortRun(t, c, tc.id, 1, tc.dur)
		st := c.Stats()
		if st.EngineShards < 2 {
			t.Fatalf("%s: expected a multi-region cut, got %d shards", tc.id, st.EngineShards)
		}
		if st.HandoffsSent != st.HandoffsRecv {
			t.Errorf("%s: handoff conservation broken: sent %d, drained %d", tc.id, st.HandoffsSent, st.HandoffsRecv)
		}
		if st.HandoffsSent == 0 {
			t.Errorf("%s: expected cross-region traffic, saw none", tc.id)
		}
		var shardEvents uint64
		for _, v := range st.ShardEvents {
			shardEvents += v
		}
		if st.Events != st.ControlEvents+shardEvents {
			t.Errorf("%s: event decomposition broken: total %d, control+shards %d", tc.id, st.Events, st.ControlEvents+shardEvents)
		}
		// Window accounting: a batch is a run of events at one instant, every
		// sharded run executes a window, a window steps between none and all
		// of the shards, and a stepped shard runs at least one event.
		if st.Batches > st.Events {
			t.Errorf("%s: %d batches for %d events", tc.id, st.Batches, st.Events)
		}
		if st.Windows == 0 {
			t.Errorf("%s: no windows recorded", tc.id)
		}
		if limit := min(uint64(st.EngineShards)*st.Windows, shardEvents); st.ShardSteps == 0 || st.ShardSteps > limit {
			t.Errorf("%s: %d shard steps, want in (0, %d] over %d windows of %d shards running %d shard events",
				tc.id, st.ShardSteps, limit, st.Windows, st.EngineShards, shardEvents)
		}
	}
}

// A control event that sends at a barrier — here the scheduled Leave
// reports of massleave's 60–70 s burst — parks its handoff after the
// shards have stepped. The window loop drains it before it sizes the next
// window, so no destination shard steps past the arrival: the run neither
// panics nor breaks an invariant, and every handoff pushed is drained.
func TestBarrierSendIsDrained(t *testing.T) {
	c := shardedCtx(2)
	c.EnableInvariants()
	shortRun(t, c, "massleave", 1, 75*sim.Second)
	for _, v := range c.Violations() {
		t.Errorf("invariant violated: %s", v)
	}
	if st := c.Stats(); st.HandoffsSent != st.HandoffsRecv {
		t.Errorf("handoffs sent %d, drained %d", st.HandoffsSent, st.HandoffsRecv)
	}
}

// Partition on a registry spec: the transit-stub scenario splits into
// multiple regions with a positive lookahead, and the assignment is
// deterministic.
func TestPartitionOnPresets(t *testing.T) {
	e, ok := experiments.Lookup("wireless")
	if !ok || e.Spec == nil {
		t.Fatal("wireless preset missing")
	}
	p, err := engine.Partition(e.Spec(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards < 2 || p.Shards > simnet.MaxAutoShards {
		t.Fatalf("expected 2..%d regions, got %d", simnet.MaxAutoShards, p.Shards)
	}
	if p.Lookahead <= 0 || p.Lookahead == simnet.InfiniteLookahead {
		t.Fatalf("expected a finite positive lookahead, got %v", p.Lookahead)
	}
	q, err := engine.Partition(e.Spec(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(p) != fmt.Sprint(q) {
		t.Error("partition is not deterministic across calls")
	}
}

// Sharded execution composes with seed sweeps: the merged bands stay
// independent of the sweep worker count.
func TestSweepWithEngineWorkers(t *testing.T) {
	job, err := experiments.FigureJob("flashcrowd")
	if err != nil {
		t.Fatal(err)
	}
	run := func(sweepWorkers int) string {
		return experiments.Sweep(job, sweep.Config{Seeds: 3, Workers: sweepWorkers, EngineWorkers: 2}).TSV()
	}
	if a, b := run(1), run(2); a != b {
		t.Error("sweep output depends on sweep worker count under sharded engine")
	}
}
