// Package experiments contains one scenario builder per figure of the
// TFMCC paper's evaluation. Each builder returns a Result whose series
// reproduce the corresponding plot; cmd/tfmccsim prints them as TSV. Every
// runner is a Registry entry: the golden ledger pins its output and
// counters, and tfmccsim -all -check runs every one.
//
// Runners execute against a RunCtx, which owns an arena of reusable
// simulation environments: rerunning the same scenario (another seed of a
// sweep, another benchmark iteration) rewinds the cached scheduler,
// network topology and pooled protocol state instead of rebuilding them.
// A RunCtx is single-goroutine; seed sweeps hand one RunCtx to each
// worker (see Sweep).
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/invariant"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/tfmcc"
)

// Result is the reproduced data behind one figure.
type Result struct {
	Figure string
	Title  string
	Series []*stats.Series
	Notes  []string
}

// Summary returns a short textual digest: per-series mean (and max).
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %s: %s\n", r.Figure, r.Title)
	for _, s := range r.Series {
		fmt.Fprintf(&b, "  %-28s mean=%10.3f max=%10.3f n=%d\n",
			s.Name, s.Mean(), s.Max(), len(s.Points))
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// TSV renders all series as a long-format table: series, x, y.
func (r *Result) TSV() string {
	var b strings.Builder
	b.WriteString("series\tx\ty\n")
	for _, s := range r.Series {
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%s\t%.4f\t%.4f\n", s.Name, p.T.Seconds(), p.V)
		}
	}
	return b.String()
}

// Runner produces a figure's Result. seed selects the deterministic
// random stream; the RunCtx supplies (and recycles) the simulation
// environments.
type Runner func(c *RunCtx, seed int64) *Result

// mustScenario unwraps a RunCtx build or run result for the hand-wired
// figure runners: their specs are compile-time constants, so a build
// error is a programmer bug, not an input problem.
func mustScenario(sc *scenario.Scenario, err error) *scenario.Scenario {
	if err != nil {
		panic(err)
	}
	return sc
}

// Run executes the runner for a figure id on a fresh context.
func Run(id string, seed int64) (*Result, error) {
	return RunWith(NewRunCtx(), id, seed)
}

// RunWith executes the runner for a figure id on c, reusing whatever
// simulation state c has cached from earlier runs of the same scenario.
func RunWith(c *RunCtx, id string, seed int64) (*Result, error) {
	e, ok := Lookup(id)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown figure %q (have %v)", id, Figures())
	}
	defer c.begin("figure" + id)()
	return e.Run(c, seed), nil
}

// --- run context and environment arena ---------------------------------

// RunCtx carries the per-worker state behind figure runs: an arena of
// reusable simulation environments keyed by scenario, plus the engine
// counters accumulated across runs. It must be used from one goroutine at
// a time; parallel sweeps give each worker its own RunCtx.
type RunCtx struct {
	key           string
	envs          map[string][]*env
	next          int
	check         bool
	engineWorkers int
	stats         EngineStats
	violations    []invariant.Violation
}

// NewRunCtx returns a context with an empty environment arena.
func NewRunCtx() *RunCtx { return &RunCtx{envs: map[string][]*env{}} }

// NewRunCtxFor returns a context configured from the run options — the
// invariant checker armed when cfg.Check, the execution engine selected
// by cfg.EngineWorkers. Sweeps, judged runs and single command-line runs
// all build their contexts here.
func NewRunCtxFor(cfg sweep.Config) *RunCtx {
	c := NewRunCtx()
	if cfg.Check {
		c.EnableInvariants()
	}
	c.SetEngineWorkers(cfg.EngineWorkers)
	return c
}

// EnableInvariants arms the run-level invariant checker on every
// environment this context hands out: engine-level predicates (packet
// pool conservation, scheduler monotonicity) on all runs, plus
// protocol-level ones (sender rate bound, CLR liveness) on scenario-spec
// runs. Violations accumulate across runs; see Violations. The checker's
// sampling ticks are subtracted from the EngineStats event count, so
// the event and packet counters are unchanged by enabling it.
func (c *RunCtx) EnableInvariants() { c.check = true }

// Violations returns the invariant violations observed across every run
// executed with this context since the last ResetStats.
func (c *RunCtx) Violations() []invariant.Violation { return c.violations }

// SetEngineWorkers selects the execution engine for every scenario the
// context builds: n >= 2 runs them on the region engine
// (internal/engine), 0 or 1 on the serial engine. Every n >= 2 runs the
// same code — the region structure depends only on topology and seed —
// but sharded output is a different deterministic universe than the
// serial engine's (per-region RNG streams), so 1 means serial,
// byte-identical to the default.
func (c *RunCtx) SetEngineWorkers(n int) { c.engineWorkers = n }

// begin starts a run of the named scenario and returns the harvest
// function to defer: it folds the run's engine counters into the context
// totals and restores the enclosing scenario, so a runner invoked from
// within another run (e.g. a begin-calling helper registered as a
// figure) neither corrupts the outer arena cursor nor double-harvests.
func (c *RunCtx) begin(key string) func() {
	prevKey, prevNext := c.key, c.next
	c.key = key
	c.next = 0
	return func() {
		c.endRun()
		c.key, c.next = prevKey, prevNext
	}
}

func (c *RunCtx) endRun() {
	for _, e := range c.envs[c.key][:c.next] {
		events := e.sch.Processed()
		if e.check != nil {
			// The checker's sampling ticks are bookkeeping, not simulation:
			// subtracting them keeps the deterministic event count identical
			// with and without -check.
			events -= e.check.Ticks()
			c.violations = append(c.violations, e.check.Violations()...)
		}
		// Batch occupancy: one batch may dispatch many same-timestamp
		// events. The count differs with and without -check (checker ticks
		// add events), so no determinism check compares it.
		c.stats.Batches += e.sch.Batches()
		if e.net.Sharded() {
			// Region-engine run: the environment scheduler only carried
			// control flow. Total events = control + every region scheduler,
			// an identity TestEngineStatsConservation and bench/ re-check.
			c.stats.ControlEvents += events
			se := e.net.ShardEventCounts()
			if len(se) > c.stats.EngineShards {
				c.stats.EngineShards = len(se)
			}
			for i, v := range se {
				c.stats.ShardEvents[i] += v
				events += v
			}
			sent, recv := e.net.HandoffCounts()
			c.stats.HandoffsSent += sent
			c.stats.HandoffsRecv += recv
			c.stats.Batches += e.net.ShardBatches()
			// The window schedule is a wall-structure diagnostic (-check
			// ticks clip windows), not part of any determinism check.
			windows, width, steps := e.net.WindowCounts()
			c.stats.Windows += windows
			c.stats.WindowNS += width
			c.stats.ShardSteps += steps
		}
		c.stats.Events += events
		for _, l := range e.net.Links() {
			c.stats.PacketsSent += l.Stats.Sent
			c.stats.PacketsDelivered += l.Stats.Deliver
		}
		f := e.net.Faults()
		c.stats.Unreachable += f.Unreachable
		c.stats.Corrupted += f.Corrupted
		c.stats.Duplicated += f.Duplicated
	}
}

// Stats returns the engine counters accumulated over every run executed
// with this context since the last ResetStats.
func (c *RunCtx) Stats() EngineStats { return c.stats }

// harvestRecovery folds a sender's CLR-loss recovery counters into the
// context totals. Called by the scenario-spec runner right after the run,
// before any arena rewind can reset the sender.
func (c *RunCtx) harvestRecovery(s *tfmcc.Sender) {
	c.stats.CLRLosses += s.CLRLosses
	c.stats.Reelections += s.Reelections
	c.stats.RateRecoveries += s.RateRecoveries
	if s.ReelectTime > c.stats.ReelectNS {
		c.stats.ReelectNS = s.ReelectTime
	}
	if s.RateRecovery > c.stats.RateRecoverNS {
		c.stats.RateRecoverNS = s.RateRecovery
	}
}

// ResetStats zeroes the accumulated engine counters and violations.
func (c *RunCtx) ResetStats() {
	c.stats = EngineStats{}
	c.violations = nil
}

// env bundles the per-scenario simulation plumbing.
type env struct {
	sch    *sim.Scheduler
	net    *simnet.Network
	rng    *sim.Rand
	netRng *sim.Rand
	check  *invariant.Checker
}

// newEnv returns the next simulation environment of the current run:
// either the environment built at the same point of a previous run of
// this scenario — rewound to a pristine state for the new seed — or a
// freshly built one that joins the arena.
func (c *RunCtx) newEnv(seed int64) *env {
	list := c.envs[c.key]
	if c.next < len(list) {
		e := list[c.next]
		c.next++
		e.rewind(seed)
		c.armChecker(e)
		return e
	}
	sch := sim.NewScheduler()
	netRng := sim.NewRand(seed)
	e := &env{sch: sch, net: simnet.New(sch, netRng), rng: sim.NewRand(seed + 7), netRng: netRng}
	e.net.EnableReuse()
	c.envs[c.key] = append(list, e)
	c.next++
	c.armChecker(e)
	return e
}

// armChecker resets and starts the environment's invariant checker for a
// new run when checking is enabled, registering the engine-level
// predicates. Protocol-level predicates join in scenario.Build when the
// run is scenario-spec driven.
func (c *RunCtx) armChecker(e *env) {
	if !c.check {
		return
	}
	if e.check == nil {
		e.check = invariant.New(e.sch, 0)
	} else {
		e.check.Reset()
	}
	net := e.net
	e.check.Register("pkt-conservation", func() string {
		if live := net.LivePackets(); live < 0 {
			return fmt.Sprintf("packet pool conservation broken: %d live packets (double release)", live)
		}
		return ""
	})
	// A train copy holds a packet reference, so parked copies imply live
	// packets. The converse bound (held <= live) does NOT hold: a multicast
	// packet fans one live allocation out to many train copies.
	e.check.Register("train-conservation", func() string {
		if held, live := net.TrainHeld(), net.LivePackets(); held > 0 && live == 0 {
			return fmt.Sprintf("fan-out train conservation broken: %d copies on trains with no live packets", held)
		}
		return ""
	})
	e.check.Start()
}

// scenarioEnv returns the next pooled simulation environment of the
// current run, wrapped for the scenario builder: rerunning the same
// figure rewinds the cached topology and pooled protocol state.
func (c *RunCtx) scenarioEnv(seed int64) scenario.Env {
	e := c.newEnv(seed)
	return scenario.Env{Sch: e.sch, Net: e.net, Rng: e.rng, Check: e.check}
}

// rewind restores the environment to the state newEnv would have built
// fresh for seed. When the network cannot be rewound (a construction
// replay cannot follow), it is rebuilt from scratch — always correct,
// just without the reuse speedup.
func (e *env) rewind(seed int64) {
	e.sch.Reset()
	if !e.net.Reset() {
		e.netRng = sim.NewRand(seed)
		e.net = simnet.New(e.sch, e.netRng)
		e.net.EnableReuse()
	}
	e.netRng.Reseed(seed)
	e.rng.Reseed(seed + 7)
}

const (
	mbit = 125000.0 // bytes/s per Mbit/s
	kbit = 125.0    // bytes/s per Kbit/s
)

// SessionThroughput is a benchmark helper: runs a session with n
// receivers over a 1 Mbit/s bottleneck for the given number of simulated
// seconds and returns the sender's final rate (bytes/s). Repeated calls
// on the same context rewind and reuse the cached scenario instead of
// rebuilding it.
func (c *RunCtx) SessionThroughput(n int, seconds int) float64 {
	defer c.begin("session")()
	e := c.newEnv(1)
	r1 := e.net.AddNode("r1")
	r2 := e.net.AddNode("r2")
	e.net.AddDuplex(r1, r2, 1*mbit, 20*sim.Millisecond, 30)
	snd := e.net.AddNode("src")
	e.net.AddDuplex(snd, r1, 0, sim.Millisecond, 0)
	sess := tfmcc.NewSession(e.net, snd, 1, 100, tfmcc.DefaultConfig(), e.rng)
	for i := 0; i < n; i++ {
		leaf := e.net.AddNode("leaf")
		e.net.AddDuplex(r2, leaf, 0, sim.Time(2+i%40)*sim.Millisecond, 0)
		sess.AddReceiver(leaf)
	}
	sess.Start()
	e.sch.RunUntil(sim.Time(seconds) * sim.Second)
	return sess.Sender.Rate()
}

// SessionThroughput runs the session benchmark scenario on a fresh
// context.
func SessionThroughput(n int, seconds int) float64 {
	return NewRunCtx().SessionThroughput(n, seconds)
}

// --- seed sweeps -------------------------------------------------------

// SweepResult is a figure reproduced as the merged behaviour of many
// independent seeds.
type SweepResult struct {
	Figure     string
	Title      string
	Bands      []*stats.Band
	Notes      []string // notes of the first seed's run, for orientation
	Seeds      int
	Workers    int
	CI         float64
	Engine     EngineStats // accumulated across all seeds and workers
	Failures   []string    // seeds that panicked (excluded from Bands), in seed order
	Violations []string    // invariant violations, when checking was enabled
}

// Summary returns a per-band digest of the sweep.
func (r *SweepResult) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %s: %s (%d seeds, %d workers, %.0f%% CI)\n",
		r.Figure, r.Title, r.Seeds, r.Workers, r.CI*100)
	for _, bd := range r.Bands {
		var mean stats.Welford
		for _, p := range bd.Points {
			mean.Add(p.Mean)
		}
		fmt.Fprintf(&b, "  %-28s mean=%10.3f points=%d\n", bd.Name, mean.Mean(), len(bd.Points))
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  note (first seed): %s\n", n)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "  FAILED: %s\n", f)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  INVARIANT: %s\n", v)
	}
	return b.String()
}

// TSV renders the merged bands as a long-format table with band columns.
func (r *SweepResult) TSV() string {
	var b strings.Builder
	b.WriteString("series\tx\tmean\tci_lo\tci_hi\tmin\tmax\tn\n")
	for _, bd := range r.Bands {
		for _, p := range bd.Points {
			fmt.Fprintf(&b, "%s\t%.4f\t%.4f\t%.4f\t%.4f\t%.4f\t%.4f\t%d\n",
				bd.Name, p.T.Seconds(), p.Mean, p.Lo, p.Hi, p.Min, p.Max, p.N)
		}
	}
	return b.String()
}

// Sweep runs a registered figure across cfg.Seeds independent seeds on
// cfg.Workers workers and merges the per-seed series into bands. Each
// worker owns one RunCtx, so consecutive seeds on a worker reuse the
// scenario's cached topology and pooled protocol state; the merged output
// is bit-for-bit independent of the worker count.
func Sweep(id string, cfg sweep.Config) (*SweepResult, error) {
	entry, ok := Lookup(id)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown figure %q (have %v)", id, Figures())
	}
	cfg = cfg.Normalized()
	ctxs := make([]*RunCtx, cfg.Workers)
	for i := range ctxs {
		ctxs[i] = NewRunCtxFor(cfg)
	}
	notes := make([][]string, cfg.Seeds)
	merged := sweep.Run(cfg, func(worker int, seed int64) []*stats.Series {
		res, err := RunWith(ctxs[worker], id, seed)
		if err != nil {
			panic(err) // unreachable: id was validated above
		}
		notes[cfg.Index(seed)] = res.Notes
		return res.Series
	})
	out := &SweepResult{
		Figure:  id,
		Title:   entry.Title,
		Bands:   merged.Bands,
		Seeds:   merged.Seeds,
		Workers: merged.Workers,
		CI:      merged.CI,
	}
	if len(notes) > 0 {
		out.Notes = notes[0]
	}
	for _, e := range merged.Errors {
		out.Failures = append(out.Failures, e.Error())
	}
	for _, c := range ctxs {
		out.Engine.Add(c.Stats())
		for _, v := range c.Violations() {
			out.Violations = append(out.Violations, v.String())
		}
	}
	return out, nil
}
