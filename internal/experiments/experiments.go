// Package experiments reproduces the figures of the TFMCC paper's
// evaluation. Each figure is a registry entry whose Result holds the
// series of the corresponding plot; cmd/tfmccsim prints them as TSV. An
// engine figure is a list of declarative specs — one, except for figures
// 13 and 14 — plus a report over what survives their runs; every spec
// run takes one path (RunCtx.run). Only the analytic figures have
// runners.
// The golden ledger pins every entry's output and counters, and
// tfmccsim -all -check runs every one.
//
// Runs execute against a RunCtx, which owns one reusable simulation
// environment: every build after the first (another seed of a sweep,
// another member of a figure, another scenario) rewinds its scheduler,
// network and pooled protocol state and rebuilds on their recycled
// storage, running the same code as a fresh build. A RunCtx is
// single-goroutine; seed sweeps hand one RunCtx to each worker (see
// Sweep).
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/invariant"
	"repro/internal/scenario"
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

// Runner produces an analytic figure's Result. seed selects the
// deterministic random stream.
type Runner func(seed int64) *Result

// RunWith runs FigureJob(id) for one seed on c, recycling the storage of
// whatever c ran before.
func RunWith(c *RunCtx, id string, seed int64) (*Result, error) {
	j, err := FigureJob(id)
	if err != nil {
		return nil, err
	}
	return j.run(c, seed)
}

// --- run context and its environment -----------------------------------

// RunCtx carries the per-worker state behind figure runs: one reusable
// simulation environment, rewound for every build, plus the engine
// counters accumulated across runs. It must be used from one goroutine at
// a time; parallel sweeps give each worker its own RunCtx.
type RunCtx struct {
	env           scenario.Env // zero until the first build
	check         bool
	engineWorkers int
	stats         EngineStats
	violations    []invariant.Violation
	dropped       int64 // violations the checkers counted past their storage cap
}

// NewRunCtx returns a context that has built nothing yet.
func NewRunCtx() *RunCtx { return &RunCtx{} }

// EnableInvariants arms the run-level invariant checker on every
// environment this context hands out: engine-level predicates (packet
// pool conservation, scheduler monotonicity) on all runs, plus
// protocol-level ones (sender rate bound, CLR liveness) on scenario-spec
// runs. Violations accumulate across runs; see Violations. The checker's
// sampling ticks are subtracted from the EngineStats event count, so
// enabling it changes no byte and no counter on either engine
// (TestGoldenLedger's checked pass): on the region engine the ticks clip
// windows, but a crossing send is scheduled when it is sent, so no event
// waits for a barrier whose place a tick could move.
func (c *RunCtx) EnableInvariants() { c.check = true }

// Violations returns the invariant violations observed across every run
// executed with this context since the last ResetStats.
func (c *RunCtx) Violations() []invariant.Violation { return c.violations }

// SetEngineWorkers selects the execution engine for every scenario the
// context builds: n >= 2 runs them on the region engine
// (internal/engine), 0 or 1 on the serial engine. Every n >= 2 runs the
// same code — the region structure depends only on topology and seed —
// but sharded output is a different deterministic universe than the
// serial engine's (per-region RNG streams). Only bench/'s
// region_sharded workload and the region engine's tests set it.
func (c *RunCtx) SetEngineWorkers(n int) { c.engineWorkers = n }

// harvest folds the engine counters of the environment's last build, and
// the recovery counters of its sender when it made one, into the context
// totals. RunCtx.run defers it, so a failed build or a panicking run
// still folds what it did.
func (c *RunCtx) harvest(s *tfmcc.Sender) {
	e := c.env
	f := e.Net.Faults()
	// Batch occupancy: one batch may dispatch many same-timestamp
	// events. The count differs with and without -check (checker ticks
	// add events), so no determinism check compares it.
	st := EngineStats{Events: e.Sch.Processed(), Batches: e.Sch.Batches(),
		Unreachable: f.Unreachable, Corrupted: f.Corrupted, Duplicated: f.Duplicated}
	if s != nil {
		st.CLRLosses, st.Reelections, st.RateRecoveries = s.CLRLosses, s.Reelections, s.RateRecoveries
		st.ReelectNS, st.RateRecoverNS = s.ReelectTime, s.RateRecovery
	}
	if e.Check != nil {
		// The checker's sampling ticks are bookkeeping, not simulation:
		// subtracting them keeps the serial engine's event count identical
		// with and without -check.
		st.Events -= e.Check.Ticks()
		c.violations = append(c.violations, e.Check.Violations()...)
		c.dropped += e.Check.Dropped()
	}
	if rs := e.Net.RegionStats(); rs.Events != nil {
		// Region-engine run: the environment scheduler only carried
		// control flow. Total events = control + every region scheduler,
		// an identity TestEngineStatsConservation and bench/ re-check.
		// The window schedule is a wall-structure diagnostic (-check
		// ticks clip windows), not part of any determinism check.
		st.ControlEvents, st.EngineShards = st.Events, len(rs.Events)
		for i, v := range rs.Events {
			st.ShardEvents[i] = v
			st.Events += v
		}
		st.HandoffsSent, st.HandoffsRecv, st.Batches = rs.Handoffs, rs.Handoffs, st.Batches+rs.Batches
		st.Windows, st.WindowNS, st.ShardSteps = rs.Windows, rs.WindowNS, rs.ShardSteps
	}
	for _, l := range e.Net.Links() {
		st.PacketsSent += l.Stats.Sent
		st.PacketsDelivered += l.Stats.Deliver
	}
	c.stats.Add(st)
}

// Stats returns the engine counters accumulated over every run executed
// with this context since the last ResetStats.
func (c *RunCtx) Stats() EngineStats { return c.stats }

// ResetStats zeroes the accumulated engine counters and violations.
func (c *RunCtx) ResetStats() {
	c.stats = EngineStats{}
	c.violations = nil
	c.dropped = 0
}

// newEnv returns the context's environment, empty and seeded for the next
// build, with the checker armed when checking is enabled: it rewinds the
// environment, which the first call makes.
func (c *RunCtx) newEnv(seed int64) scenario.Env {
	if c.env.Net == nil {
		c.env = scenario.NewEnv(seed)
	} else {
		c.env.Rewind(seed)
	}
	c.armChecker()
	return c.env
}

// armChecker resets and starts the environment's invariant checker for a
// new run when checking is enabled, registering the engine-level
// predicates, the region engine's included. Protocol-level predicates
// join in scenario.Build when the run is scenario-spec driven.
func (c *RunCtx) armChecker() {
	if !c.check {
		return
	}
	e := &c.env
	if e.Check == nil {
		e.Check = invariant.New(e.Sch, 0)
	} else {
		e.Check.Reset()
	}
	net := e.Net
	e.Check.Register("pkt-conservation", func() string {
		if live := net.LivePackets(); live < 0 {
			return fmt.Sprintf("packet pool conservation broken: %d live packets (double release)", live)
		}
		return ""
	})
	// A train copy holds a packet reference, so parked copies imply live
	// packets. The converse bound (held <= live) does NOT hold: a multicast
	// packet fans one live allocation out to many train copies.
	e.Check.Register("train-conservation", func() string {
		if held, live := net.TrainHeld(), net.LivePackets(); held > 0 && live == 0 {
			return fmt.Sprintf("fan-out train conservation broken: %d copies on trains with no live packets", held)
		}
		return ""
	})
	// The region engine's conservative-execution invariant: shards run
	// ahead of the control clock within a window, never behind it, where
	// they could be handed an event in their past. ShardClocks is nil on
	// a serial network.
	e.Check.Register("shard-skew", func() string {
		ctl := net.Scheduler().Now()
		for i, t := range net.ShardClocks() {
			if t < ctl {
				return fmt.Sprintf("shard %d clock %v lags control clock %v", i, t, ctl)
			}
		}
		return ""
	})
	e.Check.Start()
}

const (
	mbit = 125000.0 // bytes/s per Mbit/s
	kbit = 125.0    // bytes/s per Kbit/s
)

// --- seed sweeps -------------------------------------------------------

// Job is what Sweep runs once per seed: a registry figure (FigureJob), a
// Spec-backed entry with overrides (ScenarioJob) or a spec under a key
// (SpecJob).
type Job struct {
	ID    string
	Title string
	run   func(c *RunCtx, seed int64) (*Result, error)
}

// FigureJob runs a registry entry: an engine entry member by member on
// the one run path, rendered by its report, an analytic figure through
// its runner. The job names the Result with the entry's id and title
// (a Spec-backed entry's title is its spec's); reports and runners set
// neither.
func FigureJob(id string) (Job, error) {
	e, ok := Lookup(id)
	if !ok {
		var ids []string
		for _, e := range Entries() {
			ids = append(ids, e.ID)
		}
		return Job{}, fmt.Errorf("experiments: unknown figure %q (have %v)", id, ids)
	}
	if e.Run == nil {
		return membersJob(id, e.Title, e.Members(), e.Report), nil
	}
	return Job{ID: id, Title: e.Title, run: func(_ *RunCtx, seed int64) (*Result, error) {
		res := e.Run(seed)
		res.Figure, res.Title = e.ID, e.Title
		return res, nil
	}}, nil
}

// SeedRun is one seed of a sweep, recorded on its own.
type SeedRun struct {
	Seed       int64
	Result     *Result     // nil when Err is set
	Stats      EngineStats // this seed's engine counters
	Violations []invariant.Violation
	Dropped    int64 // violations counted past the checker's storage cap
	Err        error // a build error, or the sweep.SeedError of a panic
}

// SweepResult is a job reproduced as the merged behaviour of many
// independent seeds, plus each seed's own run.
type SweepResult struct {
	Figure  string
	Title   string
	Bands   []*stats.Band
	Runs    []SeedRun // one per seed, in seed order
	Workers int
	CI      float64
	Engine  EngineStats // the seeds' Stats, added
}

// Summary returns a per-band digest of the sweep.
func (r *SweepResult) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %s: %s (%d seeds, %d workers, %.0f%% CI)\n",
		r.Figure, r.Title, len(r.Runs), r.Workers, r.CI*100)
	for _, bd := range r.Bands {
		var mean stats.Welford
		for _, p := range bd.Points {
			mean.Add(p.Mean)
		}
		fmt.Fprintf(&b, "  %-28s mean=%10.3f points=%d\n", bd.Name, mean.Mean(), len(bd.Points))
	}
	if first := r.Runs[0].Result; first != nil {
		for _, n := range first.Notes {
			fmt.Fprintf(&b, "  note (first seed): %s\n", n)
		}
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

// Sweep runs job across cfg.Seeds independent seeds on cfg.Workers
// workers, records each seed's run and merges the per-seed series into
// bands. It is the one place run contexts are made: each worker owns one
// (serial, checked at cfg.Check), so consecutive seeds on a worker
// rebuild on the recycled storage of the seed before. The bands, the
// runs and their order are bit-for-bit independent of the worker count. A seed that fails to
// build or panics keeps its Err and stays out of the bands.
func Sweep(job Job, cfg sweep.Config) *SweepResult {
	cfg = cfg.Normalized()
	ctxs := make([]*RunCtx, cfg.Workers)
	for i := range ctxs {
		ctxs[i] = NewRunCtx()
		if cfg.Check {
			ctxs[i].EnableInvariants()
		}
	}
	runs := make([]SeedRun, cfg.Seeds)
	series, panics := sweep.RunRaw(cfg, func(worker int, seed int64) []*stats.Series {
		c, r := ctxs[worker], &runs[cfg.Index(seed)]
		c.ResetStats()
		// Deferred, so a seed that panics still records what it ran.
		defer func() { r.Stats, r.Violations, r.Dropped = c.stats, c.violations, c.dropped }()
		r.Seed = seed
		r.Result, r.Err = job.run(c, seed)
		if r.Err != nil {
			return nil
		}
		return r.Result.Series
	})
	for _, p := range panics {
		runs[cfg.Index(p.Seed)].Err = p
	}
	out := &SweepResult{
		Figure:  job.ID,
		Title:   job.Title,
		Bands:   stats.MergeRuns(series, cfg.CI),
		Runs:    runs,
		Workers: cfg.Workers,
		CI:      cfg.CI,
	}
	for _, r := range runs {
		out.Engine.Add(r.Stats)
	}
	return out
}
