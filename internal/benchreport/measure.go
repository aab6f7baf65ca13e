package benchreport

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/sweep"
)

func allocsNow() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func (m *Metrics) finish(wall time.Duration, st experiments.EngineStats, allocs uint64) {
	m.WallNS = wall.Nanoseconds()
	m.Events = st.Events
	m.PacketsSent = st.PacketsSent
	m.PacketsDeliv = st.PacketsDelivered
	m.Unreachable = st.Unreachable
	m.Corrupted = st.Corrupted
	m.Duplicated = st.Duplicated
	m.CLRLosses = st.CLRLosses
	m.Reelections = st.Reelections
	m.RateRecoveries = st.RateRecoveries
	m.ReelectNS = int64(st.ReelectNS)
	m.RateRecoverNS = int64(st.RateRecoverNS)
	if st.EngineShards > 0 {
		m.EngineShards = st.EngineShards
		m.ShardEvents = append([]uint64(nil), st.ShardEvents[:st.EngineShards]...)
		m.ControlEvents = st.ControlEvents
		m.HandoffsSent = st.HandoffsSent
		m.HandoffsRecv = st.HandoffsRecv
	}
	m.Batches = st.Batches
	m.Windows = st.Windows
	m.WindowNS = int64(st.WindowNS)
	m.ShardSteps = st.ShardSteps
	if st.Batches > 0 {
		m.MeanBatch = float64(st.Events) / float64(st.Batches)
	}
	m.Allocs = allocs
	if sec := wall.Seconds(); sec > 0 {
		m.EventsPerSec = float64(st.Events) / sec
		m.PacketsPerSec = float64(st.PacketsDelivered) / sec
	}
	if st.Events > 0 {
		m.NSPerEvent = float64(m.WallNS) / float64(st.Events)
		m.AllocsPerEvt = float64(m.Allocs) / float64(st.Events)
	}
}

// Options configure a measurement run.
type Options struct {
	Seeds    int   // seeds per scenario in this run
	SeedBase int64 // first seed; 0 means 1
	Workers  int
	// TotalSeeds is the whole run's seed count when this is a seed-range
	// fragment (recorded as the header Seeds so sibling fragments agree);
	// 0 means Seeds.
	TotalSeeds int
	SeedShard  string // "i/N" stamped on seed-range fragments
	// Check enables the run-level invariant checker in every figure
	// sweep; violations land in the scenario's Metrics. The checker's
	// ticks are excluded from event counts, so the deterministic report
	// is unchanged by enabling it.
	Check bool
	// EngineWorkers >= 2 routes scenario-spec runs through the
	// region-parallel engine on that many goroutines per run; the report
	// then carries per-shard event and handoff counters.
	EngineWorkers int
}

// MeasureOpts runs every item of items (typically one shard of plan, or
// the whole plan over one seed sub-range) and returns the report.
// Progress lines go to progress (pass io.Discard to silence). The header
// records the full plan — size and scenario ids — so fragments from
// sibling shards can be merged and checked for completeness against the
// same selection.
func MeasureOpts(items, plan []Item, opt Options, progress io.Writer) *Report {
	if opt.SeedBase == 0 {
		opt.SeedBase = 1
	}
	if opt.TotalSeeds == 0 {
		opt.TotalSeeds = opt.Seeds
	}
	planIDs := make([]string, len(plan))
	for i, it := range plan {
		planIDs[i] = it.ID
	}
	rep := &Report{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Seeds:     opt.TotalSeeds,
		Workers:   opt.Workers,
		PlanSize:  len(plan),
		PlanIDs:   planIDs,
		SeedShard: opt.SeedShard,
		Scenarios: []Metrics{},
	}
	if opt.SeedBase != 1 {
		rep.SeedBase = opt.SeedBase
	}
	start := time.Now()
	for _, it := range items {
		var m Metrics
		if it.ID == SessionID {
			m = measureSession(it, opt)
		} else {
			m = measureFigure(it, opt)
		}
		rep.Scenarios = append(rep.Scenarios, m)
		switch {
		case m.Analytic:
			fmt.Fprintf(progress, "%-13s analytic (no engine events), %d seeds in %.0f ms\n",
				m.ID, m.Runs, float64(m.WallNS)/1e6)
		case m.Setup != nil:
			fmt.Fprintf(progress, "%-13s %8.0f events/sec %8.0f packets/sec %6.1f ns/event %.3f allocs/event (setup: %d cold / %.0f warm allocs, %.1fx)\n",
				m.ID, m.EventsPerSec, m.PacketsPerSec, m.NSPerEvent, m.AllocsPerEvt,
				m.Setup.ColdAllocs, m.Setup.WarmAllocs, m.Setup.AllocReduction)
		case m.Windows > 0:
			fmt.Fprintf(progress, "%-13s %8.0f events/sec %8.0f packets/sec %6.1f ns/event %.3f allocs/event (%d regions, %.1f busy shards/window)\n",
				m.ID, m.EventsPerSec, m.PacketsPerSec, m.NSPerEvent, m.AllocsPerEvt,
				m.EngineShards, float64(m.ShardSteps)/float64(m.Windows))
		default:
			fmt.Fprintf(progress, "%-13s %8.0f events/sec %8.0f packets/sec %6.1f ns/event %.3f allocs/event\n",
				m.ID, m.EventsPerSec, m.PacketsPerSec, m.NSPerEvent, m.AllocsPerEvt)
		}
	}
	rep.WallNS = time.Since(start).Nanoseconds()
	return rep
}

// measureFigure sweeps one registered figure across seeds in parallel.
func measureFigure(it Item, opt Options) Metrics {
	m := Metrics{
		ID: it.ID, Seq: it.Seq, Title: it.Title, Tags: it.Tags,
		Runs: opt.Seeds, Analytic: it.Analytic,
	}
	runtime.GC()
	a0 := allocsNow()
	start := time.Now()
	res, err := experiments.Sweep(it.FigureID, sweep.Config{
		Seeds: opt.Seeds, Workers: opt.Workers, Base: opt.SeedBase, Check: opt.Check,
		EngineWorkers: opt.EngineWorkers})
	if err != nil {
		// Serial-only figures refuse -engineworkers rather than silently
		// running serial; surface the refusal as a recorded failure so a
		// sharded measurement plan still covers the rest of the suite.
		m.WallNS = time.Since(start).Nanoseconds()
		m.Failures = []string{err.Error()}
		return m
	}
	m.finish(time.Since(start), res.Engine, allocsNow()-a0)
	if res.Engine.EngineShards > 0 {
		m.EngineWorkers = opt.EngineWorkers
	}
	m.Violations = res.Violations
	m.Failures = res.Failures
	return m
}

// measureSession runs the 100-receiver session scenario seeds times on
// one reusable arena, recording cold-vs-warm setup allocations. The setup
// probes run the scenario for zero simulated seconds — construction only —
// so the amortisation ratio isolates what arena reuse saves, undiluted by
// run-phase allocations.
func measureSession(it Item, opt Options) Metrics {
	base, seeds := opt.SeedBase, opt.Seeds
	m := Metrics{ID: it.ID, Seq: it.Seq, Title: it.Title, Tags: it.Tags, Runs: seeds}
	ctx := experiments.NewRunCtx()
	runtime.GC()
	a0 := allocsNow()
	ctx.SessionThroughput(100, 0) // cold: builds the arena
	cold := allocsNow() - a0
	a0 = allocsNow()
	ctx.SessionThroughput(100, 0) // warm: rewinds it
	warm := float64(allocsNow() - a0)
	amort := &SetupAmort{ColdAllocs: cold, WarmAllocs: warm}
	if warm > 0 {
		amort.AllocReduction = float64(cold) / warm
	}
	m.Setup = amort

	ctx.ResetStats()
	runtime.GC()
	a0 = allocsNow()
	start := time.Now()
	for seed := base; seed < base+int64(seeds); seed++ {
		ctx.SessionThroughputSeed(seed, 100, 10)
	}
	m.finish(time.Since(start), ctx.Stats(), allocsNow()-a0)
	return m
}
