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
	m.EngineStats = st
	m.WallNS = wall.Nanoseconds()
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

// Measure runs every item of plan under the run options cfg — each
// figure swept over cfg's seeds on cfg.Workers workers, with the
// invariant checker when cfg.Check (its ticks are excluded from event
// counts, so the deterministic report is unchanged by it) and on the
// region-parallel engine when cfg.EngineWorkers >= 2 — and returns the
// report. Progress lines go to progress (pass io.Discard to silence).
func Measure(plan []Item, cfg sweep.Config, progress io.Writer) *Report {
	cfg = cfg.Normalized()
	rep := &Report{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Seeds:     cfg.Seeds,
		Workers:   cfg.Workers,
		Scenarios: []Metrics{},
	}
	start := time.Now()
	for _, it := range plan {
		var m Metrics
		if it.ID == SessionID {
			m = measureSession(it, cfg)
		} else {
			m = measureFigure(it, cfg)
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
func measureFigure(it Item, cfg sweep.Config) Metrics {
	m := Metrics{ID: it.ID, Title: it.Title, Tags: it.Tags, Runs: cfg.Seeds, Analytic: it.Analytic}
	runtime.GC()
	a0 := allocsNow()
	start := time.Now()
	res, err := experiments.Sweep(it.FigureID, cfg)
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
		m.EngineWorkers = cfg.EngineWorkers
	}
	m.Violations = res.Violations
	m.Failures = res.Failures
	return m
}

// measureSession runs the 100-receiver session scenario once per seed on
// one reusable arena, recording cold-vs-warm setup allocations. The setup
// probes run the scenario for zero simulated seconds — construction only —
// so the amortisation ratio isolates what arena reuse saves, undiluted by
// run-phase allocations.
func measureSession(it Item, cfg sweep.Config) Metrics {
	m := Metrics{ID: it.ID, Title: it.Title, Tags: it.Tags, Runs: cfg.Seeds}
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
	for i := 0; i < cfg.Seeds; i++ {
		ctx.SessionThroughputSeed(cfg.Seed(i), 100, 10)
	}
	m.finish(time.Since(start), ctx.Stats(), allocsNow()-a0)
	return m
}
