package benchreport

import (
	"fmt"

	"repro/internal/experiments"
)

// Regression is one gated metric that got worse than the baseline by
// more than the tolerance, or an exact quantity that moved at all.
type Regression struct {
	ID     string
	Metric string
	Base   float64
	New    float64
	Ratio  float64 // New / Base
}

func (r Regression) String() string {
	return fmt.Sprintf("%-13s %-16s %12.3f -> %12.3f (%+.1f%%)",
		r.ID, r.Metric, r.Base, r.New, (r.Ratio-1)*100)
}

// Compare gates fresh against base on what a report is exact about. For
// every non-analytic scenario present in both: allocs/event may not
// regress by more than tol (0.15 = 15%; it is machine-independent, so
// the raw ratio is gated), and — when both sides swept the same number
// of seeds on the same engine — every counter the experiments.Counters
// table marks exact (events, packets sent, packets delivered) must equal
// the baseline's: the committed report doubles as a counter ledger, so a
// change that moves one event fails here even if every rate looks fine. Conservation identities are re-checked on every
// fresh scenario. Analytic figures have no engine events and are exempt.
// Scenarios missing on either side, and counter comparisons skipped for
// a seed mismatch, are reported as notes, never silently dropped.
//
// Wall-clock rates (ns/event) are not gated: the baseline was measured
// on another machine at another time, and bench/ is the timing authority
// (paired runs at one commit pair). They stay in the report and in
// benchdiff's -history trend.
func Compare(base, fresh *Report, tol float64) (regs []Regression, notes []string) {
	baseByID := map[string]Metrics{}
	for _, m := range base.Scenarios {
		baseByID[m.ID] = m
	}
	seen := map[string]bool{}
	skipped := 0
	counters := experiments.Counters()
	for _, m := range fresh.Scenarios {
		seen[m.ID] = true
		regs = append(regs, conserve(m)...)
		b, ok := baseByID[m.ID]
		if !ok {
			notes = append(notes, fmt.Sprintf("%s: new scenario, no baseline", m.ID))
			continue
		}
		if m.Analytic || b.Analytic {
			continue
		}
		regs = append(regs, gate(m.ID, "allocs/event", b.AllocsPerEvt, m.AllocsPerEvt, tol)...)
		if m.Runs != b.Runs || m.EngineShards != b.EngineShards {
			skipped++
			continue
		}
		for _, c := range counters {
			if c.Exact {
				regs = append(regs, exact(m.ID, c.Name, c.Value(&b.EngineStats), c.Value(&m.EngineStats))...)
			}
		}
	}
	if skipped > 0 {
		notes = append(notes, fmt.Sprintf(
			"%d scenario(s) swept another seed count or ran on another engine than the baseline: event and packet counters not compared", skipped))
	}
	for _, m := range base.Scenarios {
		if !seen[m.ID] {
			notes = append(notes, fmt.Sprintf("%s: in baseline but not measured", m.ID))
		}
	}
	return regs, notes
}

// exact flags a deterministic counter that differs from the baseline.
func exact(id, counter string, base, fresh uint64) []Regression {
	if base == fresh {
		return nil
	}
	return []Regression{{ID: id, Metric: counter + " drift", Base: float64(base), New: float64(fresh), Ratio: ratioOf(fresh, base)}}
}

// conserve checks the region-parallel engine's conservation identities
// on a sharded measurement: every cross-region handoff pushed must have
// been drained into its destination shard, and the total event count
// must decompose into control plus per-shard events. These have no
// tolerance — a mismatch means the partitioning dropped or duplicated
// work, which per-scenario rates alone would hide.
func conserve(m Metrics) []Regression {
	var regs []Regression
	// Batched dispatch can only coalesce events, never invent them: a
	// batch count above the event count means the occupancy accounting
	// broke (only meaningful on full reports — Strip removes Batches).
	if m.Batches > m.Events {
		regs = append(regs, Regression{
			ID: m.ID, Metric: "batches > events",
			Base: float64(m.Events), New: float64(m.Batches),
			Ratio: ratioOf(m.Batches, m.Events),
		})
	}
	if m.EngineShards == 0 {
		return regs
	}
	// Every region-parallel run executes at least one synchronization
	// window; zero recorded windows on a sharded measurement means the
	// window accounting was lost (again, full reports only).
	if m.Windows == 0 && m.Batches > 0 {
		regs = append(regs, Regression{
			ID: m.ID, Metric: "no windows recorded",
			Base: 1, New: 0, Ratio: 0,
		})
	}
	// A window steps between none and all of the shards; a stepped shard
	// had an event due, so it ran at least one; and shard events only run
	// inside a step (full reports only, like the window count).
	var shardEvents uint64
	for _, v := range m.ShardEvents {
		shardEvents += v
	}
	if limit := min(uint64(m.EngineShards)*m.Windows, shardEvents); m.ShardSteps > limit {
		regs = append(regs, Regression{
			ID: m.ID, Metric: "shard steps > min(shards*windows, shard events)",
			Base: float64(limit), New: float64(m.ShardSteps),
			Ratio: ratioOf(m.ShardSteps, limit),
		})
	}
	if m.ShardSteps == 0 && m.Windows > 0 && shardEvents > 0 {
		regs = append(regs, Regression{
			ID: m.ID, Metric: "no shard steps recorded",
			Base: 1, New: 0, Ratio: 0,
		})
	}
	if m.HandoffsSent != m.HandoffsRecv {
		regs = append(regs, Regression{
			ID: m.ID, Metric: "handoffs sent!=recv",
			Base: float64(m.HandoffsSent), New: float64(m.HandoffsRecv),
			Ratio: ratioOf(m.HandoffsRecv, m.HandoffsSent),
		})
	}
	if sum := m.ControlEvents + shardEvents; m.Events != sum {
		regs = append(regs, Regression{
			ID: m.ID, Metric: "event decomposition",
			Base: float64(m.Events), New: float64(sum),
			Ratio: ratioOf(sum, m.Events),
		})
	}
	return regs
}

func ratioOf(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func gate(id, metric string, base, fresh, tol float64) []Regression {
	if base <= 0 {
		return nil // no meaningful baseline rate to gate against
	}
	if fresh <= base*(1+tol) {
		return nil
	}
	return []Regression{{ID: id, Metric: metric, Base: base, New: fresh, Ratio: fresh / base}}
}
