package benchreport

import (
	"fmt"
	"slices"
	"sort"
)

// Merge recombines shard fragments into the report an unsharded run
// would have produced. Two fragment kinds exist and are auto-detected:
//
//   - Scenario shards (tfmccbench -shard): disjoint scenario subsets,
//     reassembled in plan order by sequence number — the same
//     index-driven discipline stats.MergeRuns applies to seeds.
//   - Seed shards (tfmccbench -seedshard): every fragment measured the
//     whole plan over a contiguous seed sub-range; per-scenario counters
//     are summed and rates recomputed.
//
// Either way the result is independent of fragment order and the
// Deterministic form is byte-identical to an unsharded run of the same
// plan and seeds. Fragments must agree on every header field, carry
// distinct shards of one "i/N" split, and cover the plan (or seed
// range) exactly: a missing or duplicated piece is an error, not a
// silent gap.
func Merge(frags []*Report) (*Report, error) {
	if len(frags) == 0 {
		return nil, fmt.Errorf("benchreport: no fragments to merge")
	}
	hasShard, hasSeed := frags[0].Shard != "", frags[0].SeedShard != ""
	for i, f := range frags {
		if (f.Shard != "") != hasShard || (f.SeedShard != "") != hasSeed {
			return nil, fmt.Errorf("benchreport: fragment %d does not match fragment 0's sharding dimensions (scenario=%v seed=%v)",
				i, hasShard, hasSeed)
		}
	}
	if hasShard && hasSeed {
		// Two-dimensional matrix (scenario shard x seed shard): seed-merge
		// each scenario shard's column first, then scenario-merge the
		// results. Grouping preserves first-seen order only for
		// reproducible error messages; the result is order-independent.
		groups := map[string][]*Report{}
		var order []string
		for _, f := range frags {
			if _, ok := groups[f.Shard]; !ok {
				order = append(order, f.Shard)
			}
			groups[f.Shard] = append(groups[f.Shard], f)
		}
		cols := make([]*Report, 0, len(order))
		for _, s := range order {
			col, err := mergeSeeds(groups[s])
			if err != nil {
				return nil, fmt.Errorf("benchreport: scenario shard %s: %w", s, err)
			}
			cols = append(cols, col)
		}
		return Merge(cols)
	}
	if hasSeed {
		return mergeSeeds(frags)
	}
	first := frags[0]
	_, n, err := ParseShardSpec(first.Shard)
	if err != nil {
		return nil, fmt.Errorf("benchreport: fragment 0 has no shard spec: %w", err)
	}
	if len(frags) != n {
		return nil, fmt.Errorf("benchreport: got %d fragments for a /%d split", len(frags), n)
	}
	seenShard := make([]bool, n)
	out := &Report{
		Generated:     first.Generated,
		GoVersion:     first.GoVersion,
		GOOS:          first.GOOS,
		GOARCH:        first.GOARCH,
		Seeds:         first.Seeds,
		Workers:       first.Workers,
		PlanSize:      first.PlanSize,
		PlanIDs:       first.PlanIDs,
		Deterministic: first.Deterministic,
		Scenarios:     []Metrics{},
	}
	for i, f := range frags {
		if f.GoVersion != out.GoVersion || f.GOOS != out.GOOS || f.GOARCH != out.GOARCH ||
			f.Seeds != out.Seeds || f.Workers != out.Workers ||
			f.PlanSize != out.PlanSize || f.Deterministic != out.Deterministic ||
			!slices.Equal(f.PlanIDs, out.PlanIDs) {
			return nil, fmt.Errorf("benchreport: fragment %d header mismatch (run all shards with identical flags and selection on one toolchain)", i)
		}
		shard, fn, err := ParseShardSpec(f.Shard)
		if err != nil {
			return nil, fmt.Errorf("benchreport: fragment %d: %w", i, err)
		}
		if fn != n {
			return nil, fmt.Errorf("benchreport: fragment %d is shard %s, want a /%d split", i, f.Shard, n)
		}
		if seenShard[shard-1] {
			return nil, fmt.Errorf("benchreport: shard %d/%d appears twice", shard, n)
		}
		if f.SeedShard != "" {
			return nil, fmt.Errorf("benchreport: fragment %d mixes a seed shard into a scenario-shard merge", i)
		}
		seenShard[shard-1] = true
		// The merged stamp is the latest fragment's, so the report dates
		// from when the final shard finished.
		if f.Generated > out.Generated {
			out.Generated = f.Generated
		}
		out.Scenarios = append(out.Scenarios, f.Scenarios...)
		out.WallNS += f.WallNS
		out.Fragments = append(out.Fragments, FragmentMeta{
			Shard: f.Shard, Scenarios: len(f.Scenarios), WallNS: f.WallNS})
	}
	sort.SliceStable(out.Scenarios, func(i, j int) bool {
		return out.Scenarios[i].Seq < out.Scenarios[j].Seq
	})
	for i, m := range out.Scenarios {
		if m.Seq != i {
			return nil, fmt.Errorf("benchreport: plan position %d is %s (seq %d): shards are not a disjoint, complete cover of the %d-scenario plan",
				i, m.ID, m.Seq, out.PlanSize)
		}
	}
	if len(out.Scenarios) != out.PlanSize {
		return nil, fmt.Errorf("benchreport: merged %d scenarios, plan has %d", len(out.Scenarios), out.PlanSize)
	}
	return out, nil
}

// mergeSeeds recombines seed-range fragments: every fragment measured
// the same scenario list over a disjoint slice of the seed range, so
// counters sum and rates are recomputed from the sums. The fragments
// must chain seamlessly from seed 1 (fragment i's base = previous base +
// previous count, totalling the header seed count). Fragments may all
// carry one identical scenario-shard stamp (a 2-D matrix column); it
// propagates to the merged report for the outer scenario merge.
func mergeSeeds(frags []*Report) (*Report, error) {
	first := frags[0]
	_, n, err := ParseShardSpec(first.SeedShard)
	if err != nil {
		return nil, fmt.Errorf("benchreport: fragment 0 has no seed-shard spec: %w", err)
	}
	if len(frags) != n {
		return nil, fmt.Errorf("benchreport: got %d fragments for a /%d seed split", len(frags), n)
	}
	byIdx := make([]*Report, n)
	out := &Report{
		Generated:     first.Generated,
		GoVersion:     first.GoVersion,
		GOOS:          first.GOOS,
		GOARCH:        first.GOARCH,
		Seeds:         first.Seeds,
		Workers:       first.Workers,
		PlanSize:      first.PlanSize,
		PlanIDs:       first.PlanIDs,
		Shard:         first.Shard,
		Deterministic: first.Deterministic,
		Scenarios:     []Metrics{},
	}
	for i, f := range frags {
		if f.GoVersion != out.GoVersion || f.GOOS != out.GOOS || f.GOARCH != out.GOARCH ||
			f.Seeds != out.Seeds || f.Workers != out.Workers ||
			f.PlanSize != out.PlanSize || f.Deterministic != out.Deterministic ||
			!slices.Equal(f.PlanIDs, out.PlanIDs) {
			return nil, fmt.Errorf("benchreport: seed fragment %d header mismatch (run all seed shards with identical flags and selection on one toolchain)", i)
		}
		if f.Shard != first.Shard {
			return nil, fmt.Errorf("benchreport: fragment %d is scenario shard %q, want %q (seed fragments must share one scenario shard)",
				i, f.Shard, first.Shard)
		}
		idx, fn, err := ParseShardSpec(f.SeedShard)
		if err != nil {
			return nil, fmt.Errorf("benchreport: seed fragment %d: %w", i, err)
		}
		if fn != n {
			return nil, fmt.Errorf("benchreport: fragment %d is seed shard %s, want a /%d split", i, f.SeedShard, n)
		}
		if byIdx[idx-1] != nil {
			return nil, fmt.Errorf("benchreport: seed shard %d/%d appears twice", idx, n)
		}
		byIdx[idx-1] = f
		if f.Generated > out.Generated {
			out.Generated = f.Generated
		}
	}
	// The ranges must chain from seed 1 and cover the header seed count.
	base := int64(1)
	for i, f := range byIdx {
		fBase := f.SeedBase
		if fBase == 0 {
			fBase = 1
		}
		if fBase != base {
			return nil, fmt.Errorf("benchreport: seed shard %d/%d starts at seed %d, want %d (fragments must chain)", i+1, n, fBase, base)
		}
		runs := 0
		if len(f.Scenarios) > 0 {
			runs = f.Scenarios[0].Runs
		}
		base += int64(runs)
	}
	if base != int64(out.Seeds)+1 {
		return nil, fmt.Errorf("benchreport: seed fragments cover %d seeds, header says %d", base-1, out.Seeds)
	}
	for i, f := range byIdx {
		if len(f.Scenarios) != len(byIdx[0].Scenarios) {
			return nil, fmt.Errorf("benchreport: seed fragment %d measured %d scenarios, fragment 1 measured %d",
				i+1, len(f.Scenarios), len(byIdx[0].Scenarios))
		}
		out.WallNS += f.WallNS
		out.Fragments = append(out.Fragments, FragmentMeta{
			SeedShard: f.SeedShard, Scenarios: len(f.Scenarios), WallNS: f.WallNS})
		for j, m := range f.Scenarios {
			if i == 0 {
				out.Scenarios = append(out.Scenarios, m)
				continue
			}
			acc := &out.Scenarios[j]
			if acc.ID != m.ID || acc.Seq != m.Seq {
				return nil, fmt.Errorf("benchreport: seed fragment %d scenario %d is %s (seq %d), want %s (seq %d)",
					i+1, j, m.ID, m.Seq, acc.ID, acc.Seq)
			}
			acc.Runs += m.Runs
			acc.WallNS += m.WallNS
			acc.Events += m.Events
			acc.PacketsSent += m.PacketsSent
			acc.PacketsDeliv += m.PacketsDeliv
			acc.Unreachable += m.Unreachable
			acc.Corrupted += m.Corrupted
			acc.Duplicated += m.Duplicated
			if acc.EngineWorkers != m.EngineWorkers {
				return nil, fmt.Errorf("benchreport: seed fragment %d scenario %s ran with -engineworkers %d, sibling with %d",
					i+1, m.ID, m.EngineWorkers, acc.EngineWorkers)
			}
			acc.EngineShards = max(acc.EngineShards, m.EngineShards)
			for len(acc.ShardEvents) < len(m.ShardEvents) {
				acc.ShardEvents = append(acc.ShardEvents, 0)
			}
			for k, v := range m.ShardEvents {
				acc.ShardEvents[k] += v
			}
			acc.ControlEvents += m.ControlEvents
			acc.HandoffsSent += m.HandoffsSent
			acc.HandoffsRecv += m.HandoffsRecv
			acc.Batches += m.Batches
			acc.Windows += m.Windows
			acc.WindowNS += m.WindowNS
			acc.ShardSteps += m.ShardSteps
			acc.CLRLosses += m.CLRLosses
			acc.Reelections += m.Reelections
			acc.RateRecoveries += m.RateRecoveries
			// The _ns fields are per-sweep maxima, so across seed ranges
			// the merged value is the max of the fragment maxima.
			acc.ReelectNS = max(acc.ReelectNS, m.ReelectNS)
			acc.RateRecoverNS = max(acc.RateRecoverNS, m.RateRecoverNS)
			acc.Violations = append(acc.Violations, m.Violations...)
			acc.Failures = append(acc.Failures, m.Failures...)
			acc.Allocs += m.Allocs
		}
	}
	// Recompute the rates from the summed counters; keep shard 1's setup
	// amortisation (every fragment probes the same cold/warm build).
	for i := range out.Scenarios {
		m := &out.Scenarios[i]
		if m.WallNS > 0 {
			sec := float64(m.WallNS) / 1e9
			m.EventsPerSec = float64(m.Events) / sec
			m.PacketsPerSec = float64(m.PacketsDeliv) / sec
		}
		if m.Events > 0 {
			m.NSPerEvent = float64(m.WallNS) / float64(m.Events)
			m.AllocsPerEvt = float64(m.Allocs) / float64(m.Events)
		}
		if m.Batches > 0 {
			m.MeanBatch = float64(m.Events) / float64(m.Batches)
		}
	}
	return out, nil
}
