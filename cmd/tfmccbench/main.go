// Command tfmccbench measures the simulation engine across the paper's
// figure scenarios and emits a machine-readable BENCH_engine.json so the
// performance trajectory can be tracked across PRs (and uploaded as a CI
// artifact).
//
// Usage:
//
//	tfmccbench [-seeds n] [-workers m] [-engineworkers w] [-only 1,7,15] [-o BENCH_engine.json]
//	tfmccbench -list
//	tfmccbench -shard 2/3 [-o BENCH_engine.shard-2-of-3.json]
//	tfmccbench -seedshard 2/3 [-o BENCH_engine.seedshard-2-of-3.json]
//	tfmccbench -shard 2/3 -seedshard 1/2 [-o BENCH_engine.shard-2-of-3.seedshard-1-of-2.json]
//	tfmccbench -merge BENCH_engine.shard-*-of-3.json [-o BENCH_engine.json]
//
// The measured plan is the figure registry in enumeration order (paper
// figures plus scenario presets) and the 100-receiver session
// micro-scenario. -list prints it with tags and cost weights; -only
// selects a subset; -shard i/N runs the i-th of N cost-balanced
// partitions and (by default) writes a shard fragment named after the
// split. -seedshard i/N instead runs the WHOLE plan over the i-th
// contiguous sub-range of the seeds — the split that keeps one expensive
// figure (12, 13) from dominating a scenario shard. The two splits
// compose: -shard i/N -seedshard j/M runs one cell of an N-by-M matrix,
// and -merge reassembles all N*M cell fragments. -merge recombines a
// complete fragment set of either kind into the report an unsharded run
// would have produced: with -deterministic (which strips wall-clock,
// rate and allocation fields from any output) the merged file is
// byte-identical to an unsharded run, which CI md5-checks. -summary
// writes a per-fragment wall-clock markdown table (for the CI job
// summary) when merging.
//
// Each scenario is swept across -seeds independent seeds fanned out over
// -workers goroutines; every worker owns a reusable simulation arena, so
// consecutive seeds rewind the cached topology instead of rebuilding it.
// Per scenario the report carries wall time, scheduler events, link-level
// packet counts and Go heap allocations, normalised to aggregate
// events/sec, packets/sec, ns/event and allocs/event. Figures that never
// drive the discrete-event engine are marked "analytic": true instead of
// reporting meaningless zero engine rates. The session scenario
// additionally records setup amortisation: allocations of the first
// (cold, arena-building) run versus a subsequent (warm, rewound) run.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/benchreport"
)

func main() {
	seeds := flag.Int("seeds", 3, "independent seeds per scenario")
	workers := flag.Int("workers", min(4, runtime.NumCPU()), "parallel sweep workers")
	engineWorkers := flag.Int("engineworkers", 0, "run scenario-spec figures on the region-parallel engine with this many goroutines per run (>= 2; 0 or 1 = serial)")
	list := flag.Bool("list", false, "list the bench plan (ids, tags, cost weights) and exit")
	only := flag.String("only", "", "comma-separated scenario ids to run (default: all)")
	session := flag.Bool("session", true, "include the 100-receiver session micro-scenario")
	shard := flag.String("shard", "", "run shard i/N of the plan (e.g. 2/3)")
	seedshard := flag.String("seedshard", "", "run the whole plan over seed sub-range i/N (e.g. 2/3)")
	merge := flag.Bool("merge", false, "merge the fragment files given as arguments instead of measuring")
	det := flag.Bool("deterministic", false, "strip timing-dependent fields so output is byte-comparable across runs")
	check := flag.Bool("check", false, "run the invariant checker during every sweep; exit 1 on violations or failed seeds")
	summary := flag.String("summary", "", "with -merge: append a per-fragment wall-clock markdown table to this file")
	out := flag.String("o", "", "output file ('-' for stdout; default BENCH_engine.json, or the shard fragment name)")
	flag.Parse()

	if *merge {
		runMerge(flag.Args(), *det, *out, *summary)
		return
	}
	if flag.NArg() > 0 {
		fatalf("unexpected arguments %v (fragment files are only valid with -merge)", flag.Args())
	}

	var onlyIDs []string
	if *only != "" && *only != "all" {
		onlyIDs = strings.Split(*only, ",")
	}
	plan, err := benchreport.NewPlan(onlyIDs, *session)
	if err != nil {
		fatalf("%v", err)
	}

	if *list {
		for _, it := range plan {
			fmt.Printf("%-14s cost=%-6.2f %-24s %s\n",
				it.ID, it.Cost, "["+strings.Join(it.Tags, ",")+"]", it.Title)
		}
		return
	}

	items := plan
	opt := benchreport.Options{
		Seeds: *seeds, Workers: *workers, Check: *check,
		EngineWorkers: *engineWorkers,
	}
	var shardSpec, fragName string
	if *shard != "" {
		i, n, err := benchreport.ParseShardSpec(*shard)
		if err != nil {
			fatalf("%v", err)
		}
		items, err = benchreport.Shard(plan, i, n)
		if err != nil {
			fatalf("%v", err)
		}
		shardSpec = fmt.Sprintf("%d/%d", i, n)
		fragName = fmt.Sprintf("shard-%d-of-%d", i, n)
	}
	if *seedshard != "" {
		i, n, err := benchreport.ParseShardSpec(*seedshard)
		if err != nil {
			fatalf("%v", err)
		}
		base, count, err := benchreport.SeedRange(*seeds, i, n)
		if err != nil {
			fatalf("%v", err)
		}
		opt.SeedBase, opt.TotalSeeds, opt.Seeds = base, *seeds, count
		opt.SeedShard = fmt.Sprintf("%d/%d", i, n)
		if fragName != "" {
			fragName += "."
		}
		fragName += fmt.Sprintf("seedshard-%d-of-%d", i, n)
	}
	outPath := *out
	if outPath == "" {
		outPath = "BENCH_engine.json"
		if fragName != "" {
			outPath = "BENCH_engine." + fragName + ".json"
		}
	}

	rep := benchreport.MeasureOpts(items, plan, opt, os.Stderr)
	rep.Shard = shardSpec
	if *det {
		rep = rep.Strip()
	}
	if err := rep.WriteFile(outPath); err != nil {
		fatalf("%v", err)
	}
	if outPath != "-" {
		fmt.Fprintf(os.Stderr, "wrote %s (%d scenarios)\n", outPath, len(rep.Scenarios))
	}
	bad := false
	for _, m := range rep.Scenarios {
		for _, f := range m.Failures {
			fmt.Fprintf(os.Stderr, "%s FAILED: %s\n", m.ID, f)
			bad = true
		}
		for _, v := range m.Violations {
			fmt.Fprintf(os.Stderr, "%s INVARIANT: %s\n", m.ID, v)
			bad = true
		}
	}
	if bad {
		os.Exit(1)
	}
}

// runMerge recombines shard fragments into one report.
func runMerge(paths []string, det bool, out, summary string) {
	if len(paths) == 0 {
		fatalf("-merge needs fragment files as arguments")
	}
	frags := make([]*benchreport.Report, len(paths))
	for i, p := range paths {
		f, err := benchreport.Load(p)
		if err != nil {
			fatalf("%v", err)
		}
		frags[i] = f
	}
	rep, err := benchreport.Merge(frags)
	if err != nil {
		fatalf("%v", err)
	}
	if summary != "" {
		if err := appendSummary(summary, rep); err != nil {
			fatalf("%v", err)
		}
	}
	for _, fr := range rep.Fragments {
		id := fr.Shard
		kind := "shard"
		if id == "" {
			id, kind = fr.SeedShard, "seedshard"
		}
		fmt.Fprintf(os.Stderr, "fragment %s %-5s %3d scenarios %8.1fs wall\n",
			kind, id, fr.Scenarios, float64(fr.WallNS)/1e9)
	}
	if det || rep.Deterministic {
		// Deterministic inputs promise byte-comparability of the output:
		// re-strip so merge bookkeeping (fragment metadata, wall time)
		// cannot leak in and break the identity with an unsharded run.
		rep = rep.Strip()
	}
	if out == "" {
		out = "BENCH_engine.json"
	}
	if err := rep.WriteFile(out); err != nil {
		fatalf("%v", err)
	}
	if out != "-" {
		fmt.Fprintf(os.Stderr, "merged %d fragments into %s (%d scenarios)\n",
			len(paths), out, len(rep.Scenarios))
	}
}

// appendSummary appends the per-fragment wall-clock table (markdown, for
// the CI fan-in job summary) to path.
func appendSummary(path string, rep *benchreport.Report) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(f, "### Bench shard wall-clock\n\n| fragment | scenarios | wall |\n|---|---:|---:|\n")
	for _, fr := range rep.Fragments {
		id := "shard " + fr.Shard
		if fr.Shard == "" {
			id = "seedshard " + fr.SeedShard
		}
		fmt.Fprintf(f, "| %s | %d | %.1fs |\n", id, fr.Scenarios, float64(fr.WallNS)/1e9)
	}
	fmt.Fprintf(f, "| **total** | %d | **%.1fs** |\n\n", len(rep.Scenarios), float64(rep.WallNS)/1e9)
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tfmccbench: "+format+"\n", args...)
	os.Exit(1)
}
