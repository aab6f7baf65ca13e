// Command tfmccbench measures the simulation engine across the paper's
// figure scenarios and emits a machine-readable BENCH_engine.json so the
// performance trajectory can be tracked across PRs (and uploaded as a CI
// artifact).
//
// Usage:
//
//	tfmccbench [-seeds n] [-workers m] [-engineworkers w] [-check] [-only 1,7,15] [-o BENCH_engine.json]
//	tfmccbench -list
//
// The measured plan is the figure registry in enumeration order (paper
// figures plus scenario presets) and the 100-receiver session
// micro-scenario. -list prints it with tags; -only selects a subset.
// One process measures the whole plan (about half a minute at 4 seeds on
// two workers) and writes one report. -deterministic strips wall-clock,
// rate, allocation and diagnostic fields, leaving a file that is
// byte-identical for the same plan and seeds whatever -workers was —
// which CI checks with cmp.
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
	"repro/internal/sweep"
)

func main() {
	cfg := sweep.Config{Seeds: 3, Workers: min(4, runtime.NumCPU()), CI: 0.95, Base: 1}
	cfg.RegisterFlags(flag.CommandLine, "seeds", "workers", "check", "engineworkers")
	list := flag.Bool("list", false, "list the bench plan (ids, tags) and exit")
	only := flag.String("only", "", "comma-separated scenario ids to run (default: all)")
	session := flag.Bool("session", true, "include the 100-receiver session micro-scenario")
	det := flag.Bool("deterministic", false, "strip timing-dependent fields so output is byte-comparable across runs")
	out := flag.String("o", "BENCH_engine.json", "output file ('-' for stdout)")
	flag.Parse()
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "tfmccbench: %v\n", err)
		os.Exit(2)
	}
	if flag.NArg() > 0 {
		fatalf("unexpected arguments %v", flag.Args())
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
			fmt.Printf("%-14s %-24s %s\n", it.ID, "["+strings.Join(it.Tags, ",")+"]", it.Title)
		}
		return
	}

	rep := benchreport.Measure(plan, cfg, os.Stderr)
	wall := float64(rep.WallNS) / 1e9
	if *det {
		rep = rep.Strip()
	}
	if err := rep.WriteFile(*out); err != nil {
		fatalf("%v", err)
	}
	if *out != "-" {
		fmt.Fprintf(os.Stderr, "wrote %s (%d scenarios in %.1fs)\n", *out, len(rep.Scenarios), wall)
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

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tfmccbench: "+format+"\n", args...)
	os.Exit(1)
}
