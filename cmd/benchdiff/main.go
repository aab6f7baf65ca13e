// Command benchdiff is the CI bench gate: it compares a fresh
// BENCH_engine.json against the committed baseline on what the report is
// exact about and fails when an engine (non-analytic) scenario's
// allocs/event regressed by more than the tolerance, or — the two
// reports having swept the same seeds — its event or packet counters
// differ from the baseline at all.
//
// Usage:
//
//	benchdiff -baseline BENCH_engine.json -new BENCH_engine.new.json [-max-regress 0.15]
//	benchdiff ... -history BENCH_history.jsonl [-summary "$GITHUB_STEP_SUMMARY"]
//
// Analytic figures never drive the engine, so they carry no per-event
// rates and are exempt. On sharded (-engineworkers) measurements the
// cross-region conservation identities are re-checked with zero
// tolerance. ns/event is not gated — timing claims are bench/'s paired
// method's job — it only feeds the -history trend. Exit status is 1 when
// any gated quantity failed, 0 otherwise.
//
// -history appends the fresh report's per-scenario ns/event and total
// wall clock as one JSON line to the given file (a run log CI restores
// from cache), then prints a trend over the last five recorded runs —
// as a markdown table to -summary when set (CI passes
// $GITHUB_STEP_SUMMARY), as plain text to stderr otherwise. The entry
// is appended before the gate verdict, so regressing runs still land in
// the history.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/benchreport"
)

func main() {
	basePath := flag.String("baseline", "BENCH_engine.json", "committed baseline report")
	newPath := flag.String("new", "", "freshly measured report to gate")
	tol := flag.Float64("max-regress", 0.15, "maximum allowed relative allocs/event regression (0.15 = 15%)")
	history := flag.String("history", "", "append this run's per-scenario ns/event and wall clock to the JSONL file and print a last-5-run trend")
	summary := flag.String("summary", "", "with -history: write the trend as a markdown table to this file (e.g. $GITHUB_STEP_SUMMARY)")
	flag.Parse()
	if *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -new is required")
		os.Exit(2)
	}

	base, err := benchreport.Load(*basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	fresh, err := benchreport.Load(*newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}

	regs, notes := benchreport.Compare(base, fresh, *tol)
	for _, n := range notes {
		fmt.Fprintf(os.Stderr, "benchdiff: note: %s\n", n)
	}
	if *history != "" {
		if err := recordHistory(*history, *summary, fresh); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: history: %v\n", err)
			os.Exit(2)
		}
	}
	if len(regs) == 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: no counter drift, no broken identity, no allocs/event regression beyond %.0f%% (%d scenarios gated)\n",
			*tol*100, gated(fresh))
		return
	}
	fmt.Fprintf(os.Stderr, "benchdiff: %d gated quantity(ies) failed (allocs/event beyond %.0f%%, or an exact counter or identity):\n", len(regs), *tol*100)
	for _, r := range regs {
		fmt.Fprintf(os.Stderr, "  %s\n", r)
	}
	os.Exit(1)
}

func gated(r *benchreport.Report) int {
	n := 0
	for _, m := range r.Scenarios {
		if !m.Analytic {
			n++
		}
	}
	return n
}
