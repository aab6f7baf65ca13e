// Command tfmcchyp runs hypothesis suites: predictions about protocol
// behaviour under faults, judged against actual simulation runs.
//
// Usage:
//
//	tfmcchyp -suite                  # run the committed suite, exit 1 on any failure
//	tfmcchyp -list                   # list the committed suite
//	tfmcchyp -run clrfail-reelection # run one suite hypothesis by id
//	tfmcchyp -run path/to/hyp.json   # run a hypothesis document
//	tfmcchyp -suite -json            # machine-readable verdicts
//	tfmcchyp -suite -summary out.md  # append a markdown verdict table (CI job summary)
//	tfmcchyp -run chaos-deeptree-l1 -engineworkers 2 # judge on the region engine
//
// Each hypothesis names a workload (a registry scenario or an inline
// spec, optionally perturbed by a seeded chaos fault schedule), a seed
// set and typed expectations; the judge executes the workload with the
// invariant checker armed and reports pass/fail per expectation with
// the measured value against its bound. Everything is
// deterministic: a failing suite reproduces exactly under the same
// binary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/hypothesis"
	"repro/internal/sweep"
)

func main() {
	suite := flag.Bool("suite", false, "run every committed-suite hypothesis")
	list := flag.Bool("list", false, "list the committed suite and chaos levels")
	run := flag.String("run", "", "run one hypothesis by suite id or JSON document path")
	cfg := sweep.Config{Seeds: 1, Workers: min(4, runtime.NumCPU()), CI: 0.95, Base: 1}
	cfg.RegisterFlags(flag.CommandLine, "workers", "engineworkers")
	asJSON := flag.Bool("json", false, "emit verdicts as JSON instead of text reports")
	summary := flag.String("summary", "", "append a markdown verdict table to this file")
	flag.Parse()
	err := cfg.Validate()
	if err == nil {
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		err = flagConflict(set)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	switch {
	case *list:
		for _, h := range hypothesis.Suite() {
			fmt.Printf("%-24s seeds=%d  %s\n", h.ID, h.Seeds.Count, h.Title)
		}
		fmt.Println("\nchaos levels:")
		levels := hypothesis.Levels()
		for lvl := 1; ; lvl++ {
			desc, ok := levels[lvl]
			if !ok {
				break
			}
			fmt.Printf("  %d: %s\n", lvl, desc)
		}
	case *run != "":
		h, ok := hypothesis.ByID(*run)
		if !ok {
			var err error
			h, err = hypothesis.Load(*run)
			if err != nil {
				fatalf("%q is neither a suite id (have %s) nor a loadable file: %v",
					*run, strings.Join(hypothesis.SuiteIDs(), ", "), err)
			}
		}
		verdicts := judge([]*hypothesis.Hypothesis{h}, cfg, *asJSON)
		finish(verdicts, *summary, *asJSON)
	case *suite:
		verdicts := judge(hypothesis.Suite(), cfg, *asJSON)
		finish(verdicts, *summary, *asJSON)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// flagConflict rejects flag combinations in which a flag given on the
// command line (set, as flag.Visit reports them) would be silently
// ignored: two selectors at once (-list -suite would list and judge
// nothing, so a gate written that way would pass vacuously), or -json or
// -summary with -list, which prints text and has no verdicts. The error
// names the offending flag.
func flagConflict(set map[string]bool) error {
	var selectors []string
	for _, s := range []string{"suite", "list", "run"} {
		if set[s] {
			selectors = append(selectors, "-"+s)
		}
	}
	if len(selectors) > 1 {
		return fmt.Errorf("%s: give one of them; each selects what to do", strings.Join(selectors, " and "))
	}
	for _, f := range []string{"json", "summary"} {
		if set["list"] && set[f] {
			return fmt.Errorf("-%s: -list prints the suite as text and judges nothing", f)
		}
	}
	return nil
}

func judge(hs []*hypothesis.Hypothesis, cfg sweep.Config, asJSON bool) []*hypothesis.Verdict {
	var out []*hypothesis.Verdict
	for _, h := range hs {
		v, err := hypothesis.Run(h, cfg)
		if err != nil {
			fatalf("%s: %v", h.ID, err)
		}
		if !asJSON {
			fmt.Print(v.Report())
		}
		out = append(out, v)
	}
	return out
}

// finish emits the verdicts (one JSON array in -json mode, so stdout is
// a single machine-readable document), writes the optional markdown
// summary and exits 1 when any hypothesis failed.
func finish(verdicts []*hypothesis.Verdict, summary string, asJSON bool) {
	if asJSON {
		enc, err := json.MarshalIndent(verdicts, "", "  ")
		if err != nil {
			fatalf("encode verdicts: %v", err)
		}
		fmt.Println(string(enc))
	}
	failed := 0
	for _, v := range verdicts {
		if !v.Pass {
			failed++
		}
	}
	if summary != "" {
		if err := appendSummary(summary, verdicts); err != nil {
			fatalf("summary: %v", err)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d/%d hypotheses FAILED\n", failed, len(verdicts))
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "%d/%d hypotheses passed\n", len(verdicts), len(verdicts))
}

func appendSummary(path string, verdicts []*hypothesis.Verdict) error {
	var b strings.Builder
	b.WriteString("### Hypothesis suite\n\n")
	b.WriteString("| hypothesis | workload | seeds | verdict |\n")
	b.WriteString("|---|---|---|---|\n")
	for _, v := range verdicts {
		verdict := "pass"
		if !v.Pass {
			verdict = "**FAIL**"
		}
		fmt.Fprintf(&b, "| %s | %s | %d..%d | %s |\n",
			v.ID, v.Workload, v.SeedBase, v.SeedBase+int64(v.SeedCount)-1, verdict)
	}
	b.WriteString("\n")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.WriteString(b.String())
	return err
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
