// Command tfmccsim regenerates the figures of the TFMCC paper
// (Widmer & Handley, SIGCOMM 2001) from the Go reproduction and runs
// declarative scenarios from the preset registry.
//
// Usage:
//
//	tfmccsim -figure 9                       # run one figure, print summary
//	tfmccsim -figure 9 -tsv                  # dump the series as TSV
//	tfmccsim -figure 9 -seeds 8 -workers 4   # 8-seed sweep, merged bands
//	tfmccsim -all                            # run every figure
//	tfmccsim -all -tsv                       # every block headed "# <id>\t<title>"
//	tfmccsim -list                           # list available figures
//	tfmccsim -scenario flashcrowd            # run a scenario preset
//	tfmccsim -scenario 9 -duration 60        # figure 9's spec, run for 60 s
//	tfmccsim -scenario 9 -spec-out f9.json   # export the spec to edit
//	tfmccsim -scenario-file f9.json          # run the edited document
//	tfmccsim -figure clrfail -check          # run with the invariant checker
//	tfmccsim -scenario degrade -seeds 8 -tsv # swept preset, merged bands
//
// -scenario runs any Spec-backed registry entry — the named presets and
// every single-scenario engine figure — through the generic scenario
// executor; -duration, the one override, replaces the spec's length.
// Any other variation (a link's bandwidth or loss, a topology's shape, a
// population's size) is an edit to the document -spec-out exports, run
// with -scenario-file, which checks it like any other document.
//
// Every selector (-figure, -all, -scenario, -scenario-file) builds an
// experiments.Job and runs it through experiments.Sweep. At one seed the
// run's own series are printed; with -seeds > 1 the job is replicated
// across that many independent seeds and the output carries
// mean/CI/min/max band columns instead of a single trajectory: TSV
// becomes the long-format table
//
//	series  x  mean  ci_lo  ci_hi  min  max  n
//
// The run options (-seeds, -seed, -workers, -ci, -check) are
// sweep.Config's, shared with tfmcchyp and described once in
// README.md ("Run options"); a value that cannot mean anything exits 2
// naming the flag, and so does a flag that could not take effect (see
// flagConflict), such as -ci or -workers 2 at one seed. A failed seed
// (with the stack of a panic) or an invariant violation exits 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sweep"
)

func main() {
	var (
		figure   = flag.String("figure", "", "figure or preset id to reproduce (e.g. 9, flashcrowd)")
		scen     = flag.String("scenario", "", "run a Spec-backed entry through the scenario executor (-duration may override its length)")
		scenFile = flag.String("scenario-file", "", "run a JSON spec document, such as an edited -spec-out export, through the scenario executor")
		specOut  = flag.String("spec-out", "", "with -scenario: write the spec (-duration applied) as JSON to this file ('-' for stdout) instead of running it; edit it to vary the scenario, run it with -scenario-file")
		all      = flag.Bool("all", false, "run every registry entry (figures and presets)")
		list     = flag.Bool("list", false, "list available figures and presets")
		tsv      = flag.Bool("tsv", false, "print full series as TSV instead of a summary")
		duration = flag.Float64("duration", 0, "override: simulated seconds")
	)
	cfg := sweep.Config{Seeds: 1, Workers: runtime.NumCPU(), CI: 0.95, Base: 1}
	cfg.RegisterFlags(flag.CommandLine, "seed", "seeds", "workers", "ci", "check")
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	err := cfg.Validate()
	if err == nil {
		err = flagConflict(set, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	d, err := durationOverride(set["duration"], *duration)
	if err != nil {
		fail(err)
	}
	ov := scenario.Overrides{Duration: d}
	// run sweeps and reports a job, or exits 1 on the error building it.
	run := func(job experiments.Job, err error) {
		if err != nil {
			fail(err)
		}
		report(experiments.Sweep(job, cfg), *tsv)
	}

	switch {
	case *list:
		for _, e := range experiments.Entries() {
			kind := "[engine]"
			if e.Analytic() {
				kind = "[analytic]"
			}
			fmt.Printf("%-10s %-10s %s\n", e.ID, kind, e.Title)
		}
	case *scenFile != "":
		spec, err := scenario.LoadSpec(*scenFile)
		if err == nil {
			spec, err = spec.Apply(ov)
		}
		if err != nil {
			fail(err)
		}
		run(experiments.SpecJob("file-"+*scenFile, spec), nil)
	case *scen != "" && *specOut != "":
		writeSpec(*scen, ov, *specOut)
	case *scen != "":
		run(experiments.ScenarioJob(*scen, ov))
	case *all:
		for _, e := range experiments.Entries() {
			if *tsv {
				// Name each entry's block, so a reader (or a diff) need
				// not count blocks in registry order.
				fmt.Printf("# %s\t%s\n", e.ID, e.Title)
			}
			run(experiments.FigureJob(e.ID))
		}
	case *figure != "":
		run(experiments.FigureJob(*figure))
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// flagConflict rejects flag combinations in which a flag given on the
// command line (set, as flag.Visit reports them) would be silently
// ignored: two selectors at once, -spec-out without -scenario (the only
// run it exports), a run option (-tsv, -seed, -check, -seeds above 1)
// with -list or -spec-out, which run nothing, -duration without the
// scenario executor to apply it, or -ci or more than one -workers at one
// seed, which merges no bands and fans out nothing. The error names the
// offending flag.
func flagConflict(set map[string]bool, cfg sweep.Config) error {
	var selectors []string
	for _, s := range []string{"figure", "all", "scenario", "scenario-file", "list"} {
		if set[s] {
			selectors = append(selectors, "-"+s)
		}
	}
	if len(selectors) > 1 {
		return fmt.Errorf("%s: give one of them; each selects what to run", strings.Join(selectors, " and "))
	}
	if set["spec-out"] && !set["scenario"] {
		return fmt.Errorf("-spec-out: exports the spec of a -scenario entry only")
	}
	for _, sel := range []string{"list", "spec-out"} {
		if !set[sel] {
			continue
		}
		for _, f := range []string{"tsv", "seed", "check"} {
			if set[f] {
				return fmt.Errorf("-%s: -%s runs nothing", f, sel)
			}
		}
		if cfg.Seeds > 1 {
			return fmt.Errorf("-seeds %d: -%s runs nothing", cfg.Seeds, sel)
		}
	}
	if cfg.Seeds == 1 && set["ci"] {
		return fmt.Errorf("-ci: a single-seed run prints no bands; give -seeds > 1")
	}
	if cfg.Seeds == 1 && set["workers"] && cfg.Workers > 1 {
		return fmt.Errorf("-workers %d: a single-seed run uses one worker; give -seeds > 1", cfg.Workers)
	}
	if set["duration"] && !set["scenario"] && !set["scenario-file"] {
		return fmt.Errorf("-duration: overrides apply to -scenario or -scenario-file runs only")
	}
	return nil
}

// durationOverride converts -duration seconds to sim.Time. The value must
// be finite and fit in sim.Time before the conversion (which would
// saturate), and a given one must come out at 1 ns or more: 0 is what an
// absent flag reads as, "keep the spec's length".
func durationOverride(given bool, sec float64) (sim.Time, error) {
	limit := float64(sim.MaxTime) / float64(sim.Second)
	switch d := sim.FromSeconds(sec); {
	case math.IsNaN(sec) || math.IsInf(sec, 0):
		return 0, fmt.Errorf("-duration %v: not a finite number", sec)
	case math.Abs(sec) >= limit:
		return 0, fmt.Errorf("-duration %v: out of range (magnitude must be below %.4g)", sec, limit)
	case given && d <= 0:
		return 0, fmt.Errorf("-duration %v: not a run length (give at least 1e-9 seconds)", sec)
	default:
		return d, nil
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// emit prints a single run's or a sweep's result in the selected form.
func emit(res interface {
	TSV() string
	Summary() string
}, tsv bool) {
	if tsv {
		fmt.Print(res.TSV())
	} else {
		fmt.Print(res.Summary())
	}
}

// writeSpec exports a registry entry's scenario spec (-duration applied)
// as a JSON document -scenario-file can run.
func writeSpec(id string, ov scenario.Overrides, path string) {
	spec, err := experiments.EntrySpec(id, ov)
	if err == nil {
		var enc []byte
		if enc, err = spec.Encode(); err == nil {
			if path == "-" {
				_, err = os.Stdout.Write(enc)
			} else {
				err = os.WriteFile(path, enc, 0o644)
			}
		}
	}
	if err != nil {
		fail(err)
	}
}

// report prints a sweep: at one seed the run itself, at more the merged
// bands. A run that failed to build at one seed exits 1 with the error
// alone. Each seed's failure, with the stack of a panic, and invariant
// violations go to stderr and exit 1, so -check runs gate CI.
func report(res *experiments.SweepResult, tsv bool) {
	var p sweep.SeedError
	if len(res.Runs) > 1 {
		emit(res, tsv)
	} else if r := res.Runs[0]; r.Result != nil {
		emit(r.Result, tsv)
	} else if !errors.As(r.Err, &p) {
		fail(r.Err)
	}
	bad := false
	for _, r := range res.Runs {
		if errors.As(r.Err, &p) {
			fmt.Fprintf(os.Stderr, "FAILED: %s\n%s", p, p.Stack)
		} else if r.Err != nil {
			fmt.Fprintf(os.Stderr, "FAILED: seed %d: %v\n", r.Seed, r.Err)
		}
		for _, v := range r.Violations {
			fmt.Fprintf(os.Stderr, "INVARIANT: %s\n", v)
		}
		if r.Dropped > 0 {
			fmt.Fprintf(os.Stderr, "INVARIANT: seed %d: %d more dropped\n", r.Seed, r.Dropped)
		}
		bad = bad || r.Err != nil || len(r.Violations) > 0
	}
	if bad {
		os.Exit(1)
	}
}
