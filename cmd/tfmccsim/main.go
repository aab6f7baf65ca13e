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
//	tfmccsim -scenario 9 -duration 60 -coreloss 0.01   # overridden figure
//	tfmccsim -figure clrfail -check          # run with the invariant checker
//	tfmccsim -scenario wireless -engineworkers 2   # region engine
//	tfmccsim -scenario degrade -seeds 8 -tsv # swept preset, merged bands
//
// -scenario runs any Spec-backed registry entry — the named presets and
// every single-scenario engine figure — through the generic scenario
// executor, with the override flags (-duration, -corebw, -coredelay,
// -coreloss, -corequeue, -edgeloss, -receivers, -fanout, -depth,
// -hops) folded into the declarative spec before the run.
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
// The run options (-seeds, -seed, -workers, -ci, -check, -engineworkers)
// are sweep.Config's, shared with tfmcchyp and described once in
// README.md ("Run options"); a value that cannot mean anything exits 2
// naming the flag, and so does a flag that could not take effect (see
// flagConflict), such as -ci or -workers 2 at one seed. A failed seed
// (with the stack of a panic) or an invariant violation exits 1. With
// -engineworkers >= 2 output is a different (equally valid) trajectory
// than the serial engine's.
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
		scen     = flag.String("scenario", "", "run a Spec-backed entry through the scenario executor (with overrides)")
		scenFile = flag.String("scenario-file", "", "run a JSON spec document through the scenario executor (with overrides)")
		specOut  = flag.String("spec-out", "", "with -scenario: write the spec (overrides applied) as JSON to this file ('-' for stdout) instead of running it")
		all      = flag.Bool("all", false, "run every registry entry (figures and presets)")
		list     = flag.Bool("list", false, "list available figures and presets")
		tsv      = flag.Bool("tsv", false, "print full series as TSV instead of a summary")

		duration  = flag.Float64("duration", 0, "override: simulated seconds")
		corebw    = flag.Float64("corebw", 0, "override: core link bandwidth in Mbit/s")
		coredelay = flag.Float64("coredelay", 0, "override: core link delay in ms")
		coreloss  = flag.Float64("coreloss", -1, "override: core link loss probability")
		corequeue = flag.Int("corequeue", 0, "override: core queue limit in packets")
		edgeloss  = flag.Float64("edgeloss", -1, "override: loss probability on each site's last (edge) hop, towards the receiver")
		receivers = flag.Int("receivers", 0, "override: receiver population size")
		fanout    = flag.Int("fanout", 0, "override: tree fan-out")
		depth     = flag.Int("depth", 0, "override: tree depth")
		hops      = flag.Int("hops", 0, "override: chain length")
	)
	cfg := sweep.Config{Seeds: 1, Workers: runtime.NumCPU(), CI: 0.95, Base: 1}
	cfg.RegisterFlags(flag.CommandLine, "seed", "seeds", "workers", "ci", "check", "engineworkers")
	flag.Parse()
	err := cfg.Validate()
	if err == nil {
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		err = flagConflict(set, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// The two flags converted to integer sim.Time must be finite and fit
	// in it before the conversion (which would saturate); every other
	// range check is Spec.Apply's.
	for _, f := range []struct {
		name    string
		v, unit float64
	}{{"-duration", *duration, float64(sim.Second)}, {"-coredelay", *coredelay, float64(sim.Millisecond)}} {
		if limit := float64(sim.MaxTime) / f.unit; math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			fail(fmt.Errorf("%s %v: not a finite number", f.name, f.v))
		} else if math.Abs(f.v) >= limit {
			fail(fmt.Errorf("%s %v: out of range (magnitude must be below %.4g)", f.name, f.v, limit))
		}
	}
	ov := scenario.Overrides{
		Duration:  sim.FromSeconds(*duration),
		CoreBW:    *corebw * 125000,
		CoreDelay: sim.FromMillis(*coredelay),
		CoreLoss:  *coreloss,
		CoreQueue: *corequeue,
		EdgeLoss:  *edgeloss,
		Receivers: *receivers,
		Fanout:    *fanout,
		Depth:     *depth,
		Hops:      *hops,
	}
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
			fmt.Printf("%-10s %-26s %s\n", e.ID, "["+strings.Join(e.Tags, ",")+"]", e.Title)
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
// run it exports) or with -seeds (it runs nothing), an override without
// the scenario executor to apply it, or -ci or more than one -workers
// at one seed, which merges no bands and fans out nothing. The error
// names the offending flag.
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
	if set["spec-out"] && cfg.Seeds > 1 {
		return fmt.Errorf("-seeds %d: -spec-out writes the spec and runs nothing", cfg.Seeds)
	}
	if cfg.Seeds == 1 && set["ci"] {
		return fmt.Errorf("-ci: a single-seed run prints no bands; give -seeds > 1")
	}
	if cfg.Seeds == 1 && set["workers"] && cfg.Workers > 1 {
		return fmt.Errorf("-workers %d: a single-seed run uses one worker; give -seeds > 1", cfg.Workers)
	}
	if set["scenario"] || set["scenario-file"] {
		return nil
	}
	var overrides []string
	for _, o := range []string{"duration", "corebw", "coredelay", "coreloss", "corequeue", "edgeloss",
		"receivers", "fanout", "depth", "hops"} {
		if set[o] {
			overrides = append(overrides, "-"+o)
		}
	}
	if len(overrides) > 0 {
		return fmt.Errorf("%s: overrides apply to -scenario or -scenario-file runs only", strings.Join(overrides, ", "))
	}
	return nil
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

// writeSpec exports a registry entry's scenario spec (overrides applied)
// as a JSON document -scenario-file can run.
func writeSpec(id string, ov scenario.Overrides, path string) {
	e, ok := experiments.Lookup(id)
	if !ok || e.Spec == nil {
		fmt.Fprintf(os.Stderr, "%q is not a Spec-backed entry (have %v)\n", id, experiments.ScenarioIDs())
		os.Exit(1)
	}
	spec, err := e.Spec().Apply(ov)
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
