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
//	tfmccsim -list                           # list available figures
//	tfmccsim -scenario flashcrowd            # run a scenario preset
//	tfmccsim -scenario 9 -duration 60 -coreloss 0.01   # overridden figure
//	tfmccsim -figure clrfail -check          # run with the invariant checker
//	tfmccsim -scenario wireless -engineworkers 2   # region engine
//
// -scenario runs any Spec-backed registry entry — the named presets and
// every single-scenario engine figure — through the generic scenario
// executor, with the override flags (-duration, -corebw, -coredelay,
// -coreloss, -corequeue, -edgeloss, -receivers, -cohort, -fanout,
// -depth, -hops) folded into the declarative spec before the run.
//
// With -seeds > 1 the figure is replicated across that many independent
// seeds and the output carries mean/CI/min/max band columns instead of a
// single trajectory: TSV becomes the long-format table
//
//	series  x  mean  ci_lo  ci_hi  min  max  n
//
// The run options (-seeds, -seed, -workers, -ci, -check, -engineworkers)
// are sweep.Config's, shared with tfmcchyp and described once in
// README.md ("Run options"); a value that cannot mean anything exits 2
// naming the flag, and so does a flag that could not take effect (see
// flagConflict). With -engineworkers >= 2 output is a different
// (equally valid) trajectory than the serial engine's.
package main

import (
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
		all      = flag.Bool("all", false, "run every figure")
		list     = flag.Bool("list", false, "list available figures and presets")
		tsv      = flag.Bool("tsv", false, "print full series as TSV instead of a summary")

		duration  = flag.Float64("duration", 0, "override: simulated seconds")
		corebw    = flag.Float64("corebw", 0, "override: core link bandwidth in Mbit/s")
		coredelay = flag.Float64("coredelay", 0, "override: core link delay in ms")
		coreloss  = flag.Float64("coreloss", -1, "override: core link loss probability")
		corequeue = flag.Int("corequeue", 0, "override: core queue limit in packets")
		edgeloss  = flag.Float64("edgeloss", -1, "override: loss probability on each site's last (edge) hop, towards the receiver")
		receivers = flag.Int("receivers", 0, "override: receiver population size")
		cohort    = flag.Int("cohort", 0, "override: replace the declared receivers with one analytic cohort of this many members")
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
		err = flagConflict(set, cfg.Seeds)
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
		Cohort:    *cohort,
		Fanout:    *fanout,
		Depth:     *depth,
		Hops:      *hops,
	}
	// once runs one single-seed simulation on a fresh context and prints
	// it, exiting 1 on an error or an invariant violation.
	once := func(run func(*experiments.RunCtx) (*experiments.Result, error)) {
		ctx := experiments.NewRunCtxFor(cfg)
		res, err := run(ctx)
		if err != nil {
			fail(err)
		}
		emit(res, *tsv)
		var violations []string
		for _, v := range ctx.Violations() {
			violations = append(violations, v.String())
		}
		reportViolations(violations, nil)
	}
	figureRun := func(id string) {
		if cfg.Seeds > 1 {
			res, err := experiments.Sweep(id, cfg)
			if err != nil {
				fail(err)
			}
			emit(res, *tsv)
			reportViolations(res.Violations, res.Failures)
			return
		}
		once(func(ctx *experiments.RunCtx) (*experiments.Result, error) {
			return experiments.RunWith(ctx, id, cfg.Base)
		})
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
		once(func(ctx *experiments.RunCtx) (*experiments.Result, error) {
			return experiments.RunSpecKeyed(ctx, "file-"+*scenFile, spec, cfg.Base)
		})
	case *scen != "" && *specOut != "":
		writeSpec(*scen, ov, *specOut)
	case *scen != "":
		once(func(ctx *experiments.RunCtx) (*experiments.Result, error) {
			return experiments.RunOverridden(ctx, *scen, ov, cfg.Base)
		})
	case *all:
		for _, id := range experiments.Figures() {
			figureRun(id)
		}
	case *figure != "":
		figureRun(*figure)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// flagConflict rejects flag combinations in which a flag given on the
// command line (set, as flag.Visit reports them) would be silently
// ignored: two selectors at once, -spec-out without -scenario (the only
// run it exports), an override without the scenario executor to apply
// it, or a multi-seed sweep of a -scenario run, which is single-seed.
// The error names the offending flag.
func flagConflict(set map[string]bool, seeds int) error {
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
	if set["scenario"] || set["scenario-file"] {
		if seeds > 1 {
			return fmt.Errorf("-seeds %d: a %s run is single-seed (-seed picks it); sweeps take -figure", seeds, selectors[0])
		}
		if set["ci"] {
			return fmt.Errorf("-ci: a %s run is single-seed and prints no bands; sweeps take -figure", selectors[0])
		}
		return nil
	}
	var overrides []string
	for _, o := range []string{"duration", "corebw", "coredelay", "coreloss", "corequeue", "edgeloss",
		"receivers", "cohort", "fanout", "depth", "hops"} {
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

// reportViolations surfaces invariant violations and failed (panicked)
// sweep seeds on stderr and exits nonzero, so -check runs gate CI.
func reportViolations(violations, failures []string) {
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "FAILED: %s\n", f)
	}
	for _, v := range violations {
		fmt.Fprintf(os.Stderr, "INVARIANT: %s\n", v)
	}
	if len(violations) > 0 || len(failures) > 0 {
		os.Exit(1)
	}
}
