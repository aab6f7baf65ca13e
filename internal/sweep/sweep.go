// Package sweep holds the run options every command shares (Config) and
// the one seed fan-out, RunRaw: it runs independent seeds of a stochastic
// scenario on worker goroutines and returns the per-seed series in seed
// order, recovering a panicking seed as a SeedError. Each simulation
// stays single-threaded by design; the parallelism is entirely across
// seeds, and per-worker state (a simulation arena) is reused from seed to
// seed so repeated runs skip scenario reconstruction.
//
// Callers merge the runs into mean/min/max and confidence-interval bands
// with stats.MergeRuns, which iterates seeds in seed order regardless of
// which worker ran them, so the merged output is bit-for-bit independent
// of the worker count — the property the determinism tests pin down.
// experiments.Sweep is the caller every command goes through.
package sweep

import (
	"flag"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// Config is the run-options value every command and harness shares: the
// seed set, the parallelism across and within runs, and the checker
// switch. Library callers may leave fields zero (Normalized fills the
// defaults); command lines register the flags they offer with
// RegisterFlags and reject nonsense with Validate.
type Config struct {
	Seeds   int     // number of independent seeds; < 1 means 1
	Workers int     // worker goroutines; < 1 means 1, capped at Seeds
	CI      float64 // confidence level for the merged bands; 0 means 0.95
	Base    int64   // first seed
	Step    int64   // seed stride; 0 means 1
	Check   bool    // enable run-level invariant checking on every run

	// EngineWorkers >= 2 runs scenario-spec simulations on the region
	// engine; 0 or 1 runs them on the serial engine. See
	// experiments.RunCtx.SetEngineWorkers. Orthogonal to Workers, which
	// parallelises across seeds.
	EngineWorkers int
}

// MaxSeeds caps a sweep's seed count, the bound scenario's maxPopulation
// puts on a receiver block: a sweep keeps one slot per seed, so a count
// from outside the program past it would exhaust memory before the
// first run.
const MaxSeeds = 1 << 16

// SeedError records one seed whose run panicked. The sweep recovers,
// excludes the seed from the merged bands and carries on — one broken
// seed must not cost the other N-1. Stack is the panicking goroutine's
// trace, so a recovered panic still shows where it happened.
type SeedError struct {
	Seed   int64
	Worker int
	Msg    string
	Stack  string
}

func (e SeedError) Error() string {
	return fmt.Sprintf("seed %d (worker %d) panicked: %s", e.Seed, e.Worker, e.Msg)
}

// RegisterFlags binds the named run-option flags to c's fields on fs; c's
// current values are the defaults. Each command registers the subset it
// offers, so a flag's name, type and help text exist once.
func (c *Config) RegisterFlags(fs *flag.FlagSet, names ...string) {
	for _, name := range names {
		switch name {
		case "seeds":
			fs.IntVar(&c.Seeds, name, c.Seeds, "independent seeds per scenario, swept and merged into bands")
		case "seed":
			fs.Int64Var(&c.Base, name, c.Base, "random seed (first seed of a sweep)")
		case "workers":
			fs.IntVar(&c.Workers, name, c.Workers, "parallel sweep workers (capped at the seed count)")
		case "ci":
			fs.Float64Var(&c.CI, name, c.CI, "confidence level for the merged bands, strictly between 0 and 1")
		case "check":
			fs.BoolVar(&c.Check, name, c.Check, "run the invariant checker alongside every simulation; exit 1 on violations")
		case "engineworkers":
			fs.IntVar(&c.EngineWorkers, name, c.EngineWorkers, "run scenario-spec simulations on the region engine (>= 2) or the serial engine (0 or 1)")
		default:
			panic("sweep: no run-option flag -" + name)
		}
	}
}

// Validate rejects option values that arrived from outside the program
// and cannot mean anything, naming the offending flag. Unlike Normalized
// it does not substitute defaults: a command validates what its user
// typed, then runs exactly that.
func (c Config) Validate() error {
	switch {
	case c.Seeds < 1:
		return fmt.Errorf("-seeds %d: need at least one seed", c.Seeds)
	case c.Seeds > MaxSeeds:
		return fmt.Errorf("-seeds %d: at most %d seeds", c.Seeds, MaxSeeds)
	case c.Workers < 1:
		return fmt.Errorf("-workers %d: need at least one worker", c.Workers)
	case !(c.CI > 0 && c.CI < 1): // also catches NaN
		return fmt.Errorf("-ci %v: confidence level must lie strictly between 0 and 1", c.CI)
	case c.EngineWorkers < 0:
		return fmt.Errorf("-engineworkers %d: must not be negative", c.EngineWorkers)
	}
	return nil
}

// Normalized returns the config with defaults applied.
func (c Config) Normalized() Config {
	if c.Seeds < 1 {
		c.Seeds = 1
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.Workers > c.Seeds {
		c.Workers = c.Seeds
	}
	if c.CI == 0 {
		c.CI = 0.95
	}
	if c.Step == 0 {
		c.Step = 1
	}
	return c
}

// Seed returns the i-th seed of the sweep.
func (c Config) Seed(i int) int64 { return c.Base + int64(i)*c.Step }

// Index returns the sweep index of a seed produced by Seed — the inverse
// mapping callers use to file per-seed results in seed order. The config
// must be normalized (Step != 0).
func (c Config) Index(seed int64) int { return int((seed - c.Base) / c.Step) }

// RunFunc produces one seed's series. worker identifies the executing
// worker (0..Workers-1) so implementations can reuse per-worker arenas; a
// RunFunc must be callable concurrently for distinct worker values.
type RunFunc func(worker int, seed int64) []*stats.Series

// RunRaw executes fn for every seed across the configured workers and
// returns the raw per-seed series in seed order, for the caller to merge
// (stats.MergeRuns) or judge: MergeRuns over the concatenation of
// consecutive ranges' RunRaw outputs is byte-identical to MergeRuns over
// one RunRaw of the whole range.
//
// A seed whose fn panics is recovered: its slot stays nil (MergeRuns
// skips nil runs) and a SeedError is returned. The error list is in seed
// order, independent of worker scheduling. With one worker every seed
// runs inline on the calling goroutine.
func RunRaw(cfg Config, fn RunFunc) ([][]*stats.Series, []SeedError) {
	cfg = cfg.Normalized()
	runs := make([][]*stats.Series, cfg.Seeds)
	fails := make([]*SeedError, cfg.Seeds)
	do := func(worker, i int) {
		seed := cfg.Seed(i)
		defer func() {
			if r := recover(); r != nil {
				runs[i] = nil
				fails[i] = &SeedError{Seed: seed, Worker: worker, Msg: fmt.Sprint(r), Stack: string(debug.Stack())}
			}
		}()
		runs[i] = fn(worker, seed)
	}
	if cfg.Workers == 1 {
		for i := range cfg.Seeds {
			do(0, i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := range cfg.Workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= cfg.Seeds {
						return
					}
					do(w, i)
				}
			}()
		}
		wg.Wait()
	}
	var errs []SeedError
	for _, f := range fails {
		if f != nil {
			errs = append(errs, *f)
		}
	}
	return runs, errs
}
