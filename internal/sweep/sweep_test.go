package sweep

import (
	"flag"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// synthRun is a deterministic per-seed pseudo-scenario: two series whose
// values depend only on the seed.
func synthRun(_ int, seed int64) []*stats.Series {
	a := &stats.Series{Name: "a"}
	b := &stats.Series{Name: "b"}
	for i := 0; i < 5; i++ {
		a.Add(sim.Time(i)*sim.Second, float64(seed*10+int64(i)))
		b.Add(sim.Time(i)*sim.Second, math.Sin(float64(seed)+float64(i)))
	}
	return []*stats.Series{a, b}
}

// merged runs cfg through RunRaw and merges the runs into bands, the way
// experiments.Sweep does.
func merged(cfg Config, fn RunFunc) ([]*stats.Band, []SeedError) {
	runs, errs := RunRaw(cfg, fn)
	return stats.MergeRuns(runs, cfg.Normalized().CI), errs
}

func bandsTSV(bands []*stats.Band) string {
	out := ""
	for _, b := range bands {
		out += b.Name + "\n" + b.TSV()
	}
	return out
}

// TestWorkerCountInvariance: the merged output must be byte-identical for
// any worker count.
func TestWorkerCountInvariance(t *testing.T) {
	base, _ := merged(Config{Seeds: 7, Workers: 1, Base: 3, Step: 2}, synthRun)
	for _, w := range []int{2, 3, 7, 16} {
		got, _ := merged(Config{Seeds: 7, Workers: w, Base: 3, Step: 2}, synthRun)
		if bandsTSV(got) != bandsTSV(base) {
			t.Fatalf("workers=%d merged output differs from workers=1", w)
		}
	}
}

func TestSeedAssignment(t *testing.T) {
	var mu sync.Mutex
	seen := map[int64]int{}
	RunRaw(Config{Seeds: 9, Workers: 4, Base: 100, Step: 10}, func(w int, seed int64) []*stats.Series {
		mu.Lock()
		seen[seed]++
		mu.Unlock()
		return nil
	})
	if len(seen) != 9 {
		t.Fatalf("ran %d distinct seeds, want 9", len(seen))
	}
	for i := 0; i < 9; i++ {
		seed := int64(100 + 10*i)
		if seen[seed] != 1 {
			t.Fatalf("seed %d ran %d times", seed, seen[seed])
		}
	}
}

func TestWorkerIndexesDistinct(t *testing.T) {
	var mu sync.Mutex
	workers := map[int]bool{}
	RunRaw(Config{Seeds: 32, Workers: 4}, func(w int, seed int64) []*stats.Series {
		mu.Lock()
		workers[w] = true
		mu.Unlock()
		return nil
	})
	for w := range workers {
		if w < 0 || w >= 4 {
			t.Fatalf("worker index %d out of range", w)
		}
	}
}

func TestNormalizedDefaults(t *testing.T) {
	c := Config{}.Normalized()
	if c.Seeds != 1 || c.Workers != 1 || c.CI != 0.95 || c.Step != 1 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	c = Config{Seeds: 2, Workers: 8}.Normalized()
	if c.Workers != 2 {
		t.Fatalf("workers not capped at seeds: %+v", c)
	}
	if got := (Config{Base: 5, Step: 3}).Normalized().Seed(2); got != 11 {
		t.Fatalf("Seed(2) = %d, want 11", got)
	}
}

// TestFlagsAndValidate: the flags a command registers land in the Config
// they were registered from, and values that cannot mean anything are
// errors naming the flag — not silently clamped the way Normalized
// treats zero-valued library configs.
func TestFlagsAndValidate(t *testing.T) {
	parse := func(args ...string) (Config, error) {
		c := Config{Seeds: 1, Workers: 2, CI: 0.95, Base: 1}
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		c.RegisterFlags(fs, "seeds", "seed", "workers", "ci", "check")
		if err := fs.Parse(args); err != nil {
			return c, err
		}
		return c, c.Validate()
	}
	c, err := parse("-seeds", "8", "-seed", "5", "-workers", "3", "-ci", "0.9", "-check")
	want := Config{Seeds: 8, Workers: 3, CI: 0.9, Base: 5, Check: true}
	if err != nil || c != want {
		t.Fatalf("parsed %+v (%v), want %+v", c, err, want)
	}
	if _, err := parse(); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	for _, bad := range [][2]string{
		{"-seeds", "0"}, {"-seeds", "65537"}, {"-seeds", "1000000000"}, {"-workers", "-1"},
		{"-ci", "0"}, {"-ci", "1"}, {"-ci", "1.5"}, {"-ci", "-0.5"}, {"-ci", "NaN"},
	} {
		if _, err := parse(bad[0], bad[1]); err == nil || !strings.HasPrefix(err.Error(), bad[0]+" ") {
			t.Errorf("%s %s: want an error naming the flag, got %v", bad[0], bad[1], err)
		}
	}
	// A command that does not offer a flag does not register it.
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	(&Config{}).RegisterFlags(fs, "workers")
	if fs.Lookup("seeds") != nil || fs.Lookup("workers") == nil {
		t.Fatal("RegisterFlags registered something other than the named flags")
	}
}

func TestMergedBandContents(t *testing.T) {
	bands, _ := merged(Config{Seeds: 3, Workers: 2, Base: 0}, synthRun)
	if len(bands) != 2 || bands[0].Name != "a" || bands[1].Name != "b" {
		t.Fatalf("bands wrong: %+v", bands)
	}
	// Series "a" at x=0 over seeds 0,1,2 is 0,10,20.
	p := bands[0].Points[0]
	if p.Mean != 10 || p.Min != 0 || p.Max != 20 || p.N != 3 {
		t.Fatalf("merged point = %+v", p)
	}
}

func TestRunManyWorkersRace(t *testing.T) {
	// Exercised under -race in CI: concurrent workers writing distinct
	// result slots must not conflict.
	bands, _ := merged(Config{Seeds: 64, Workers: 16}, func(w int, seed int64) []*stats.Series {
		s := &stats.Series{Name: fmt.Sprintf("only-%d", seed%4)}
		s.Add(0, float64(seed))
		return []*stats.Series{s}
	})
	total := 0
	for _, b := range bands {
		for _, p := range b.Points {
			total += p.N
		}
	}
	if total != 64 {
		t.Fatalf("merged %d contributions, want 64", total)
	}
}

func TestPanickingSeedIsRecoveredAndExcluded(t *testing.T) {
	// One seed in the middle panics: the sweep must finish, report that
	// seed and merge the survivors as if the seed were never requested.
	mk := func(seed int64) []*stats.Series {
		s := &stats.Series{Name: "a"}
		s.Add(0, float64(seed))
		return []*stats.Series{s}
	}
	boom := func(worker int, seed int64) []*stats.Series {
		if seed == 3 {
			panic(fmt.Sprintf("injected failure for seed %d", seed))
		}
		return mk(seed)
	}
	for _, workers := range []int{1, 4} {
		bands, errs := merged(Config{Seeds: 5, Workers: workers, Base: 1}, boom)
		if len(errs) != 1 {
			t.Fatalf("workers=%d: errors = %v, want exactly one", workers, errs)
		}
		e := errs[0]
		if e.Seed != 3 || e.Msg != "injected failure for seed 3" {
			t.Fatalf("workers=%d: wrong seed error: %+v", workers, e)
		}
		// The stack is the panicking goroutine's, down to the panic site.
		if !strings.Contains(e.Stack, "panic(") || !strings.Contains(e.Stack, "TestPanickingSeedIsRecoveredAndExcluded") {
			t.Fatalf("workers=%d: stack does not show the panic site:\n%s", workers, e.Stack)
		}
		if len(bands) != 1 {
			t.Fatalf("workers=%d: bands = %d, want 1", workers, len(bands))
		}
		p := bands[0].Points[0]
		// Survivors are seeds 1,2,4,5: mean 3, min 1, max 5, n 4.
		if p.N != 4 || p.Mean != 3 || p.Min != 1 || p.Max != 5 {
			t.Fatalf("workers=%d: failed seed leaked into merge: %+v", workers, p)
		}
	}
}

func TestAllSeedsPanicStillTerminates(t *testing.T) {
	bands, errs := merged(Config{Seeds: 3, Workers: 2}, func(w int, seed int64) []*stats.Series {
		panic("total failure")
	})
	if len(errs) != 3 {
		t.Fatalf("errors = %d, want 3", len(errs))
	}
	if len(bands) != 0 {
		t.Fatalf("bands from failed seeds: %v", bands)
	}
}
