package experiments

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// registerPanicEntry adds a registry entry whose runner panics on one
// seed, for exercising sweep degradation end to end. It drives no
// engine, so it is analytic: addEntry refuses a runner on an engine
// entry. Registered lazily
// from the test body (never init) so registry-census tests — which run
// earlier, in file order — see only the real entries.
var registerPanicEntry = sync.OnceFunc(func() {
	addEntry(Entry{
		ID:    "panictest",
		Title: "injected panicking runner (test only)",
		Run: func(seed int64) *Result {
			if seed == 2 {
				panic("injected: seed 2 is cursed")
			}
			s := &stats.Series{Name: "v"}
			s.Add(sim.Second, float64(seed))
			return &Result{Figure: "panictest", Series: []*stats.Series{s}}
		},
	})
})

func TestSweepSurvivesPanickingSeed(t *testing.T) {
	registerPanicEntry()
	job, err := FigureJob("panictest")
	if err != nil {
		t.Fatal(err)
	}
	res := Sweep(job, sweep.Config{Seeds: 4, Workers: 2, Base: 1})
	for _, r := range res.Runs {
		if failed := r.Err != nil; failed != (r.Seed == 2) || (failed && !strings.Contains(r.Err.Error(), "cursed")) {
			t.Fatalf("seed %d: error %v, want the panic of seed 2 only", r.Seed, r.Err)
		}
	}
	if len(res.Bands) != 1 {
		t.Fatalf("bands = %d, want 1", len(res.Bands))
	}
	p := res.Bands[0].Points[0]
	// Survivors are seeds 1, 3, 4.
	if p.N != 3 || p.Min != 1 || p.Max != 4 {
		t.Fatalf("failed seed leaked into the merge: %+v", p)
	}
}
