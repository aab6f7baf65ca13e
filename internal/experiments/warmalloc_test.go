package experiments

import (
	"math/bits"
	"runtime"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestSessionWarmAllocBudget pins the warm-path pooling win: after the
// cold run builds the arena, a rewound 10-second session run (100
// receivers) must stay within the allocation budget. The run keeps
// nothing, and it measures 0 allocs/op; the budget leaves room for a
// handful, while the pre-pooling 768 trips it immediately.
func TestSessionWarmAllocBudget(t *testing.T) {
	ctx := NewRunCtx()
	sessionThroughput(ctx, 100, 10) // cold: builds the arena
	avg := testing.AllocsPerRun(3, func() {
		sessionThroughput(ctx, 100, 10)
	})
	if avg > 16 {
		t.Fatalf("warm session run allocates %.0f/op, budget 16", avg)
	}
}

// TestWarmRunAllocatesOnlyItsResult runs short specs on a warmed RunCtx
// and pins that a rewound run allocates what its Result keeps and little
// else: the scenario, its sites, receivers, joins, flows, TCP agents and
// multicast trees are rebuilt in the storage of the run before, and tfmcc
// data and reports ride packets of their own classes, whose header boxes
// never change type. Each row's budget is kept(res), counted from the
// Result the run returns, plus two objects (a packet and its header box)
// for each packet still in flight when the run ended, which the next
// rewind drops rather than reclaims, plus perRunSlack for the few fixed
// objects a run makes that its Result does not keep (one ticker per
// sampler). Every row allocated thousands per run or more before (data
// and report boxes replacing each other on recycled packets, per-site
// build garbage, recompiled trees, TCP agents).
func TestWarmRunAllocatesOnlyItsResult(t *testing.T) {
	preset := func(id string, d sim.Time) *scenario.Spec {
		spec, err := EntrySpec(id, scenario.Overrides{Duration: d})
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	// Member 3 is the first seed of n = 40 at tc = 10 s.
	member13, err := figure13Members()[3].Spec.Apply(scenario.Overrides{Duration: 15 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name string
		spec *scenario.Spec
	}{
		{"figure 9", preset("9", 20*sim.Second)},
		{"figure 12", preset("12", 10*sim.Second)},
		{"figure 13 n=40 tc=10s", member13},
		{"massleave", preset("massleave", 70*sim.Second)},
		{"flashcrowd", preset("flashcrowd", 30*sim.Second)},
		{"wireless", preset("wireless", 20*sim.Second)},
	} {
		t.Run(row.name, func(t *testing.T) {
			ctx := NewRunCtx()
			job := SpecJob(row.name, row.spec)
			var res *Result
			run := func() {
				var err error
				if res, err = job.run(ctx, 1); err != nil {
					t.Fatal(err)
				}
			}
			run() // cold: builds the arena and every pool
			avg := testing.AllocsPerRun(2, run)
			live := int(ctx.env.Net.LivePackets())
			budget := kept(res) + 2*live + perRunSlack
			t.Logf("%.0f allocs/run, budget %d (Result keeps %d, %d packets in flight)", avg, budget, kept(res), live)
			if avg > float64(budget) {
				t.Fatalf("a warm run allocates %.0f objects, budget %d (its Result keeps %d, %d packets in flight)",
					avg, budget, kept(res), live)
			}
		})
	}
}

// perRunSlack is what a warm run may allocate beyond its Result.
const perRunSlack = 32

// kept bounds the allocations behind what a Result holds: the Result
// itself and the growth of its series and notes slices; per series its
// struct and each growth of its points (at most two per doubling); per
// note its string, its buffer and the arguments boxed to format it.
func kept(res *Result) int {
	growth := func(n int) int { return 2 * bits.Len(uint(n)) }
	n := 1 + growth(len(res.Series)) + growth(len(res.Notes))
	for _, s := range res.Series {
		n += 1 + growth(len(s.Points))
	}
	return n + 6*len(res.Notes)
}

// TestFigure7AllocBudget: each of figure 7's two curves runs its nine
// simulations on one slice of 10 000 estimators, reset per simulation,
// and those estimators record no recent losses (their RTT is fixed), so a
// run allocates only the two slices, each simulation's loss vector and
// Rand, the curves' goroutines and the Result: ~150 objects. A recent-loss
// store per estimator costs ~10 k more, an estimator per receiver per
// simulation ~205 k. It counts one run directly: testing.AllocsPerRun
// would add a warm-up run, and figure 7 has nothing to warm.
func TestFigure7AllocBudget(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Figure7(1)
	runtime.ReadMemStats(&after)
	n := after.Mallocs - before.Mallocs
	t.Logf("figure 7 allocates %d objects per run", n)
	if n > 170 {
		t.Fatalf("figure 7 allocates %d objects per run, budget 170", n)
	}
}
