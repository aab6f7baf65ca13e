package experiments

import (
	"runtime"
	"testing"
)

// TestSessionWarmAllocBudget pins the warm-path pooling win: after the
// cold run builds the arena, a rewound 10-second session run (100
// receivers) must stay within the allocation budget. The budget has
// headroom over the measured ~155 allocs/op so organic drift does not
// flake, while the pre-pooling 768 trips it immediately.
func TestSessionWarmAllocBudget(t *testing.T) {
	ctx := NewRunCtx()
	ctx.SessionThroughput(100, 10) // cold: builds the arena
	avg := testing.AllocsPerRun(3, func() {
		ctx.SessionThroughput(100, 10)
	})
	if avg > 200 {
		t.Fatalf("warm session run allocates %.0f/op, budget 200", avg)
	}
}

// TestFigure7AllocBudget: the 18 simulations of one figure 7 run share
// one slice of 10 000 estimators, reset per simulation, so what the run
// allocates (~60 k objects) is each estimator's recent-loss record growing
// to its 32 entries; an estimator per receiver per simulation costs
// ~205 k. It counts one run directly: testing.AllocsPerRun would add a
// warm-up run, and figure 7 has nothing to warm.
func TestFigure7AllocBudget(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Figure7(1)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n > 70000 {
		t.Fatalf("figure 7 allocates %d objects per run, budget 70000", n)
	}
}
