package experiments

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// runSliced runs entry id's spec, cut to dur, on ctx for seed — in
// 100 ms RunUntil slices under a stop predicate that never holds when
// sliced, in one call otherwise — and renders the run's series digest and
// event and packet counters.
func runSliced(t *testing.T, ctx *RunCtx, id string, seed int64, dur sim.Time, sliced bool) string {
	t.Helper()
	e, ok := Lookup(id)
	if !ok || e.Spec == nil {
		t.Fatalf("%s: no Spec-backed registry entry", id)
	}
	spec := e.Spec()
	spec.Duration = dur
	var stop func(*scenario.Scenario, sim.Time) bool
	if sliced {
		stop = func(*scenario.Scenario, sim.Time) bool { return false }
	}
	ctx.ResetStats()
	sc, _, err := ctx.run(spec, seed, stop)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	st := ctx.Stats()
	res := &Result{Series: sc.Series()}
	return fmt.Sprintf("%x\t%d\t%d\t%d", sha256.Sum256([]byte(res.TSV())),
		st.Events, st.PacketsSent, st.PacketsDelivered)
}

// TestSlicedRunUntil: driving a run in 100 ms RunUntil slices, as the
// one run path does for a family member with a stop predicate, gives the
// bytes and counters of one RunUntil call to the same instant, on both
// engines. Each slice end
// is a window boundary the one call does not have, so on the region
// engine this pins that no event's place depends on where windows end.
// Every Spec-backed entry runs its first 5 s at seed 1; chainloss also
// runs 30 s at seed 2, past the 24 s at which an engine that parked
// crossing packets until a barrier first diverged.
func TestSlicedRunUntil(t *testing.T) {
	type run struct {
		id   string
		seed int64
		dur  sim.Time
	}
	runs := []run{{"chainloss", 2, 30 * sim.Second}}
	for _, e := range Entries() {
		if e.Spec != nil {
			runs = append(runs, run{e.ID, 1, 5 * sim.Second})
		}
	}
	for _, ew := range []int{0, 2} {
		ctx := NewRunCtx()
		ctx.SetEngineWorkers(ew)
		for _, r := range runs {
			t.Run(fmt.Sprintf("ew%d/%s@%.0fs/seed%d", ew, r.id, r.dur.Seconds(), r.seed), func(t *testing.T) {
				one := runSliced(t, ctx, r.id, r.seed, r.dur, false)
				if sliced := runSliced(t, ctx, r.id, r.seed, r.dur, true); sliced != one {
					t.Errorf("slicing RunUntil moved the run (sha256, events, packets sent, delivered)\n one call: %s\n   sliced: %s", one, sliced)
				}
			})
		}
	}
}
