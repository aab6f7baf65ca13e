package experiments

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// runSliced builds entry id's spec on ctx for seed, runs it to dur in
// RunUntil slices of step (one call when step is dur) and renders the
// run's series digest and event and packet counters.
func runSliced(t *testing.T, ctx *RunCtx, id string, seed int64, dur, step sim.Time) string {
	t.Helper()
	e, ok := Lookup(id)
	if !ok || e.Spec == nil {
		t.Fatalf("%s: no Spec-backed registry entry", id)
	}
	ctx.ResetStats()
	sc, err := ctx.build(e.Spec(), seed)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	sc.Start()
	for now := step; ; now += step {
		sc.RunUntil(min(now, dur))
		if now >= dur {
			break
		}
	}
	ctx.harvest()
	st := ctx.Stats()
	res := &Result{Series: sc.Series()}
	return fmt.Sprintf("%x\t%d\t%d\t%d", sha256.Sum256([]byte(res.TSV())),
		st.Events, st.PacketsSent, st.PacketsDelivered)
}

// TestSlicedRunUntil: driving a run in 100 ms RunUntil slices, as the
// figure 13 and 14 runners do, gives the bytes and counters of
// one RunUntil call to the same instant, on both engines. Each slice end
// is a window boundary the one call does not have, so on the region
// engine this pins that no event's place depends on where windows end.
// Every Spec-backed entry runs its first 5 s at seed 1; chainloss also
// runs 30 s at seed 2, past the 24 s at which an engine that parked
// crossing packets until a barrier first diverged.
func TestSlicedRunUntil(t *testing.T) {
	const step = 100 * sim.Millisecond
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
				one := runSliced(t, ctx, r.id, r.seed, r.dur, r.dur)
				if sliced := runSliced(t, ctx, r.id, r.seed, r.dur, step); sliced != one {
					t.Errorf("slicing RunUntil moved the run (sha256, events, packets sent, delivered)\n one call: %s\n   sliced: %s", one, sliced)
				}
			})
		}
	}
}
