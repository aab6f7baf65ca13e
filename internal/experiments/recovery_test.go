package experiments

import (
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestRecoveryCountersClrfail pins the first-class recovery metrics: the
// clrfail preset crashes the CLR at t=60s, so a 120s run must record the
// loss episode, the re-election that closes it and a positive worst-case
// re-election time.
func TestRecoveryCountersClrfail(t *testing.T) {
	if testing.Short() {
		t.Skip("full-simulation scenario")
	}
	ctx := NewRunCtx()
	ov := scenario.None()
	ov.Duration = 120 * sim.Second
	if _, err := RunOverridden(ctx, "clrfail", ov, 1); err != nil {
		t.Fatal(err)
	}
	st := ctx.Stats()
	if st.CLRLosses < 1 {
		t.Errorf("CLRLosses = %d, want >= 1", st.CLRLosses)
	}
	if st.Reelections < st.CLRLosses {
		t.Errorf("Reelections = %d < CLRLosses = %d", st.Reelections, st.CLRLosses)
	}
	if st.ReelectNS <= 0 {
		t.Errorf("ReelectNS = %v, want > 0", st.ReelectNS)
	}
	if st.RateRecoveries < 1 || st.RateRecoverNS <= 0 {
		t.Errorf("rate recovery not recorded: n=%d worst=%v", st.RateRecoveries, st.RateRecoverNS)
	}
}

// TestRecoveryCountersZeroOnFaultFreeRun pins that a fault-free run
// records no recovery episodes, so counter_bound hypotheses on them only
// see episodes a fault actually caused.
func TestRecoveryCountersZeroOnFaultFreeRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full-simulation scenario")
	}
	ctx := NewRunCtx()
	ov := scenario.None()
	ov.Duration = 10 * sim.Second
	if _, err := RunOverridden(ctx, "degrade", ov, 1); err != nil {
		t.Fatal(err)
	}
	st := ctx.Stats()
	if st.CLRLosses != 0 || st.Reelections != 0 || st.ReelectNS != 0 ||
		st.RateRecoveries != 0 || st.RateRecoverNS != 0 {
		t.Fatalf("fault-free run recorded recovery episodes: %+v", st)
	}
}

// TestFigureJobMatchesScenarioJob pins the one spec run path: a
// Spec-backed figure run through its own report and the same spec run
// through the generic one build, run and harvest the same thing, so
// every engine counter agrees, the recovery counters included. Figures
// 15 and 16 lose their CLR when the slow receiver leaves, so a report
// path that skipped the sender's counters would read 0 here.
func TestFigureJobMatchesScenarioJob(t *testing.T) {
	if testing.Short() {
		t.Skip("full-simulation scenarios")
	}
	for _, id := range []string{"15", "16"} {
		fig, err := FigureJob(id)
		if err != nil {
			t.Fatal(err)
		}
		scen, err := ScenarioJob(id, scenario.None())
		if err != nil {
			t.Fatal(err)
		}
		a, b := NewRunCtx(), NewRunCtx()
		if _, err := fig.run(a, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := scen.run(b, 1); err != nil {
			t.Fatal(err)
		}
		if a.Stats() != b.Stats() {
			t.Errorf("figure %s: FigureJob counters %+v, ScenarioJob counters %+v", id, a.Stats(), b.Stats())
		}
		if n := a.Stats().CLRLosses; n < 1 {
			t.Errorf("figure %s: FigureJob CLRLosses = %d, want >= 1", id, n)
		}
	}
}
