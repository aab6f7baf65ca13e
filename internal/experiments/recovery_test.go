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
