package experiments

import (
	"bytes"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// runSpec runs spec through the one spec path on a fresh context and
// returns the completed scenario.
func runSpec(t *testing.T, spec *scenario.Spec, seed int64) *scenario.Scenario {
	t.Helper()
	var sc *scenario.Scenario
	keep := func(s *scenario.Scenario) *Result { sc = s; return &Result{} }
	if _, err := specJob(spec.Name, spec, keep).run(NewRunCtx(), seed); err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	return sc
}

// runSpecTSV runs a spec on a fresh context and returns the concatenated
// series TSV.
func runSpecTSV(t *testing.T, spec *scenario.Spec, seed int64) string {
	t.Helper()
	out := ""
	for _, s := range runSpec(t, spec, seed).Series() {
		out += s.TSV()
	}
	return out
}

// TestSpecJSONRunRoundTrip pins the serialisation contract for every
// Spec-backed registry entry: Encode → DecodeSpec → Encode is a byte
// fixpoint, and the decoded spec drives the executor to byte-identical
// TSV at a fixed seed. Durations are cut down so the full-registry sweep
// stays cheap; the same cut applies to both sides of the comparison.
func TestSpecJSONRunRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("full-simulation scenarios")
	}
	for _, id := range ScenarioIDs() {
		e, ok := Lookup(id)
		if !ok || e.Spec == nil {
			t.Fatalf("%s: not Spec-backed", id)
		}
		spec := e.Spec()
		spec.Duration /= 6
		enc, err := spec.Encode()
		if err != nil {
			t.Fatalf("%s: encode: %v", id, err)
		}
		dec, err := scenario.DecodeSpec(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", id, err)
		}
		enc2, err := dec.Encode()
		if err != nil {
			t.Fatalf("%s: re-encode: %v", id, err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Errorf("%s: Encode->Decode->Encode is not a fixpoint", id)
			continue
		}
		if a, b := runSpecTSV(t, spec, 7), runSpecTSV(t, dec, 7); a != b {
			t.Errorf("%s: JSON-decoded spec produced different TSV (%d vs %d bytes)", id, len(a), len(b))
		}
	}
}

// TestPopulationHopEditKeepsDelays: the population specs write their
// access hop out whole, figure 12's without the delay its jitter draws,
// so a one-field edit of the exported document (a loss on the down link)
// keeps every other property of the hop. A spec that left the hop zero
// exported no hop at all, and the edit built 0 ms access links: Build
// takes a partly set hop literally.
func TestPopulationHopEditKeepsDelays(t *testing.T) {
	for _, spec := range []*scenario.Spec{Figure12Spec(), figure14Members()[0].Spec} {
		enc, err := spec.Encode()
		if err != nil {
			t.Fatalf("%s: encode: %v", spec.Name, err)
		}
		edited, err := scenario.DecodeSpec(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", spec.Name, err)
		}
		want := scenario.FastHop()
		if spec.Pop.Jitter != nil {
			want.Down.Delay, want.Up.Delay = 0, 0
		}
		if h := edited.Pop.Hop; h != want {
			t.Fatalf("%s: exported hop %+v, want %+v", spec.Name, h, want)
		}
		edited.Pop.Hop.Down.Loss = 0.01
		base, err := scenario.Build(scenario.NewEnv(1), spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		sc, err := scenario.Build(scenario.NewEnv(1), edited)
		if err != nil {
			t.Fatalf("%s edited: %v", spec.Name, err)
		}
		if len(sc.SiteLinks) != spec.Pop.Count {
			t.Fatalf("%s edited: %d sites, want %d", spec.Name, len(sc.SiteLinks), spec.Pop.Count)
		}
		for s, ls := range sc.SiteLinks {
			down, up := ls[0], ls[1]
			want := base.SiteLinks[s][0].Delay // 1 ms, or the jitter draw
			if spec.Pop.Jitter == nil && want != sim.Millisecond {
				t.Fatalf("%s site %d: unedited access delay %v, want 1 ms", spec.Name, s, want)
			}
			if down.Delay != want || up.Delay != want || down.LossProb != 0.01 || up.LossProb != 0 {
				t.Fatalf("%s edited, site %d: delays %v/%v, losses %v/%v; want %v each way and loss 0.01 down",
					spec.Name, s, down.Delay, up.Delay, down.LossProb, up.LossProb, want)
			}
		}
	}
}
