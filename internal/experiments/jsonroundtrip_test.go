package experiments

import (
	"bytes"
	"testing"

	"repro/internal/scenario"
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
