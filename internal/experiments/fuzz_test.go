package experiments

import (
	"errors"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// fuzzDuration caps the simulated time of fuzzed specs so the seed
// corpus stays cheap enough for every plain `go test` run.
const fuzzDuration = 2 * sim.Second

// errTooExpensive is the deterministic rejection for decoded specs that
// mutateJSON inflated beyond what a fuzz iteration can afford.
var errTooExpensive = errors.New("fuzz: mutated spec too expensive")

// mutateSpec folds the fuzzer's byte stream into the spec as timed fault
// events — down/up links, partitions, heals, crashes, impairments — with
// deliberately unvalidated link references and receiver indices. Bad
// references must surface as Build/Run errors, never panics.
func mutateSpec(spec *scenario.Spec, mut []byte) {
	for ; len(mut) >= 4; mut = mut[4:] {
		verb, tt, a, b := mut[0], mut[1], mut[2], mut[3]
		at := spec.Duration.Scale(float64(tt) / 256)
		ref := scenario.LinkRef{Site: int(a%5) - 1, Hop: int(b % 3), Up: a%2 == 0}
		switch verb % 6 {
		case 0:
			spec.Events = append(spec.Events, scenario.LinkDownEvent(at, ref))
		case 1:
			spec.Events = append(spec.Events, scenario.LinkUpEvent(at, ref))
		case 2:
			spec.Events = append(spec.Events, scenario.PartitionEvent(at, scenario.DuplexRefs(ref)...))
		case 3:
			spec.Events = append(spec.Events, scenario.HealEvent(at, scenario.DuplexRefs(ref)...))
		case 4:
			spec.Events = append(spec.Events, scenario.CrashEvent(at, int(a)-2))
		case 5:
			spec.Events = append(spec.Events, scenario.ImpairEvent(at, scenario.Impair{
				Link:      ref,
				Corrupt:   float64(a) / 512,
				Duplicate: float64(b) / 512,
				Reorder:   float64(a^b) / 512,
			}))
		}
	}
}

// zeroPacketSizeID names the extra corpus document below in
// FuzzScenarioSpec's seed corpus.
const zeroPacketSizeID = "clrfail-packetsize0"

// zeroPacketSize is the spec document that wedged a run before session
// configs were validated: a fault preset with session.cfg.PacketSize 0.
// Both fuzzers start from it.
func zeroPacketSize() *scenario.Spec {
	spec := scenario.CLRFail()
	cfg := *spec.Session.Cfg
	cfg.PacketSize = 0
	spec.Session.Cfg = &cfg
	return spec
}

// FuzzSpecJSON feeds mutated serialised specs to the strict JSON
// loader. The contract: arbitrary bytes either fail to decode with an
// error or decode to a spec whose re-encoding is a byte fixpoint
// (Marshal → Unmarshal → Marshal), and decoding is deterministic —
// the same bytes always yield the same error or the same document.
func FuzzSpecJSON(f *testing.F) {
	for _, id := range ScenarioIDs() {
		e, ok := Lookup(id)
		if !ok || e.Spec == nil {
			continue
		}
		enc, err := e.Spec().Encode()
		if err != nil {
			f.Fatalf("%s: %v", id, err)
		}
		f.Add(enc)
	}
	f.Add([]byte(`{"name":"x","duration_ns":1}{"trailing":true}`))
	f.Add([]byte(`{"name":"x","unknown_field":1}`))
	enc, err := zeroPacketSize().Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Fuzz(func(t *testing.T, raw []byte) {
		spec, err := scenario.DecodeSpec(raw)
		spec2, err2 := scenario.DecodeSpec(raw)
		if (err == nil) != (err2 == nil) || (err != nil && err.Error() != err2.Error()) {
			t.Fatalf("non-deterministic decode: %v vs %v", err, err2)
		}
		if err != nil {
			return
		}
		enc, err := spec.Encode()
		if err != nil {
			return // e.g. NaN smuggled in via a float field: marshal refuses
		}
		dec, err := scenario.DecodeSpec(enc)
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %v", err)
		}
		enc2, err := dec.Encode()
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if string(enc) != string(enc2) {
			t.Fatalf("Marshal->Unmarshal->Marshal is not a fixpoint (%d vs %d bytes)", len(enc), len(enc2))
		}
		if enc3, _ := spec2.Encode(); string(enc) != string(enc3) {
			t.Fatalf("same bytes decoded to different documents")
		}
	})
}

// mutateJSON applies mut as a deterministic byte-level edit script to
// the serialised spec document: digit tweaks (numeric field changes that
// keep the document parseable), raw substitutions (usually framing
// damage), tail truncation and in-place slice duplication, all
// positioned by the mutation bytes themselves. The loader must respond
// to the result with an error or a runnable spec — same contract as for
// hand-written files — and identically on every call.
func mutateJSON(doc, mut []byte) []byte {
	out := append([]byte(nil), doc...)
	for ; len(mut) >= 3; mut = mut[3:] {
		verb, a, b := mut[0], mut[1], mut[2]
		if len(out) == 0 {
			break
		}
		pos := (int(a)<<8 | int(b)) % len(out)
		switch verb % 4 {
		case 0: // numeric tweak: rotate a digit to a different digit
			if c := out[pos]; c >= '0' && c <= '9' {
				out[pos] = '0' + (c-'0'+a%9+1)%10
			}
		case 1: // raw substitution
			out[pos] = b
		case 2: // truncate the tail
			out = out[:pos]
		case 3: // duplicate everything from pos after the first verb%64 bytes
			end := min(pos+int(verb)%64, len(out))
			out = append(out[:end:end], out[pos:]...)
		}
	}
	return out
}

// fuzzTooExpensive deterministically rejects decoded specs whose
// mutated numeric fields would make the run unaffordable for a fuzz
// iteration (a digit tweak can turn 40 receivers into 940). The bound
// is generous against every registered spec after the duration clamp.
func fuzzTooExpensive(spec *scenario.Spec) bool {
	return spec.DeclaredReceivers() > 2000 || spec.Topology.AttachPoints() > 2000
}

// FuzzScenarioSpec drives randomly mutated scenario specs — every
// registered Spec-backed entry with fuzz-chosen fault events spliced in —
// through the executor. The mutation bytes are split in half: the first
// half becomes structured fault events (mutateSpec), the second half a
// byte-level edit script over the spec's serialised JSON form
// (mutateJSON), so the strict loader sits inside the fuzzed path too.
// The contract under test: a spec either fails to decode/build/run with
// a structured error or runs deterministically (two runs with the same
// seed are byte-identical); it never panics.
func FuzzScenarioSpec(f *testing.F) {
	for i, id := range ScenarioIDs() {
		f.Add(id, int64(i+1), []byte{byte(i), 0x40, byte(2 * i), 1})
		f.Add(id, int64(i+1), []byte{byte(i + 4), 0xc0, 0xff, byte(i)})
		f.Add(id, int64(i+1), []byte{byte(i), 0x40, byte(2 * i), 1, 0, byte(i), 0x17, 2, 0, 40, 3, 1, 9})
	}
	f.Add(zeroPacketSizeID, int64(1), []byte{})
	f.Fuzz(func(t *testing.T, id string, seed int64, mut []byte) {
		base := zeroPacketSize
		if id != zeroPacketSizeID {
			e, ok := Lookup(id)
			if !ok || e.Spec == nil {
				t.Skip("not a Spec-backed entry")
			}
			base = e.Spec
		}
		run := func() (string, error) {
			spec := base()
			if spec.Duration > fuzzDuration {
				spec.Duration = fuzzDuration
			}
			half := len(mut) / 2
			mutateSpec(spec, mut[:half])
			enc, err := spec.Encode()
			if err != nil {
				return "", err
			}
			spec, err = scenario.DecodeSpec(mutateJSON(enc, mut[half:]))
			if err != nil {
				return "", err
			}
			if spec.Duration <= 0 || spec.Duration > fuzzDuration {
				spec.Duration = fuzzDuration
			}
			if fuzzTooExpensive(spec) {
				return "", errTooExpensive
			}
			ctx := NewRunCtx()
			ctx.EnableInvariants()
			sc, err := scenario.Run(ctx.ScenarioEnv(seed), spec)
			if err != nil {
				return "", err
			}
			out := ""
			for _, s := range sc.Series() {
				out += s.TSV()
			}
			return out, nil
		}
		first, err1 := run()
		second, err2 := run()
		switch {
		case err1 != nil || err2 != nil:
			if (err1 == nil) != (err2 == nil) || (err1 != nil && err1.Error() != err2.Error()) {
				t.Fatalf("non-deterministic error: %v vs %v", err1, err2)
			}
		case first != second:
			t.Fatalf("same spec and seed produced different output (%d vs %d bytes)",
				len(first), len(second))
		}
	})
}
