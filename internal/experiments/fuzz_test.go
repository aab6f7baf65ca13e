package experiments

import (
	"bytes"
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
// events — set_link outages and heals of one link or a duplex, a
// set_link retuning a duplex's loss and impairments, crashes — with
// deliberately unvalidated link references and receiver indices. Bad
// references must surface as Build/Run errors, never panics.
func mutateSpec(spec *scenario.Spec, mut []byte) {
	for ; len(mut) >= 4; mut = mut[4:] {
		verb, tt, a, b := mut[0], mut[1], mut[2], mut[3]
		at := spec.Duration.Scale(float64(tt) / 256)
		ref := scenario.LinkRef{Site: int(a%5) - 1, Hop: int(b % 3), Up: a%2 == 0}
		switch verb % 6 {
		case 0:
			spec.Events = append(spec.Events, scenario.PartitionEvent(at, ref))
		case 1:
			spec.Events = append(spec.Events, scenario.HealEvent(at, ref))
		case 2:
			spec.Events = append(spec.Events, scenario.PartitionEvent(at, scenario.DuplexRefs(ref)...))
		case 3:
			ev := scenario.HealEvent(at, scenario.DuplexRefs(ref)...)
			loss := float64(b) / 512
			ev.SetLink.Loss = &loss
			ev.SetLink.Impair = &scenario.Impair{Reorder: float64(a) / 512}
			spec.Events = append(spec.Events, ev)
		case 4:
			spec.Events = append(spec.Events, scenario.CrashEvent(at, int(a)-2))
		case 5:
			spec.Events = append(spec.Events, scenario.ImpairEvent(at, ref, scenario.Impair{
				Corrupt:   float64(a) / 512,
				Duplicate: float64(b) / 512,
				Reorder:   float64(a^b) / 512,
			}))
		}
	}
}

// sameNodeFlowID names the extra corpus spec below in FuzzScenarioSpec's
// seed corpus.
const sameNodeFlowID = "9-tcp5-same-node"

// sameNodeFlow is figure 9 with tcp5's to dropped from the document, so
// it resolves to the zero reference, core node 0, its own from node: a
// flow that crosses no link and used to run as fast as the event loop
// could go. Build refuses it.
func sameNodeFlow() *scenario.Spec {
	spec := Figure9Spec()
	for _, st := range spec.Steps {
		if st.TCP != nil && st.TCP.Name == "tcp5" {
			st.TCP.To = scenario.NodeRef{}
		}
	}
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
	f.Add([]byte(`{"name":"x","duration_ns":1,"events":[{"at_ns":1,"set_link":{"links":[{"site":-1},{"site":-1,"up":true}],"down":true,"impair":{}}}]}`))
	f.Add([]byte(`{"name":"x","duration_ns":1,"events":[{"at_ns":1,"partition":[{"site":-1}]}]}`))
	f.Add([]byte(`{"name":"x","duration_ns":1,"cohort":{"size":16,"meter":"TFMCC"}}`))
	f.Add([]byte(`{"name":"x","duration_ns":9,"steps":[{"recv":{"at":{"kind":1},"join_at_ns":5,"leave_at_ns":8,"meter":"r"}}]}`))
	f.Add([]byte(`{"name":"x","duration_ns":1,"events":[{"at_ns":1,"set_link":{"links":[{"site":-1}],"bw":1,"delay_ns":2,"loss":0.5,"down":false}}]}`))
	f.Add([]byte(`{"name":"x","duration_ns":1,"session":{"cfg":{"PacketSize":0,"HalveOnSilence":true}}}`))
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

// fuzzFields edits the spec's fields as a four-byte field record asks
// (see fuzzRun): the second byte's bits pick the core link's bandwidth,
// loss and queue limit, the population's size, the tree's fan-out and
// depth, the chain's length and the edge loss (the down-direction loss
// of the population access hop and of each site's last hop); the last
// two bytes give their values, losses included out of [0, 1] and the
// queue limit negative. The edit checks nothing: Build refuses the
// values no spec can hold.
func fuzzFields(s *scenario.Spec, rec []byte) {
	pick, a, b := rec[1], int(rec[2]), int(rec[3])
	top := &s.Topology
	for bit, set := range []func(){
		func() { top.Core.BW = float64(a) * 1250 },
		func() {
			if s.Pop != nil {
				s.Pop.Count = b
			}
		},
		func() { top.Fanout = a % 8 },
		func() { top.Depth = b % 6 },
		func() { top.Hops = a % 12 },
		func() { top.Core.Loss = float64(b)/128 - 0.5 },
		func() {
			loss := float64(a)/128 - 0.5
			if s.Pop != nil {
				if s.Pop.Hop == (scenario.Hop{}) {
					s.Pop.Hop = scenario.FastHop()
				}
				s.Pop.Hop.Down.Loss = loss
			}
			for _, st := range s.Steps {
				if st.Site != nil && len(st.Site.Hops) > 0 {
					st.Site.Hops[len(st.Site.Hops)-1].Down.Loss = loss
				}
			}
		},
		func() { top.Core.Queue = b - 64 },
	} {
		if pick&(1<<bit) != 0 {
			set()
		}
	}
}

// fuzzTooExpensive deterministically rejects decoded specs whose
// mutated numeric fields would make the run unaffordable for a fuzz
// iteration (a digit tweak can turn 40 receivers into 940): a population
// or a topology's attach points past 2000, the latter read from a
// scratch build of the topology alone, before any receiver is built. The
// bound is generous against every registered spec after the duration
// clamp. A topology that does not build is left to the run to reject.
func fuzzTooExpensive(spec *scenario.Spec) bool {
	if spec.Pop != nil && spec.Pop.Count > 2000 {
		return true
	}
	top, err := scenario.BuildScratch(&scenario.Spec{Topology: spec.Topology}, 1)
	return err == nil && len(top.Topo.Attach) > 2000
}

// fuzzEventBudget bounds one fuzz run's events. A spec can be cheap to
// state and dear to run — a byte edit that points a TCP flow between two
// uncongested sites leaves nothing to slow it — and a run past the
// budget is rejected as errTooExpensive at the next 100 ms instant of
// the run path's stop grid. The seed corpus peaks at 126 k events a run.
// Slicing RunUntil moves no byte on either engine (TestSlicedRunUntil).
const fuzzEventBudget = 500_000

// fuzzRun is one FuzzScenarioSpec run of base on one engine: a leading
// four-byte record of the mutation bytes whose first byte has its top
// bit set becomes an edit of the spec's fields (fuzzFields); the rest is
// split in half: the first half becomes structured fault events
// (mutateSpec), the second half a byte-level edit script over the spec's
// serialised JSON form (mutateJSON), so the strict loader sits inside
// the fuzzed path too. The field edit is made to the decoded document,
// as a hand edit of an exported one would be. It returns the run's
// series as TSV.
func fuzzRun(base func() *scenario.Spec, seed int64, mut []byte, engineWorkers int) (string, error) {
	spec := base()
	if spec.Duration > fuzzDuration {
		spec.Duration = fuzzDuration
	}
	var rec []byte
	if len(mut) >= 4 && mut[0]&0x80 != 0 {
		rec, mut = mut[:4], mut[4:]
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
	if rec != nil {
		fuzzFields(spec, rec)
	}
	if spec.Duration <= 0 || spec.Duration > fuzzDuration {
		spec.Duration = fuzzDuration
	}
	if fuzzTooExpensive(spec) {
		return "", errTooExpensive
	}
	// Every event on the control scheduler and the region schedulers.
	events := func(sc *scenario.Scenario) uint64 {
		n := sc.Env.Sch.Processed()
		for _, r := range sc.Env.Net.RegionStats().Events {
			n += r
		}
		return n
	}
	ctx := checkedCtx(engineWorkers)
	sc, _, err := ctx.run(spec, seed, func(sc *scenario.Scenario, _ sim.Time) bool { return events(sc) > fuzzEventBudget })
	if err != nil {
		return "", err
	}
	if events(sc) > fuzzEventBudget {
		return "", errTooExpensive
	}
	out := ""
	for _, s := range sc.Series() {
		out += s.TSV()
	}
	return out, nil
}

// FuzzScenarioSpec drives randomly mutated scenario specs — every
// registered Spec-backed entry with fuzz-chosen field edits and fault events
// spliced in — through the executor (fuzzRun).
// The contract under test, on the serial engine and on the region
// engine alike: a spec either fails to decode/build/run with a
// structured error or runs deterministically (two runs with the same
// seed on one engine are byte-identical); it never panics.
func FuzzScenarioSpec(f *testing.F) {
	for i, id := range ScenarioIDs() {
		f.Add(id, int64(i+1), []byte{byte(i), 0x40, byte(2 * i), 1})
		f.Add(id, int64(i+1), []byte{byte(i + 4), 0xc0, 0xff, byte(i)})
		f.Add(id, int64(i+1), []byte{byte(i), 0x40, byte(2 * i), 1, 0, byte(i), 0x17, 2, 0, 40, 3, 1, 9})
	}
	f.Add(sameNodeFlowID, int64(1), []byte{})
	// Field records: a 50 kbit/s core (with a fault event after it), a
	// tree reshaped by fan-out and depth under a 20 kbit/s core, a core
	// loss of 1.49 that Build refuses naming topology.core; then one
	// field each: a population resized, a chain stretched, edge and core
	// loss at 1, a negative queue limit (refused), a population size on a
	// spec without a population (nothing to set), a one-packet core
	// queue (with a fault event), a wider, shallower tree, and every
	// field at once, of which a tree ignores the chain length.
	f.Add("degrade", int64(1), []byte{0x80, 0x01, 5, 0, 4, 0x40, 0, 1})
	f.Add("deeptree", int64(2), []byte{0x80, 0x0d, 2, 3})
	f.Add("clrfail", int64(3), []byte{0x80, 0x21, 1, 0xff})
	f.Add("12", int64(4), []byte{0x80, 0x02, 0, 40})
	f.Add("chainloss", int64(5), []byte{0x80, 0x10, 9, 0})
	f.Add("wireless", int64(6), []byte{0x80, 0x40, 192, 0})
	f.Add("degrade", int64(7), []byte{0x80, 0x20, 0, 192})
	f.Add("tcpburst", int64(8), []byte{0x80, 0x80, 0, 10})
	f.Add("flashcrowd", int64(9), []byte{0x80, 0x02, 0, 7})
	f.Add("9", int64(10), []byte{0x80, 0x80, 0, 65, 0, 0x40, 0, 1})
	f.Add("deeptree", int64(11), []byte{0x80, 0x0c, 3, 3})
	f.Add("deeptree", int64(12), []byte{0x80, 0xff, 64, 100})
	f.Add("flashcrowd", int64(13), hoplessSiteSeed(f))
	f.Fuzz(func(t *testing.T, id string, seed int64, mut []byte) {
		base := sameNodeFlow
		if id != sameNodeFlowID {
			e, ok := Lookup(id)
			if !ok || e.Spec == nil {
				t.Skip("not a Spec-backed entry")
			}
			base = e.Spec
		}
		for _, ew := range []int{1, 2} {
			first, err1 := fuzzRun(base, seed, mut, ew)
			second, err2 := fuzzRun(base, seed, mut, ew)
			switch {
			case err1 != nil || err2 != nil:
				if (err1 == nil) != (err2 == nil) || (err1 != nil && err1.Error() != err2.Error()) {
					t.Fatalf("engine workers %d: non-deterministic error: %v vs %v", ew, err1, err2)
				}
			case first != second:
				t.Fatalf("engine workers %d: same spec and seed produced different output (%d vs %d bytes)",
					ew, len(first), len(second))
			}
		}
	})
}

// hoplessSiteSeed is a FuzzScenarioSpec input for flashcrowd: an
// edge-loss field record (0.5), fault events that the edit cuts away,
// and a mutateJSON script that truncates the document after the first
// site's `"hops": [`, appends five or six bytes and rewrites them as
// `]}}]}` (and a space).
// The decoded spec is one site with no hops, which Build refuses; the
// edge-loss edit skips that site (an edge-loss override once indexed its
// last hop and panicked).
func hoplessSiteSeed(f *testing.F) []byte {
	e, _ := Lookup("flashcrowd")
	spec := e.Spec()
	spec.Duration = min(spec.Duration, fuzzDuration)
	enc, err := spec.Encode()
	if err != nil {
		f.Fatal(err)
	}
	cut := bytes.Index(enc, []byte(`"hops": [`)) + len(`"hops": [`)
	tail := "]}}]}"
	if (cut+len(tail))%2 == 0 {
		tail += " " // an odd length lets every position take every byte
	}
	edit := []byte{2, byte(cut >> 8), byte(cut), 63, byte((cut - len(tail)) >> 8), byte(cut - len(tail))}
	for i := range len(tail) {
		// A substitution writes its position's low byte, so pick the
		// high byte that puts tail[i] at cut+i modulo the grown length.
		a := -1
		for hi := range 256 {
			if (hi<<8|int(tail[i]))%(cut+len(tail)) == cut+i {
				a = hi
				break
			}
		}
		if a < 0 {
			f.Fatalf("no substitution writes %q at %d", tail[i], cut+i)
		}
		edit = append(edit, 1, byte(a), tail[i])
	}
	return append(append([]byte{0x80, 0x40, 128, 0}, make([]byte, len(edit))...), edit...)
}

// TestFuzzRejectsRunawayFlow: a spec can be cheap to state, valid, and
// dear to run. The fuzzer once reported a hang on a TCP flow between two
// access links of one router (corpus entry fe837658651ea093), which
// Build now refuses; a TCP flow between two FastHop sites of a star is
// the same runaway that Build accepts — infinite links, an 8 ms round
// trip and nothing to slow it. Past the event budget it is refused in a
// fraction of its run time, on both engines.
func TestFuzzRejectsRunawayFlow(t *testing.T) {
	runaway := func() *scenario.Spec {
		site := scenario.Step{Site: &scenario.SiteSpec{Hops: []scenario.Hop{scenario.FastHop()}}}
		return &scenario.Spec{
			Name:     "runaway",
			Topology: scenario.Topology{Kind: scenario.Star},
			Steps: []scenario.Step{site, site,
				{TCP: &scenario.TCPSpec{Name: "tcp", From: scenario.Site(0), To: scenario.Site(1)}}},
			Duration: fuzzDuration,
		}
	}
	for _, ew := range []int{1, 2} {
		if _, err := fuzzRun(runaway, -5, nil, ew); err != errTooExpensive {
			t.Errorf("engine workers %d: %v, want errTooExpensive", ew, err)
		}
	}
}
