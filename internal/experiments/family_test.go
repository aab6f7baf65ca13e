package experiments

import (
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestFamilyRun runs a family of three small stars on one context: a
// member whose stop holds at the first check ends at 100 ms; a member
// whose stop never holds is checked at every grid instant below its
// duration and runs to it, sample for sample like the same member
// without a stop. Each member's samples survive the rewinds of the
// members after it.
func TestFamilyRun(t *testing.T) {
	const dur = 2 * sim.Second
	spec := &scenario.Spec{
		Name:     "family-star",
		Topology: scenario.Topology{Kind: scenario.Star},
		Pop:      &scenario.Population{Count: 4, Parent: scenario.AttachPoint(0)},
		Steps: []scenario.Step{{Sample: &scenario.SampleSpec{
			Name: "sender rate", What: scenario.SampleSenderRate, Every: 100 * sim.Millisecond}}},
		Duration: dur,
	}
	var checks []sim.Time
	var runs []MemberRun
	f := &Family{
		Members: func() []Member {
			return []Member{
				{Spec: spec, Stop: func(*scenario.Scenario, sim.Time) bool { return true }},
				{Spec: spec, Seed: 1, Stop: func(_ *scenario.Scenario, now sim.Time) bool {
					checks = append(checks, now)
					return false
				}},
				{Spec: spec, Seed: 1},
			}
		},
		Report: func(r []MemberRun) *Result { runs = r; return &Result{} },
	}
	if _, err := f.run(NewRunCtx(), 1); err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("report got %d member runs, want 3", len(runs))
	}
	if r := runs[0]; r.End != 100*sim.Millisecond || len(r.Samples[0].Points) != 1 {
		t.Errorf("member stopped at the first check ended at %v with %d samples, want 100ms and 1",
			r.End, len(r.Samples[0].Points))
	}
	if n := len(checks); n != 19 || checks[0] != 100*sim.Millisecond || checks[n-1] != dur-100*sim.Millisecond {
		t.Errorf("never-holding stop checked at %v, want every 100 ms from 100ms to 1.9s", checks)
	}
	for i, r := range runs[1:] {
		if r.End != dur || len(r.Samples[0].Points) != 20 {
			t.Errorf("member %d ended at %v with %d samples, want %v and 20", i+1, r.End, len(r.Samples[0].Points), dur)
		}
	}
	sliced, whole := &Result{Series: runs[1].Samples}, &Result{Series: runs[2].Samples}
	if sliced.TSV() != whole.TSV() {
		t.Errorf("stop checks moved the run's samples:\n%s\nvs\n%s", sliced.TSV(), whole.TSV())
	}
}

// TestFamilyOnWarmContext: figure 14 on a context that last built a
// figure 13 member (200 receivers; the whole figure takes seconds) equals
// figure 14 on a fresh context, TSV and engine counters both.
func TestFamilyOnWarmContext(t *testing.T) {
	m := figure13Members()[len(rttChangeTimes)*familySeeds] // 200 receivers, change at 0 s
	if m.Spec.Pop.Count != 200 || m.Spec.Events[0].At != 0 {
		t.Fatalf("member %s is not the 200-receiver change at 0 s", m.Spec.Name)
	}
	warm := NewRunCtx()
	if _, _, err := warm.run(m.Spec, 1+m.Seed, m.Stop); err != nil {
		t.Fatal(err)
	}
	warm.ResetStats()
	got, err := RunWith(warm, "14", 1)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewRunCtx()
	want, err := RunWith(fresh, "14", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.TSV() != want.TSV() || warm.Stats() != fresh.Stats() {
		t.Errorf("figure 14 after a figure 13 member differs from a fresh run:\n%+v\nvs\n%+v", warm.Stats(), fresh.Stats())
	}
}
