package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// TestFlagConflict: every combination that used to drop a flag silently
// is refused with a message naming that flag; legal ones pass.
func TestFlagConflict(t *testing.T) {
	for _, tc := range []struct {
		flags   string // space-separated names of the flags given
		seeds   int
		workers int
		want    string // substring of the error, "" for legal
	}{
		{"figure duration", 1, 1, "-duration:"},
		{"all duration", 1, 1, "-duration:"},
		{"list duration", 1, 1, "-duration:"},
		{"scenario ci", 1, 1, "-ci"},
		{"figure ci", 1, 1, "-ci"},
		{"all seeds ci", 1, 1, "-ci"},
		{"figure workers", 1, 3, "-workers 3"},
		{"all workers check", 1, 2, "-workers 2"},
		{"scenario workers", 1, 2, "-workers 2"},
		{"scenario-file workers ci", 1, 2, "-ci"},
		{"figure scenario", 1, 1, "-figure and -scenario"},
		{"all scenario", 1, 1, "-all and -scenario"},
		{"figure spec-out", 1, 1, "-spec-out"},
		{"scenario-file spec-out", 1, 1, "-spec-out"},
		{"all spec-out", 1, 1, "-spec-out"},
		{"list spec-out", 1, 1, "-spec-out"},
		{"spec-out", 1, 1, "-spec-out"},
		{"scenario seeds spec-out", 4, 1, "-seeds 4"},
		{"list seeds", 4, 1, "-seeds 4"},
		{"list check", 1, 1, "-check"},
		{"list tsv", 1, 1, "-tsv"},
		{"list seed", 1, 1, "-seed:"},
		{"scenario spec-out check", 1, 1, "-check"},
		{"scenario spec-out tsv", 1, 1, "-tsv"},
		{"scenario spec-out seed", 1, 1, "-seed:"},

		{"scenario duration seed check tsv", 1, 1, ""},
		{"scenario seeds spec-out", 1, 1, ""}, // -seeds 1 is the default spelled out
		{"list seeds workers", 1, 1, ""},
		{"scenario-file duration", 1, 1, ""},
		{"figure seeds workers ci tsv", 8, 4, ""},
		{"scenario seeds", 2, 1, ""},
		{"scenario-file seeds workers ci", 2, 2, ""},
		{"figure workers", 1, 1, ""}, // one worker is what one seed uses
		{"figure", 1, 8, ""},         // the default worker count, not given
		{"", 1, 1, ""},               // no selector: main prints usage
	} {
		set := map[string]bool{}
		for _, f := range strings.Fields(tc.flags) {
			set[f] = true
		}
		err := flagConflict(set, sweep.Config{Seeds: tc.seeds, Workers: tc.workers})
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%q seeds=%d workers=%d: unexpected error %v", tc.flags, tc.seeds, tc.workers, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%q seeds=%d workers=%d: error %v, want one containing %q", tc.flags, tc.seeds, tc.workers, err, tc.want)
		}
	}
}

// TestDurationOverride: -duration is refused, naming the flag, unless it
// converts to a run length sim.Time can hold. A given -duration below
// 1 ns used to read as "unset" and run the spec's full length.
func TestDurationOverride(t *testing.T) {
	for _, tc := range []struct {
		given bool
		sec   float64
		want  sim.Time
		err   string // substring of the error, "" for legal
	}{
		{false, 0, 0, ""}, // not given: keep the spec's length
		{true, 5, 5 * sim.Second, ""},
		{true, 1e-9, sim.Nanosecond, ""},
		{true, 0, 0, "-duration 0: not a run length"},
		{true, 1e-10, 0, "-duration 1e-10: not a run length"},
		{true, -5, 0, "-duration -5: not a run length"},
		{true, 1e12, 0, "-duration 1e+12: out of range"},
		{true, math.NaN(), 0, "-duration NaN: not a finite number"},
		{true, math.Inf(1), 0, "-duration +Inf: not a finite number"},
	} {
		d, err := durationOverride(tc.given, tc.sec)
		switch {
		case tc.err == "" && (err != nil || d != tc.want):
			t.Errorf("given=%v %v: %v, %v; want %v", tc.given, tc.sec, d, err, tc.want)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("given=%v %v: %v, %v; want an error containing %q", tc.given, tc.sec, d, err, tc.err)
		}
	}
}
