package main

import (
	"strings"
	"testing"

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
		{"figure coreloss duration", 1, 1, "-duration, -coreloss:"},
		{"all hops", 1, 1, "-hops"},
		{"list receivers", 1, 1, "-receivers"},
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

		{"scenario duration coreloss seed check tsv engineworkers", 1, 1, ""},
		{"scenario seeds spec-out", 1, 1, ""}, // -seeds 1 is the default spelled out
		{"scenario-file fanout", 1, 1, ""},
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
