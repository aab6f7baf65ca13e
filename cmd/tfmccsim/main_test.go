package main

import (
	"strings"
	"testing"
)

// TestFlagConflict: every combination that used to drop a flag silently
// is refused with a message naming that flag; legal ones pass.
func TestFlagConflict(t *testing.T) {
	for _, tc := range []struct {
		flags string // space-separated names of the flags given
		seeds int
		want  string // substring of the error, "" for legal
	}{
		{"figure coreloss duration", 1, "-duration, -coreloss:"},
		{"all hops", 1, "-hops"},
		{"list receivers", 1, "-receivers"},
		{"scenario seeds", 4, "-seeds 4"},
		{"scenario-file seeds", 2, "-seeds 2"},
		{"scenario ci", 1, "-ci"},
		{"figure scenario", 1, "-figure and -scenario"},
		{"all scenario", 1, "-all and -scenario"},

		{"scenario duration coreloss seed check tsv engineworkers", 1, ""},
		{"scenario seeds spec-out", 1, ""}, // -seeds 1 is the default spelled out
		{"scenario-file fanout", 1, ""},
		{"figure seeds workers ci tsv", 8, ""},
		{"", 1, ""}, // no selector: main prints usage
	} {
		set := map[string]bool{}
		for _, f := range strings.Fields(tc.flags) {
			set[f] = true
		}
		err := flagConflict(set, tc.seeds)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%q seeds=%d: unexpected error %v", tc.flags, tc.seeds, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%q seeds=%d: error %v, want one containing %q", tc.flags, tc.seeds, err, tc.want)
		}
	}
}
