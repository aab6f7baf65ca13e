package main

import (
	"strings"
	"testing"
)

// TestFlagConflict: a second selector, or an output flag -list cannot
// honour, is refused with a message naming the flag; legal combinations
// pass.
func TestFlagConflict(t *testing.T) {
	for _, tc := range []struct {
		flags string // space-separated names of the flags given
		want  string // substring of the error, "" for legal
	}{
		{"list suite", "-suite and -list"},
		{"suite run", "-suite and -run"},
		{"list run", "-list and -run"},
		{"suite list run json", "-suite and -list and -run"},
		{"list json", "-json"},
		{"list summary", "-summary"},
		{"list json summary", "-json"},

		{"suite", ""},
		{"list", ""},
		{"run", ""},
		{"suite json summary workers engineworkers", ""},
		{"run json", ""},
		{"run summary engineworkers", ""},
		{"list workers", ""},
		{"", ""}, // no selector: main prints usage
	} {
		set := map[string]bool{}
		for _, f := range strings.Fields(tc.flags) {
			set[f] = true
		}
		err := flagConflict(set)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%q: unexpected error %v", tc.flags, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%q: error %v, want one containing %q", tc.flags, err, tc.want)
		}
	}
}
