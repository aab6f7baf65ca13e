package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
)

// TestOutputPinned pins the sha256 of the example's stdout, so a change
// that moves one byte of what the example prints fails here. If the move
// is intended, print the new output with go run, check it and update
// the sum.
func TestOutputPinned(t *testing.T) {
	const want = "9f994d89ad2b063df5acff4cf113765672cf4a5920d59e0f70efd1d6e31163fd"
	var b bytes.Buffer
	if err := run(&b); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(b.Bytes())); got != want {
		t.Errorf("stdout sha256 %s, want %s:\n%s", got, want, b.String())
	}
}
