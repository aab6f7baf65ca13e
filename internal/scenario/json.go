package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// Scenario specs serialise to JSON so workloads — presets, overridden
// variants, generated chaos scripts, hypothesis workloads — ship as data
// and run without recompiling (`tfmccsim -scenario-file spec.json`). The
// format is the struct layout under the json tags declared alongside each
// type: snake_case keys, integer-nanosecond times (_ns suffix), zero
// values omitted. DecodeSpec is strict — unknown keys and trailing
// garbage are errors, so a typo'd field fails loudly instead of silently
// meaning its zero value; hypothesis.Decode is as strict about a spec
// nested in a hypothesis document — and Marshal→Unmarshal→Marshal is a
// byte-level fixpoint, which the fuzzer and the golden round-trip tests
// enforce.

// Encode renders the spec as the indented JSON document -spec-out writes
// and -scenario-file reads.
func (s *Spec) Encode() ([]byte, error) {
	enc, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(enc, '\n'), nil
}

// DecodeSpec parses one spec document, rejecting unknown fields and
// trailing non-whitespace content.
func DecodeSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	s := &Spec{}
	if err := dec.Decode(s); err != nil {
		return nil, fmt.Errorf("scenario: decode spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("scenario: trailing content after spec document")
	}
	return s, nil
}

// LoadSpec reads a spec document from disk.
func LoadSpec(path string) (*Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := DecodeSpec(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
