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
// values omitted. Decoding is strict — unknown keys and trailing
// garbage are errors, so a typo'd field fails loudly instead of silently
// meaning its zero value; hypothesis documents, which may nest a spec,
// share the codec (DecodeDoc, EncodeDoc) — and Marshal→Unmarshal→Marshal
// is a byte-level fixpoint, which the fuzzer and the golden round-trip
// tests enforce.

// Encode renders the spec as the indented JSON document -spec-out writes
// and -scenario-file reads.
func (s *Spec) Encode() ([]byte, error) { return EncodeDoc(s) }

// DecodeSpec parses one spec document strictly (see DecodeDoc).
func DecodeSpec(data []byte) (*Spec, error) { return DecodeDoc[Spec]("scenario: decode spec", data) }

// LoadSpec reads a spec document from disk.
func LoadSpec(path string) (*Spec, error) { return LoadDoc[Spec]("scenario: decode spec", path) }

// EncodeDoc renders v as an indented, newline-terminated JSON document:
// the form of every spec and hypothesis document.
func EncodeDoc(v any) ([]byte, error) {
	enc, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(enc, '\n'), nil
}

// DecodeDoc parses one JSON document into a new T strictly: an unknown
// key, at any depth, or content after the document is an error, which
// what prefixes. encoding/json names the unknown key.
func DecodeDoc[T any](what string, data []byte) (*T, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	v := new(T)
	if err := dec.Decode(v); err != nil {
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("%s: trailing content after document", what)
	}
	return v, nil
}

// LoadDoc reads the document at path and decodes it with DecodeDoc,
// naming the path in a decode error.
func LoadDoc[T any](what, path string) (*T, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	v, err := DecodeDoc[T](what, raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}
