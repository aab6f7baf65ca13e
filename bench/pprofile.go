package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal decoder for the gzip'd profile.proto that runtime/pprof
// writes — only the fields CPU attribution needs — so the benchmark can
// bucket samples by layer without a dependency outside the standard
// library.

// profile is the decoded subset: per sample its stack as function names,
// leaf first with inlined frames expanded, and its CPU value.
type profile struct {
	Samples []profSample
}

type profSample struct {
	Stack []string // leaf (innermost inlined function) first
	Value int64    // last sample value: cpu nanoseconds for a CPU profile
}

// pbField is one decoded protobuf field: a varint or a length-delimited
// payload.
type pbField struct {
	Num   int
	Wire  int
	Int   uint64
	Bytes []byte
}

var errTruncated = errors.New("profile: truncated protobuf")

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errTruncated
}

// eachField calls fn for every field of a protobuf message.
func eachField(b []byte, fn func(pbField) error) error {
	for len(b) > 0 {
		key, rest, err := readVarint(b)
		if err != nil {
			return err
		}
		b = rest
		f := pbField{Num: int(key >> 3), Wire: int(key & 7)}
		switch f.Wire {
		case 0:
			if f.Int, b, err = readVarint(b); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			n, rest, err := readVarint(b)
			if err != nil || uint64(len(rest)) < n {
				return errTruncated
			}
			f.Bytes, b = rest[:n], rest[n:]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", f.Wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// repeatedInts decodes a repeated integer field occurrence, packed or not.
func repeatedInts(f pbField, out []uint64) ([]uint64, error) {
	if f.Wire == 0 {
		return append(out, f.Int), nil
	}
	b := f.Bytes
	for len(b) > 0 {
		v, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		out, b = append(out, v), rest
	}
	return out, nil
}

// parseProfile decodes a gzip'd (or raw) profile.proto.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []rawSample
		strs      []string
		locLines  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> string index
	)
	err := eachField(data, func(f pbField) error {
		switch f.Num {
		case 2: // Sample
			var s rawSample
			err := eachField(f.Bytes, func(g pbField) (err error) {
				switch g.Num {
				case 1:
					s.locs, err = repeatedInts(g, s.locs)
				case 2:
					s.values, err = repeatedInts(g, s.values)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Location: lines are ordered innermost inlined function first
			var id uint64
			var fns []uint64
			err := eachField(f.Bytes, func(g pbField) error {
				switch g.Num {
				case 1:
					id = g.Int
				case 4:
					return eachField(g.Bytes, func(l pbField) error {
						if l.Num == 1 {
							fns = append(fns, l.Int)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(f.Bytes, func(g pbField) error {
				switch g.Num {
				case 1:
					id = g.Int
				case 2:
					name = g.Int
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6:
			strs = append(strs, string(f.Bytes))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profSample{Value: int64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				if idx := funcNames[fn]; idx < uint64(len(strs)) {
					ps.Stack = append(ps.Stack, strs[idx])
				}
			}
		}
		p.Samples = append(p.Samples, ps)
	}
	return p, nil
}

// cpuLayers are the layers CPU samples are attributed to: the repo's
// packages with a runtime role in some workload, the Go runtime, and
// "other" for everything else (the harness itself, unattributable
// standard-library time).
var cpuLayers = []string{"sim", "simnet", "tfmcc", "lossrate", "rtt", "feedback", "tcpsim", "tcpmodel",
	"stats", "scenario", "experiments", "engine", "runtime", "other"}

var isCPULayer = func() map[string]bool {
	m := map[string]bool{}
	for _, l := range cpuLayers {
		m[l] = true
	}
	return m
}()

// funcPackage returns the import path of a symbol name as the Go linker
// writes it, e.g. "repro/internal/sim" for
// "repro/internal/sim.(*Scheduler).batchDrain".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// layerOf maps a package to its layer: "" when it is neither a repo layer
// nor the runtime.
func layerOf(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		if isCPULayer[rest] && rest != "runtime" && rest != "other" {
			return rest
		}
		return ""
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") ||
		pkg == "internal/bytealg" || pkg == "internal/abi" || pkg == "internal/cpu" {
		return "runtime"
	}
	return ""
}

// sampleLayer attributes one sample. The leaf (innermost inlined)
// function decides: a repo layer or the runtime takes the sample as self
// time. A standard-library leaf (math.Pow, sort, fmt) is charged to the
// nearest enclosing repo layer, whose self cost it is in practice; with
// no repo frame on the stack the sample is "other".
func sampleLayer(stack []string) string {
	for i, fn := range stack {
		l := layerOf(funcPackage(fn))
		if l == "runtime" && i > 0 {
			continue // a runtime frame below a std-lib leaf (e.g. goexit) decides nothing
		}
		if l != "" {
			return l
		}
	}
	return "other"
}

// cpuShares buckets a CPU profile's samples by layer and returns each
// layer's fraction of the sampled CPU time; the fractions sum to 1.
func cpuShares(data []byte) (map[string]float64, error) {
	p, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	var total float64
	for _, s := range p.Samples {
		out[sampleLayer(s.Stack)] += float64(s.Value)
		total += float64(s.Value)
	}
	if total == 0 {
		// Too short a run for even one sample: all time is unattributed.
		return map[string]float64{"other": 1}, nil
	}
	for k := range out {
		out[k] /= total
	}
	return out, nil
}
