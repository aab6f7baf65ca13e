package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"reflect"
	"testing"
)

// A tiny profile.proto encoder, enough to build synthetic profiles.

func putVarint(b *bytes.Buffer, v uint64) {
	for v >= 0x80 {
		b.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	b.WriteByte(byte(v))
}

func putInt(b *bytes.Buffer, field int, v uint64) {
	putVarint(b, uint64(field)<<3)
	putVarint(b, v)
}

func putBytes(b *bytes.Buffer, field int, p []byte) {
	putVarint(b, uint64(field)<<3|2)
	putVarint(b, uint64(len(p)))
	b.Write(p)
}

func packed(vs ...uint64) []byte {
	var b bytes.Buffer
	for _, v := range vs {
		putVarint(&b, v)
	}
	return b.Bytes()
}

type synthSample struct {
	locs  []uint64
	value uint64
}

// synthProfile encodes functions (id = index+1, name = string index+1),
// locations (id = index+1, each a list of function ids, innermost inlined
// first) and samples, gzip'd like runtime/pprof's output.
func synthProfile(t *testing.T, funcs []string, locs [][]uint64, samples []synthSample, packSamples bool) []byte {
	t.Helper()
	var p bytes.Buffer
	for _, s := range samples {
		var m bytes.Buffer
		if packSamples {
			putBytes(&m, 1, packed(s.locs...))
			putBytes(&m, 2, packed(1, s.value))
		} else {
			for _, l := range s.locs {
				putInt(&m, 1, l)
			}
			putInt(&m, 2, 1)
			putInt(&m, 2, s.value)
		}
		putBytes(&p, 2, m.Bytes())
	}
	for i, fns := range locs {
		var m bytes.Buffer
		putInt(&m, 1, uint64(i+1))
		putInt(&m, 3, 0x401000+uint64(i)) // address, skipped by the decoder
		for _, fn := range fns {
			var line bytes.Buffer
			putInt(&line, 1, fn)
			putInt(&line, 2, 42)
			putBytes(&m, 4, line.Bytes())
		}
		putBytes(&p, 4, m.Bytes())
	}
	for i := range funcs {
		var m bytes.Buffer
		putInt(&m, 1, uint64(i+1))
		putInt(&m, 2, uint64(i+1))
		putBytes(&p, 5, m.Bytes())
	}
	putBytes(&p, 6, nil) // string_table[0] is always ""
	for _, f := range funcs {
		putBytes(&p, 6, []byte(f))
	}
	putInt(&p, 10, 12345) // duration_nanos, an unrelated top-level varint

	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	if _, err := zw.Write(p.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return z.Bytes()
}

func TestCPUSharesSyntheticProfile(t *testing.T) {
	funcs := []string{
		"repro/internal/sim.(*Scheduler).push",          // 1
		"repro/internal/sim.(*Scheduler).scheduleSeq",   // 2
		"repro/internal/simnet.(*Link).send",            // 3
		"runtime.mallocgc",                              // 4
		"math.Pow",                                      // 5
		"repro/internal/tcpmodel.Params.Throughput",     // 6
		"main.(*harness).exec",                          // 7
		"crypto/sha256.block",                           // 8
		"runtime.main",                                  // 9
		"repro/internal/sim.Pooled[go.shape.*uint8]",    // 10
		"repro/internal/sweep.RunRaw",                   // 11
		"repro/internal/experiments.(*Result).TSV",      // 12
		"fmt.Fprintf",                                   // 13
		"runtime.gcBgMarkWorker",                        // 14
		"repro/internal/tfmcc.(*Receiver).Recv",         // 15
		"repro/internal/lossrate.(*Estimator).OnPacket", // 16
	}
	locs := [][]uint64{
		{1, 2},   // 1: push inlined into scheduleSeq — the inlined leaf
		{3},      // 2
		{4},      // 3
		{5},      // 4
		{6},      // 5
		{7},      // 6
		{8},      // 7
		{9},      // 8
		{10},     // 9
		{11},     // 10
		{13},     // 11
		{12},     // 12
		{14},     // 13
		{16, 15}, // 14: OnPacket inlined into Receiver.Recv
	}
	samples := []synthSample{
		{[]uint64{1, 2, 6, 8}, 30},  // sim (inlined leaf push), called from simnet
		{[]uint64{3, 2, 6, 8}, 10},  // runtime leaf stays runtime even under simnet
		{[]uint64{4, 5, 6, 8}, 20},  // math.Pow is charged to tcpmodel
		{[]uint64{7, 6, 8}, 5},      // sha256 under the harness only: other
		{[]uint64{9, 2}, 5},         // generic sim function
		{[]uint64{10, 6, 8}, 4},     // sweep is not a CPU layer: other
		{[]uint64{11, 12, 6, 8}, 6}, // fmt under experiments.TSV
		{[]uint64{13}, 10},          // background GC
		{[]uint64{14, 2}, 10},       // lossrate inlined into tfmcc: the leaf wins
	}
	want := map[string]float64{
		"sim": 0.35, "runtime": 0.20, "tcpmodel": 0.20, "other": 0.09, "experiments": 0.06, "lossrate": 0.10,
	}
	for _, pack := range []bool{true, false} {
		got, err := cpuShares(synthProfile(t, funcs, locs, samples, pack))
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		for l, v := range got {
			total += v
			if !isCPULayer[l] {
				t.Errorf("share for unknown layer %q", l)
			}
			if math.Abs(v-want[l]) > 1e-9 {
				t.Errorf("packed=%v: %s share = %v, want %v", pack, l, v, want[l])
			}
		}
		if len(got) != len(want) {
			t.Errorf("packed=%v: layers %v, want %v", pack, got, want)
		}
		if math.Abs(total-1) > 0.001 {
			t.Errorf("packed=%v: shares sum to %v", pack, total)
		}
	}
}

func TestParseProfileExpandsInlinedFrames(t *testing.T) {
	funcs := []string{"a/b.leaf", "a/b.caller", "main.main"}
	data := synthProfile(t, funcs, [][]uint64{{1, 2}, {3}}, []synthSample{{[]uint64{1, 2}, 7}}, true)
	p, err := parseProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Samples) != 1 || p.Samples[0].Value != 7 {
		t.Fatalf("samples = %+v", p.Samples)
	}
	if want := []string{"a/b.leaf", "a/b.caller", "main.main"}; !reflect.DeepEqual(p.Samples[0].Stack, want) {
		t.Errorf("stack = %v, want %v", p.Samples[0].Stack, want)
	}
}

func TestParseProfileRejectsTruncatedInput(t *testing.T) {
	if _, err := parseProfile([]byte{0x12, 0x05, 0x01}); err == nil {
		t.Error("truncated message parsed without error")
	}
	if _, err := parseProfile([]byte{0x1f, 0x8b, 0x00}); err == nil {
		t.Error("broken gzip parsed without error")
	}
}

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"repro/internal/sim.(*Scheduler).batchDrain": "repro/internal/sim",
		"repro/internal/sim.Pooled[go.shape.*uint8]": "repro/internal/sim",
		"runtime.mallocgc":                           "runtime",
		"internal/runtime/atomic.Load":               "internal/runtime/atomic",
		"main.main":                                  "main",
		"type:.eq.[2]string":                         "type:",
	} {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
}
