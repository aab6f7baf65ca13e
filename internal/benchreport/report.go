// Package benchreport measures the bench plan and produces and gates the
// BENCH_engine.json engine-benchmark reports emitted by cmd/tfmccbench.
//
// A report measures a *plan*: the registry's figures (in enumeration
// order) plus the session micro-scenario, one Metrics entry each. Its
// deterministic form (Strip) carries only simulation-determined counters
// and is byte-identical for the same plan and seeds on any machine and
// any worker count.
package benchreport

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/experiments"
)

// SetupAmort quantifies how arena reuse amortises scenario construction:
// cold is the first run on a fresh arena, warm the mean of the rewound
// reruns.
type SetupAmort struct {
	ColdAllocs     uint64  `json:"cold_allocs"`
	WarmAllocs     float64 `json:"warm_allocs_per_run"`
	AllocReduction float64 `json:"alloc_reduction"`
}

// Metrics is one scenario's aggregate engine measurement: the engine
// counters summed over the sweep's seeds (experiments.EngineStats, whose
// field tags are the report keys) plus what the measurement adds around
// them. Wall time, allocation and rate fields depend on the machine and
// are the ones Strip removes, together with the diagnostic counters.
type Metrics struct {
	ID       string   `json:"id"`
	Title    string   `json:"title"`
	Tags     []string `json:"tags,omitempty"`
	Runs     int      `json:"runs"` // seeds swept
	Analytic bool     `json:"analytic,omitempty"`
	WallNS   int64    `json:"wall_ns,omitempty"`
	experiments.EngineStats
	// EngineWorkers is the -engineworkers value of a measurement that
	// actually ran sharded (omitted on serial runs).
	EngineWorkers int `json:"engine_workers,omitempty"`
	// MeanBatch = Events/Batches is the mean dispatch-batch occupancy; a
	// diagnostic like Batches itself.
	MeanBatch float64 `json:"mean_batch,omitempty"`
	// Violations holds run-level invariant violations (only collected
	// when the run enables checking); Failures records seeds whose run
	// panicked and was excluded from the merge. Both deterministic.
	Violations    []string    `json:"violations,omitempty"`
	Failures      []string    `json:"failures,omitempty"`
	Allocs        uint64      `json:"allocs,omitempty"`
	EventsPerSec  float64     `json:"events_per_sec,omitempty"`
	PacketsPerSec float64     `json:"packets_per_sec,omitempty"`
	NSPerEvent    float64     `json:"ns_per_event,omitempty"`
	AllocsPerEvt  float64     `json:"allocs_per_event,omitempty"`
	Setup         *SetupAmort `json:"setup_amortization,omitempty"`
}

// Report is the BENCH_engine.json document.
type Report struct {
	Generated string `json:"generated,omitempty"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	Seeds     int    `json:"seeds"`
	Workers   int    `json:"workers,omitempty"`
	// WallNS is the total measurement wall time.
	WallNS int64 `json:"wall_ns,omitempty"`
	// Deterministic marks a report stripped of machine-dependent fields,
	// the form compared byte-for-byte across runs and worker counts.
	Deterministic bool      `json:"deterministic,omitempty"`
	Scenarios     []Metrics `json:"scenarios"`
}

// Encode renders the report exactly as tfmccbench writes it to disk.
func (r *Report) Encode() ([]byte, error) {
	enc, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(enc, '\n'), nil
}

// WriteFile writes the encoded report to path ("-" for stdout).
func (r *Report) WriteFile(path string) error {
	enc, err := r.Encode()
	if err != nil {
		return err
	}
	if path == "-" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(path, enc, 0o644)
}

// Load reads a report from disk.
func Load(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &Report{}
	if err := json.Unmarshal(raw, r); err != nil {
		return nil, fmt.Errorf("benchreport: %s: %w", path, err)
	}
	return r, nil
}

// Strip returns a deterministic copy without any field that depends on
// wall time, the allocator, the clock or the worker count — generated
// stamp, workers, wall/rate metrics, allocation counts, setup
// amortisation and the diagnostic counters — leaving only
// simulation-deterministic counters. Two deterministic reports of the
// same plan and seeds are byte-identical.
func (r *Report) Strip() *Report {
	out := *r
	out.Generated = ""
	out.Deterministic = true
	out.Workers = 0
	out.WallNS = 0
	out.Scenarios = make([]Metrics, len(r.Scenarios))
	for i, m := range r.Scenarios {
		m.WallNS = 0
		m.Allocs = 0
		m.EventsPerSec = 0
		m.PacketsPerSec = 0
		m.NSPerEvent = 0
		m.AllocsPerEvt = 0
		m.Setup = nil
		m.MeanBatch = 0
		m.EngineStats = m.EngineStats.Deterministic()
		out.Scenarios[i] = m
	}
	return &out
}
