// Package benchreport produces, shards and merges the BENCH_engine.json
// engine-benchmark reports emitted by cmd/tfmccbench.
//
// A report measures a *plan*: the registry's figures (in enumeration
// order) plus the session micro-scenario, each stamped with its
// plan-relative sequence number. CI matrix jobs run disjoint shards of
// the plan (cost-balanced via the registry's weights) and emit fragment
// reports; Merge recombines fragments by sequence number — the same
// seed-indexed discipline stats.MergeRuns uses — so the merged report is
// byte-identical to an unsharded run once timing-dependent fields are
// stripped (Deterministic).
package benchreport

import (
	"encoding/json"
	"fmt"
	"os"
)

// SetupAmort quantifies how arena reuse amortises scenario construction:
// cold is the first run on a fresh arena, warm the mean of the rewound
// reruns.
type SetupAmort struct {
	ColdAllocs     uint64  `json:"cold_allocs"`
	WarmAllocs     float64 `json:"warm_allocs_per_run"`
	AllocReduction float64 `json:"alloc_reduction"`
}

// Metrics is one scenario's aggregate engine measurement. Events and
// packet counts are simulation-deterministic (same seeds ⇒ same values
// on any machine); wall time and allocation fields are not, and are the
// ones Deterministic strips.
type Metrics struct {
	ID           string   `json:"id"`
	Seq          int      `json:"seq"` // position in the measured plan; drives merge order
	Title        string   `json:"title"`
	Tags         []string `json:"tags,omitempty"`
	Runs         int      `json:"runs"` // seeds swept
	Analytic     bool     `json:"analytic,omitempty"`
	WallNS       int64    `json:"wall_ns,omitempty"`
	Events       uint64   `json:"events"`
	PacketsSent  int64    `json:"packets_sent"`
	PacketsDeliv int64    `json:"packets_delivered"`
	// Fault-injection counters (simulation-deterministic, zero — and
	// omitted — unless the scenario schedules faults).
	Unreachable int64 `json:"unreachable,omitempty"`
	Corrupted   int64 `json:"corrupted,omitempty"`
	Duplicated  int64 `json:"duplicated,omitempty"`
	// Region-parallel engine counters (simulation-deterministic, zero —
	// and omitted — unless the run used -engineworkers >= 2). Events
	// above then equals ControlEvents + sum(ShardEvents), and
	// HandoffsSent equals HandoffsRecv: the conservation identities
	// Compare re-checks, so a partitioning bug that drops cross-region
	// packets fails the benchdiff gate.
	EngineWorkers int      `json:"engine_workers,omitempty"`
	EngineShards  int      `json:"engine_shards,omitempty"`
	ShardEvents   []uint64 `json:"shard_events,omitempty"`
	ControlEvents uint64   `json:"control_events,omitempty"`
	HandoffsSent  uint64   `json:"handoffs_sent,omitempty"`
	HandoffsRecv  uint64   `json:"handoffs_recv,omitempty"`
	// Batch-dispatch diagnostics. Batches counts dispatch batches across
	// every scheduler; MeanBatch = Events/Batches is the mean occupancy.
	// Windows/WindowNS/ShardSteps describe the region-parallel window
	// schedule: ShardSteps sums, over windows, the shards that had an
	// event due (ShardSteps/Windows = mean busy shards per window).
	// Unlike the counters above these vary with -check (checker ticks add
	// events and clip windows), so Strip removes them: they are
	// measurement diagnostics for benchdiff history, not part of the
	// deterministic identity.
	Batches    uint64  `json:"batches,omitempty"`
	MeanBatch  float64 `json:"mean_batch,omitempty"`
	Windows    uint64  `json:"windows,omitempty"`
	WindowNS   int64   `json:"window_ns,omitempty"`
	ShardSteps uint64  `json:"shard_steps,omitempty"`
	// Recovery-time counters (simulation-deterministic, zero — and
	// omitted — unless a run lost its CLR without an immediate successor).
	// Counts sum across the sweep's seeds; the _ns fields are the worst
	// (maximum) episode of any seed, in simulated nanoseconds.
	CLRLosses      int64 `json:"clr_losses,omitempty"`
	Reelections    int64 `json:"reelections,omitempty"`
	RateRecoveries int64 `json:"rate_recoveries,omitempty"`
	ReelectNS      int64 `json:"reelect_ns,omitempty"`
	RateRecoverNS  int64 `json:"rate_recover_ns,omitempty"`
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

// Report is the BENCH_engine.json document — either a full run, a shard
// fragment (Shard = "i/N"), or the merge of a fragment set.
type Report struct {
	Generated string `json:"generated,omitempty"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	Seeds     int    `json:"seeds"`
	Workers   int    `json:"workers"`
	// PlanSize is the total number of scenarios in the (unsharded) plan
	// this report measures a subset of; Merge checks fragment coverage
	// against it.
	PlanSize int `json:"plan_size"`
	// PlanIDs lists every scenario id of that plan in order, so Merge can
	// refuse fragments that sharded *different* selections (identical
	// headers alone cannot tell them apart).
	PlanIDs []string `json:"plan,omitempty"`
	// Shard is "i/N" (1-based) on fragments, empty on full and merged
	// reports.
	Shard string `json:"shard,omitempty"`
	// SeedShard is "i/N" on seed-range fragments: every scenario of the
	// plan measured over a contiguous sub-range of the seeds (SeedBase
	// up). Empty on full, scenario-sharded and merged reports.
	SeedShard string `json:"seed_shard,omitempty"`
	// SeedBase is the first seed this report measured (default 1).
	SeedBase int64 `json:"seed_base,omitempty"`
	// WallNS is the fragment's total measurement wall time — the number
	// CI surfaces per shard to see how the matrix is balanced. Stripped
	// in the deterministic form.
	WallNS int64 `json:"wall_ns,omitempty"`
	// Fragments, on a merged report, records each input fragment's
	// identity and wall time for the fan-in job summary. Stripped in the
	// deterministic form.
	Fragments []FragmentMeta `json:"fragments,omitempty"`
	// Deterministic marks a report stripped of timing-dependent fields,
	// the form compared byte-for-byte across sharded and unsharded runs.
	Deterministic bool      `json:"deterministic,omitempty"`
	Scenarios     []Metrics `json:"scenarios"`
}

// FragmentMeta summarises one merged-in fragment for reporting.
type FragmentMeta struct {
	Shard     string `json:"shard,omitempty"`
	SeedShard string `json:"seed_shard,omitempty"`
	Scenarios int    `json:"scenarios"`
	WallNS    int64  `json:"wall_ns"`
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

// Load reads a report or fragment from disk.
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

// Strip returns a deterministic copy stripped of every field that depends on
// wall time, the allocator or the clock — generated stamp, wall/rate
// metrics, allocation counts and setup amortisation — leaving only
// simulation-deterministic counters. Two deterministic reports of the
// same plan and seeds are byte-identical however the work was sharded.
func (r *Report) Strip() *Report {
	out := *r
	out.Generated = ""
	out.Deterministic = true
	out.WallNS = 0
	out.Fragments = nil
	out.Scenarios = make([]Metrics, len(r.Scenarios))
	for i, m := range r.Scenarios {
		m.WallNS = 0
		m.Allocs = 0
		m.EventsPerSec = 0
		m.PacketsPerSec = 0
		m.NSPerEvent = 0
		m.AllocsPerEvt = 0
		m.Setup = nil
		m.Batches = 0
		m.MeanBatch = 0
		m.Windows = 0
		m.WindowNS = 0
		m.ShardSteps = 0
		out.Scenarios[i] = m
	}
	return &out
}
