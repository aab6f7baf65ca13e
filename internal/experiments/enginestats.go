package experiments

import (
	"fmt"
	"reflect"
	"strings"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// EngineStats aggregates raw simulation-engine counters over one or more
// scenario runs, for cmd/tfmccbench, bench/ and the root benchmarks.
//
// Each counter is declared exactly once, here: the json tag is its key
// in BENCH_engine.json (zero values are omitted, so reports of healthy
// serial scenarios carry only the first three), and the stat tag is its
// rule —
//
//	sum | max   how Add folds another sample in (arrays element-wise)
//	diag        a measurement diagnostic that varies with -check (checker
//	            ticks add events and clip windows); Deterministic drops it
//	exact       benchdiff requires equality with the baseline
//
// Add, Deterministic and benchreport.Compare walk the table built from
// these tags, so a new counter is one field here plus the line that
// harvests it.
type EngineStats struct {
	Events           uint64 `json:"events" stat:"sum,exact"`            // scheduler events executed
	PacketsSent      int64  `json:"packets_sent" stat:"sum,exact"`      // packets handed to links
	PacketsDelivered int64  `json:"packets_delivered" stat:"sum,exact"` // packets delivered by links

	// Fault counters, zero unless a scenario injects faults.
	Unreachable int64 `json:"unreachable,omitempty" stat:"sum"` // sends dropped for lack of a route (partitions, down links)
	Corrupted   int64 `json:"corrupted,omitempty" stat:"sum"`   // packets dropped as corrupted by link impairment
	Duplicated  int64 `json:"duplicated,omitempty" stat:"sum"`  // extra copies injected by link impairment

	// Recovery counters, harvested from the TFMCC sender of scenario-spec
	// runs; zero unless a run lost its CLR without an immediate
	// successor. The durations are maxima, so a merged sweep reports the
	// worst episode of any seed.
	CLRLosses      int64    `json:"clr_losses,omitempty" stat:"sum"`      // CLR lost with no immediately elected successor
	Reelections    int64    `json:"reelections,omitempty" stat:"sum"`     // successors elected after such a loss
	RateRecoveries int64    `json:"rate_recoveries,omitempty" stat:"sum"` // losses whose rate re-attained the pre-loss level
	ReelectNS      sim.Time `json:"reelect_ns,omitempty" stat:"max"`      // max loss-to-re-election sim-time
	RateRecoverNS  sim.Time `json:"rate_recover_ns,omitempty" stat:"max"` // max loss-to-rate-re-attainment sim-time

	// Region-parallel engine counters, zero on serial runs. For sharded
	// runs Events equals ControlEvents + sum(ShardEvents) and
	// HandoffsSent equals HandoffsRecv once every window drained — the
	// conservation identities benchdiff re-checks. ShardEvents is a
	// fixed array (the region count is capped at simnet.MaxAutoShards) so
	// EngineStats stays comparable; only the first EngineShards entries
	// are meaningful.
	EngineShards  int                          `json:"engine_shards,omitempty" stat:"max"`  // max regions any folded run was cut into
	ShardEvents   [simnet.MaxAutoShards]uint64 `json:"shard_events,omitzero" stat:"sum"`    // per-region events
	ControlEvents uint64                       `json:"control_events,omitempty" stat:"sum"` // control-scheduler events (checker ticks excluded)
	HandoffsSent  uint64                       `json:"handoffs_sent,omitempty" stat:"sum"`  // cross-region packets pushed by source shards
	HandoffsRecv  uint64                       `json:"handoffs_recv,omitempty" stat:"sum"`  // cross-region packets drained into destinations

	// Dispatch diagnostics: mean batch occupancy is Events/Batches; the
	// last three describe the region-parallel window schedule.
	Batches    uint64   `json:"batches,omitempty" stat:"sum,diag"`     // dispatch batches executed, every scheduler
	Windows    uint64   `json:"windows,omitempty" stat:"sum,diag"`     // region-parallel synchronization windows
	WindowNS   sim.Time `json:"window_ns,omitempty" stat:"sum,diag"`   // summed window widths
	ShardSteps uint64   `json:"shard_steps,omitempty" stat:"sum,diag"` // summed per-window counts of shards that had an event due
}

// Counter is the rule of one EngineStats field.
type Counter struct {
	Name       string // key in BENCH_engine.json
	Max        bool   // Add keeps the maximum instead of the sum
	Diagnostic bool   // dropped by Deterministic
	Exact      bool   // benchdiff gates equality with the baseline
	index      int
}

// counters is the table parsed from EngineStats' field tags at start-up.
// A field without a well-formed stat tag panics there, so a counter
// cannot exist without its rule.
var counters = func() []Counter {
	t := reflect.TypeOf(EngineStats{})
	out := make([]Counter, t.NumField())
	for i := range out {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		c := Counter{Name: name, index: i}
		merge, flag, _ := strings.Cut(f.Tag.Get("stat"), ",")
		c.Max, c.Diagnostic, c.Exact = merge == "max", flag == "diag", flag == "exact"
		kind := f.Type.Kind()
		if kind == reflect.Array {
			kind = f.Type.Elem().Kind()
		}
		integer := kind == reflect.Uint64 || kind == reflect.Int64 || kind == reflect.Int
		if name == "" || !integer || (merge != "sum" && merge != "max") ||
			(flag != "" && flag != "diag" && flag != "exact") || (c.Exact && f.Type.Kind() == reflect.Array) {
			panic(fmt.Sprintf("experiments: EngineStats.%s has no valid counter rule (json %q, stat %q)",
				f.Name, f.Tag.Get("json"), f.Tag.Get("stat")))
		}
		out[i] = c
	}
	return out
}()

// Counters returns the counter table, one rule per EngineStats field in
// declaration order.
func Counters() []Counter { return append([]Counter(nil), counters...) }

// Lookup returns the value of the counter with the given report key.
func (s *EngineStats) Lookup(name string) (uint64, bool) {
	for _, c := range counters {
		if c.Name == name {
			return c.Value(s), true
		}
	}
	return 0, false
}

// Value returns the counter's value in s (the sum of the elements for an
// array counter).
func (c Counter) Value(s *EngineStats) uint64 {
	v := reflect.ValueOf(s).Elem().Field(c.index)
	if v.Kind() != reflect.Array {
		return scalar(v)
	}
	var sum uint64
	for i := 0; i < v.Len(); i++ {
		sum += scalar(v.Index(i))
	}
	return sum
}

func scalar(v reflect.Value) uint64 {
	if v.CanUint() {
		return v.Uint()
	}
	return uint64(v.Int())
}

// fold merges src into dst under the counter's rule.
func (c Counter) fold(dst, src reflect.Value) {
	switch {
	case dst.Kind() == reflect.Array:
		for i := 0; i < dst.Len(); i++ {
			c.fold(dst.Index(i), src.Index(i))
		}
	case dst.CanUint():
		if c.Max {
			dst.SetUint(max(dst.Uint(), src.Uint()))
		} else {
			dst.SetUint(dst.Uint() + src.Uint())
		}
	default:
		if c.Max {
			dst.SetInt(max(dst.Int(), src.Int()))
		} else {
			dst.SetInt(dst.Int() + src.Int())
		}
	}
}

// Add folds another stats sample into s, each counter under its rule.
func (s *EngineStats) Add(o EngineStats) {
	dst, src := reflect.ValueOf(s).Elem(), reflect.ValueOf(&o).Elem()
	for _, c := range counters {
		c.fold(dst.Field(c.index), src.Field(c.index))
	}
}

// Deterministic returns s without its diagnostic counters: what is left
// is identical for the same seeds on any machine, worker count and
// -check setting.
func (s EngineStats) Deterministic() EngineStats {
	v := reflect.ValueOf(&s).Elem()
	for _, c := range counters {
		if c.Diagnostic {
			v.Field(c.index).SetZero()
		}
	}
	return s
}
