package experiments

import (
	"fmt"
	"reflect"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// EngineStats aggregates raw simulation-engine counters over one or more
// scenario runs, for sweeps, hypothesis counter bounds, bench/ and the
// root benchmarks.
//
// Each counter is declared exactly once, here: the json tag is its key
// (what Lookup and a hypothesis counter_bound name it by) and the stat
// tag is how Add folds another sample in — sum or max, arrays
// element-wise. Add and Lookup walk the table built from these tags, so
// a new counter is one field here plus the line that harvests it.
type EngineStats struct {
	Events           uint64 `json:"events" stat:"sum"`            // scheduler events executed
	PacketsSent      int64  `json:"packets_sent" stat:"sum"`      // packets handed to links
	PacketsDelivered int64  `json:"packets_delivered" stat:"sum"` // packets delivered by links

	// Fault counters, zero unless a scenario injects faults.
	Unreachable int64 `json:"unreachable" stat:"sum"` // sends dropped for lack of a route (partitions, down links)
	Corrupted   int64 `json:"corrupted" stat:"sum"`   // packets dropped as corrupted by link impairment
	Duplicated  int64 `json:"duplicated" stat:"sum"`  // extra copies injected by link impairment

	// Recovery counters, harvested from the TFMCC sender of scenario-spec
	// runs; zero unless a run lost its CLR without an immediate
	// successor. The durations are maxima, so a merged sweep reports the
	// worst episode of any seed.
	CLRLosses      int64    `json:"clr_losses" stat:"sum"`      // CLR lost with no immediately elected successor
	Reelections    int64    `json:"reelections" stat:"sum"`     // successors elected after such a loss
	RateRecoveries int64    `json:"rate_recoveries" stat:"sum"` // losses whose rate re-attained the pre-loss level
	ReelectNS      sim.Time `json:"reelect_ns" stat:"max"`      // max loss-to-re-election sim-time
	RateRecoverNS  sim.Time `json:"rate_recover_ns" stat:"max"` // max loss-to-rate-re-attainment sim-time

	// Region engine counters, zero on serial runs. For sharded
	// runs Events equals ControlEvents + sum(ShardEvents) and
	// HandoffsSent equals HandoffsRecv once every window drained — the
	// conservation identities engine.TestEngineStatsConservation and
	// bench/ check. ShardEvents is a fixed array (the region count is
	// capped at simnet.MaxAutoShards) so EngineStats stays comparable;
	// only the first EngineShards entries are meaningful.
	EngineShards  int                          `json:"engine_shards" stat:"max"`  // max regions any folded run was cut into
	ShardEvents   [simnet.MaxAutoShards]uint64 `json:"shard_events" stat:"sum"`   // per-region events
	ControlEvents uint64                       `json:"control_events" stat:"sum"` // control-scheduler events (checker ticks excluded)
	HandoffsSent  uint64                       `json:"handoffs_sent" stat:"sum"`  // cross-region packets pushed by source shards
	HandoffsRecv  uint64                       `json:"handoffs_recv" stat:"sum"`  // cross-region packets drained into destinations

	// Dispatch diagnostics: mean batch occupancy is Events/Batches; the
	// last three describe the region window schedule. They vary
	// with -check (checker ticks add events and clip windows).
	Batches    uint64   `json:"batches" stat:"sum"`     // dispatch batches executed, every scheduler
	Windows    uint64   `json:"windows" stat:"sum"`     // region synchronization windows
	WindowNS   sim.Time `json:"window_ns" stat:"sum"`   // summed window widths
	ShardSteps uint64   `json:"shard_steps" stat:"sum"` // summed per-window counts of shards that had an event due
}

// counter is the rule of one EngineStats field.
type counter struct {
	name string // key Lookup finds it by
	max  bool   // Add keeps the maximum instead of the sum
}

// counters is the table parsed from EngineStats' field tags at start-up.
// A field without a well-formed stat tag panics there, so a counter
// cannot exist without its rule.
var counters = func() []counter {
	t := reflect.TypeOf(EngineStats{})
	out := make([]counter, t.NumField())
	for i := range out {
		f := t.Field(i)
		name, merge := f.Tag.Get("json"), f.Tag.Get("stat")
		kind := f.Type.Kind()
		if kind == reflect.Array {
			kind = f.Type.Elem().Kind()
		}
		integer := kind == reflect.Uint64 || kind == reflect.Int64 || kind == reflect.Int
		if name == "" || !integer || (merge != "sum" && merge != "max") {
			panic(fmt.Sprintf("experiments: EngineStats.%s has no valid counter rule (json %q, stat %q)",
				f.Name, name, merge))
		}
		out[i] = counter{name: name, max: merge == "max"}
	}
	return out
}()

// Lookup returns the value of the counter with the given key (the sum of
// the elements for an array counter).
func (s *EngineStats) Lookup(name string) (uint64, bool) {
	for i, c := range counters {
		if c.name != name {
			continue
		}
		v := reflect.ValueOf(s).Elem().Field(i)
		if v.Kind() != reflect.Array {
			return scalar(v), true
		}
		var sum uint64
		for i := 0; i < v.Len(); i++ {
			sum += scalar(v.Index(i))
		}
		return sum, true
	}
	return 0, false
}

func scalar(v reflect.Value) uint64 {
	if v.CanUint() {
		return v.Uint()
	}
	return uint64(v.Int())
}

// fold merges src into dst under the counter's rule.
func (c counter) fold(dst, src reflect.Value) {
	switch {
	case dst.Kind() == reflect.Array:
		for i := 0; i < dst.Len(); i++ {
			c.fold(dst.Index(i), src.Index(i))
		}
	case dst.CanUint():
		if c.max {
			dst.SetUint(max(dst.Uint(), src.Uint()))
		} else {
			dst.SetUint(dst.Uint() + src.Uint())
		}
	default:
		if c.max {
			dst.SetInt(max(dst.Int(), src.Int()))
		} else {
			dst.SetInt(dst.Int() + src.Int())
		}
	}
}

// Add folds another stats sample into s, each counter under its rule.
func (s *EngineStats) Add(o EngineStats) {
	dst, src := reflect.ValueOf(s).Elem(), reflect.ValueOf(&o).Elem()
	for i, c := range counters {
		c.fold(dst.Field(i), src.Field(i))
	}
}
