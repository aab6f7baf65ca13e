package experiments

import (
	"fmt"
	"sort"

	"repro/internal/scenario"
)

// Registry tags classify figure reproductions for tooling (bench/
// workloads, CLI listings).
const (
	// TagAnalytic marks figures that never drive the discrete-event
	// engine: closed-form curves or Monte-Carlo plots over the feedback
	// model. Engine counters are meaningless for them.
	TagAnalytic = "analytic"
	// TagEngine marks figures reproduced by full packet-level simulation.
	TagEngine = "engine"
	// TagSweep marks stochastic figures for which multi-seed sweeps are
	// meaningful (the per-seed output depends on the random stream).
	TagSweep = "sweep"
	// TagScenario marks entries added as scenario presets (rather than
	// paper-figure reproductions). Every entry carrying a Spec — preset
	// or figure — can be run and overridden via tfmccsim -scenario.
	TagScenario = "scenario"
)

// Entry is a registered figure reproduction.
type Entry struct {
	ID    string   // stable figure identifier ("1" .. "21")
	Title string   // paper caption
	Run   Runner   // scenario builder
	Tags  []string // TagAnalytic or TagEngine, plus TagSweep when stochastic
	// Spec returns the entry's declarative scenario, when the entry is
	// backed by one (single-scenario engine figures and every preset).
	// Nil for analytic figures and for figure families that sweep many
	// sub-scenarios (13 and 14, whose runners step each sub-run's clock
	// in slices on whichever engine built it). The command line uses it
	// for -scenario runs with parameter overrides.
	Spec func() *scenario.Spec
}

// Analytic reports whether the entry never uses the simulation engine.
func (e Entry) Analytic() bool { return e.HasTag(TagAnalytic) }

// HasTag reports whether the entry carries the given tag.
func (e Entry) HasTag(tag string) bool {
	for _, t := range e.Tags {
		if t == tag {
			return true
		}
	}
	return false
}

// The registry is append-only at init time and read-only afterwards.
var (
	entries  []Entry
	entryIdx = map[string]int{}
)

func addEntry(e Entry) {
	if _, dup := entryIdx[e.ID]; dup {
		panic(fmt.Sprintf("experiments: duplicate figure id %q", e.ID))
	}
	entryIdx[e.ID] = len(entries)
	entries = append(entries, e)
}

// register adds an engine-driven stochastic figure.
func register(id, title string, r Runner) {
	addEntry(Entry{ID: id, Title: title, Run: r,
		Tags: []string{TagEngine, TagSweep}})
}

// registerSpec adds an engine figure together with its declarative
// scenario spec, making it addressable (and overridable) as a named
// preset via tfmccsim -scenario. The spec owns the title.
func registerSpec(id string, spec func() *scenario.Spec, r Runner) {
	addEntry(Entry{ID: id, Title: spec().Title, Run: r, Spec: spec,
		Tags: []string{TagEngine, TagSweep}})
}

// registerAnalytic adds a figure that does not use the simulation engine.
// sweep marks Monte-Carlo plots whose output depends on the seed.
func registerAnalytic(id, title string, sweep bool, r Runner) {
	tags := []string{TagAnalytic}
	if sweep {
		tags = append(tags, TagSweep)
	}
	addEntry(Entry{ID: id, Title: title, Run: r, Tags: tags})
}

// Lookup returns the entry registered for a figure id.
func Lookup(id string) (Entry, bool) {
	i, ok := entryIdx[id]
	if !ok {
		return Entry{}, false
	}
	return entries[i], true
}

// Entries returns all registered entries in enumeration order — numeric
// figure ids ascending, then named scenario presets lexicographically —
// the order every tool shares: listings, tfmccsim -all and the ledger.
func Entries() []Entry {
	out := append([]Entry(nil), entries...)
	sort.Slice(out, func(i, j int) bool {
		a, aNum := numericID(out[i].ID)
		b, bNum := numericID(out[j].ID)
		if aNum != bNum {
			return aNum // numeric figure ids come first
		}
		if aNum && a != b {
			return a < b
		}
		return out[i].ID < out[j].ID
	})
	return out
}

func numericID(id string) (int, bool) {
	var n int
	_, err := fmt.Sscanf(id, "%d", &n)
	return n, err == nil
}
