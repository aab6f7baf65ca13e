package experiments

import (
	"fmt"
	"sort"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
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

// Entry is a registered figure reproduction: a declarative scenario plus
// a report over its completed run (Spec, Report), a family of spec runs
// (Family), or, for the analytic figures only, a runner that drives a
// model itself (Run).
type Entry struct {
	ID    string   // stable figure identifier ("1" .. "21")
	Title string   // paper caption
	Tags  []string // TagAnalytic or TagEngine, plus TagSweep when stochastic
	// Spec returns the entry's declarative scenario: single-scenario
	// engine figures and every preset. FigureJob builds it, runs it to
	// its duration and renders it with Report; the command line also
	// runs it with parameter overrides through -scenario.
	Spec func() *scenario.Spec
	// Report renders the Result of Spec's completed run. Nil means the
	// generic report (every series plus steady-state notes).
	Report func(*scenario.Scenario) *Result
	Family *Family // many spec runs: figures 13 and 14
	Run    Runner  // an analytic figure, which never drives the engine
}

// Family is an engine figure made of many spec runs. FigureJob calls
// Members once per job, never at init, runs each member on the one run
// path and hands Report what survives each, in member order. A job's
// seeds share the member specs, which every run only reads.
type Family struct {
	Members func() []Member
	Report  func([]MemberRun) *Result
}

// Member is one run of a Family: Spec at the family's seed plus Seed, run
// to its duration or to the first 100 ms grid instant at which Stop holds.
type Member struct {
	Spec *scenario.Spec
	Seed int64
	Stop func(sc *scenario.Scenario, now sim.Time) bool // nil: never
}

// MemberRun is what survives a member's run past the next member's
// rewind, which recycles its sender, links and receivers.
type MemberRun struct {
	Samples []*stats.Series // the spec's sample series
	End     sim.Time        // the instant the run ended
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
	engine := e.Spec != nil || e.Family != nil
	if e.Spec != nil && e.Family != nil || engine == (e.Run != nil) || engine != e.HasTag(TagEngine) ||
		e.Report != nil && e.Spec == nil {
		panic(fmt.Sprintf("experiments: entry %q must be an engine entry with one of Spec (and an optional Report) and Family, or an analytic one with Run", e.ID))
	}
	entryIdx[e.ID] = len(entries)
	entries = append(entries, e)
}

// registerFamily adds an engine figure made of many spec runs.
func registerFamily(id, title string, members func() []Member, report func([]MemberRun) *Result) {
	addEntry(Entry{ID: id, Title: title, Family: &Family{members, report}, Tags: []string{TagEngine, TagSweep}})
}

// registerSpec adds an engine entry as its declarative scenario spec and
// the report over its completed run, making it addressable (and
// overridable) as a named preset via tfmccsim -scenario. The spec owns
// the title; tags follow TagEngine and TagSweep.
func registerSpec(id string, spec func() *scenario.Spec, report func(*scenario.Scenario) *Result, tags ...string) {
	addEntry(Entry{ID: id, Title: spec().Title, Spec: spec, Report: report,
		Tags: append([]string{TagEngine, TagSweep}, tags...)})
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
