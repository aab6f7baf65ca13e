package experiments

import (
	"fmt"
	"sort"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Entry is a registered figure reproduction: an engine entry is a list
// of spec runs (Members) rendered by one Report over what survives them,
// an analytic figure a runner that drives a model itself (Run).
type Entry struct {
	ID    string // stable figure identifier ("1" .. "21") or preset name
	Title string // paper caption, or the spec's title
	// Spec returns the declarative scenario of an entry that is one spec
	// run — the single-scenario figures and every preset — whose Members
	// are that spec alone. The command line also runs it with parameter
	// overrides through -scenario.
	Spec func() *scenario.Spec
	// Members returns an engine entry's runs. FigureJob calls it once per
	// job, never at init, runs each member on the one run path and hands
	// Report what survives each, in member order. A job's seeds share the
	// member specs, which every run only reads.
	Members func() []Member
	Report  func([]MemberRun) *Result
	Run     Runner // an analytic figure, which never drives the engine
}

// Member is one run of an engine entry: Spec at the job's seed plus
// Seed, run to its duration or to the first 100 ms grid instant at which
// Stop holds.
type Member struct {
	Spec *scenario.Spec
	Seed int64
	Stop func(sc *scenario.Scenario, now sim.Time) bool // nil: never
}

// MemberRun is what survives a member's run past the next member's
// rewind, which recycles its sender, links and receivers.
type MemberRun struct {
	Spec   *scenario.Spec
	Series []*stats.Series // every series the run collected, in Scenario.Series order
	End    sim.Time        // the instant the run ended
	// Recvs and Flows count the declared receivers and flows, known only
	// after the build (a per-attach population sizes itself then).
	Recvs, Flows int
}

// Analytic reports whether the entry never uses the simulation engine.
func (e Entry) Analytic() bool { return e.Run != nil }

// The registry is append-only at init time and read-only afterwards.
var (
	entries  []Entry
	entryIdx = map[string]int{}
)

func addEntry(e Entry) {
	if _, dup := entryIdx[e.ID]; dup {
		panic(fmt.Sprintf("experiments: duplicate figure id %q", e.ID))
	}
	if (e.Members == nil) == (e.Run == nil) || (e.Members == nil) != (e.Report == nil) || e.Spec != nil && e.Run != nil {
		panic(fmt.Sprintf("experiments: entry %q must be an engine entry with Members and a Report, or an analytic one with Run", e.ID))
	}
	entryIdx[e.ID] = len(entries)
	entries = append(entries, e)
}

// registerSpec adds an engine entry that is one run of its declarative
// scenario spec, rendered by report, making it addressable (and
// overridable) as a named preset via tfmccsim -scenario. The spec owns
// the title.
func registerSpec(id string, spec func() *scenario.Spec, report func([]MemberRun) *Result) {
	members := func() []Member { return []Member{{Spec: spec()}} }
	addEntry(Entry{ID: id, Title: spec().Title, Spec: spec, Members: members, Report: report})
}

// registerAnalytic adds a figure that does not use the simulation engine.
func registerAnalytic(id, title string, r Runner) {
	addEntry(Entry{ID: id, Title: title, Run: r})
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
