package benchreport

import (
	"fmt"
	"strings"

	"repro/internal/experiments"
)

// SessionID is the plan id of the 100-receiver session micro-scenario,
// which rides along with the figure registry in every bench plan.
const SessionID = "session100x10"

// Item is one scenario of a bench plan.
type Item struct {
	ID       string // scenario id as written to the report ("figure9", SessionID)
	FigureID string // registry id ("9"); empty for the session scenario
	Title    string
	Analytic bool
	Tags     []string
}

// NewPlan enumerates the bench plan: every registry figure in
// enumeration order, then the session scenario (when includeSession).
// A non-empty only list selects a subset; ids may be registry ids ("9"),
// report ids ("figure9") or the session id. Selection never reorders —
// plan order is always enumeration order. Unknown or duplicate ids are
// errors.
func NewPlan(only []string, includeSession bool) ([]Item, error) {
	var all []Item
	for _, e := range experiments.Entries() {
		id := "figure" + e.ID
		if e.HasTag(experiments.TagScenario) {
			id = e.ID // presets keep their names in reports
		}
		all = append(all, Item{
			ID:       id,
			FigureID: e.ID,
			Title:    e.Title,
			Analytic: e.Analytic(),
			Tags:     e.Tags,
		})
	}
	if includeSession {
		all = append(all, Item{
			ID:    SessionID,
			Title: "100 receivers, 1 Mbit/s bottleneck, 10 s",
			Tags:  []string{experiments.TagEngine, experiments.TagSweep},
		})
	}
	if len(only) == 0 {
		return all, nil
	}
	want := map[string]bool{}
	for _, raw := range only {
		id, err := normalizeID(all, raw)
		if err != nil {
			return nil, err
		}
		if want[id] {
			return nil, fmt.Errorf("benchreport: duplicate id %q in selection", strings.TrimSpace(raw))
		}
		want[id] = true
	}
	var items []Item
	for _, it := range all {
		if want[it.ID] {
			items = append(items, it)
		}
	}
	return items, nil
}

// normalizeID maps a user-supplied scenario id to its plan id.
func normalizeID(all []Item, raw string) (string, error) {
	id := strings.TrimSpace(raw)
	for _, it := range all {
		if id == it.ID || (it.FigureID != "" && id == it.FigureID) || (it.ID == SessionID && id == "session") {
			return it.ID, nil
		}
	}
	known := make([]string, len(all))
	for i, it := range all {
		known[i] = it.ID
	}
	return "", fmt.Errorf("benchreport: unknown id %q (have %v)", id, known)
}
