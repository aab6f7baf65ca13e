package experiments

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// The golden ledger pins what "these bytes do not move" means: one row
// per registry entry at seed 1 — the sha256 of Result.TSV(), the run's
// deterministic engine counters and the sha256 of the Result's title and
// notes, where the paper comparisons live — plus a second universe of
// rows on the region engine and a third of merged multi-seed bands. A
// change that moves a row on purpose regenerates the file with
//
//	go test ./internal/experiments -run TestGoldenLedger -update
//
// and says why in CHANGES.md; nothing but this test reads the flag.
var updateLedger = flag.Bool("update", false, "rewrite testdata/golden.sums from this run instead of comparing against it")

const ledgerPath = "testdata/golden.sums"

const ledgerHeader = `# Golden ledger: sha256 of Result.TSV() and the deterministic engine
# counters of every registry entry at seed 1, invariant checker off.
# Verified by TestGoldenLedger; regenerate only with
#   go test ./internal/experiments -run TestGoldenLedger -update
# and a CHANGES.md line saying why the bytes moved.
#
# universe "serial" is the default engine, "ew2" is SetEngineWorkers(2)
# (its own deterministic universe, invariant in the worker count).
# Every entry runs in full — figures 7 and 13 included, they have no
# duration knob. Figure 12 is also pinned as its spec under a Duration
# override ("12@40s" = 40 simulated seconds through the generic spec
# runner) in both universes; only its serial row runs it in full,
# through its own report.
# Universe "sweep" pins SweepResult.TSV() of a 4-seed sweep from seed 1
# (what tfmccsim -figure <id> -seeds 4 -tsv prints), the seeds' summed
# counters and the title and every seed's notes, in seed order.
#
# universe	id	sha256(tsv)	events	packets_sent	packets_delivered	sha256(title+notes)
`

// ledgerRow identifies one run of the ledger. A zero dur runs the
// registry entry's own runner; otherwise the entry's spec runs for dur
// through RunOverridden. A sweep row sweeps the entry over sweepSeeds
// seeds on one worker.
type ledgerRow struct {
	universe string // "serial", "ew2" or "sweep"
	entry    string
	dur      sim.Time
}

func (r ledgerRow) id() string {
	if r.dur > 0 {
		return fmt.Sprintf("%s@%.0fs", r.entry, r.dur.Seconds())
	}
	return r.entry
}

func (r ledgerRow) key() string { return r.universe + "\t" + r.id() }

// sweepSeeds is the seed count of the sweep rows.
const sweepSeeds = 4

// ledgerFields renders a row: the sha256 of its TSV, its event and packet
// counters and the sha256 of its title and notes.
func ledgerFields(tsv string, st EngineStats, title string, notes []string) string {
	text := strings.Join(append([]string{title}, notes...), "\n")
	return fmt.Sprintf("%x\t%d\t%d\t%d\t%x", sha256.Sum256([]byte(tsv)),
		st.Events, st.PacketsSent, st.PacketsDelivered, sha256.Sum256([]byte(text)))
}

// run executes the row on ctx, whose counters it resets first (a sweep
// row makes its own contexts), and renders its ledger fields. A panic is
// returned as the row's error.
func (r ledgerRow) run(ctx *RunCtx) (fields string, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	if r.universe == "sweep" {
		job, err := FigureJob(r.entry)
		if err != nil {
			return "", err
		}
		res := Sweep(job, sweep.Config{Seeds: sweepSeeds, Workers: 1, Base: 1})
		var notes []string
		for _, run := range res.Runs {
			if run.Err != nil {
				return "", run.Err
			}
			notes = append(notes, run.Result.Notes...)
		}
		return ledgerFields(res.TSV(), res.Engine, res.Title, notes), nil
	}
	ctx.ResetStats()
	if r.universe == "ew2" {
		ctx.SetEngineWorkers(2)
	}
	var res *Result
	if r.dur > 0 {
		ov := scenario.None()
		ov.Duration = r.dur
		res, err = RunOverridden(ctx, r.entry, ov, 1)
	} else {
		res, err = RunWith(ctx, r.entry, 1)
	}
	if err != nil {
		return "", err
	}
	if e, _ := Lookup(r.entry); res.Title != e.Title {
		return "", fmt.Errorf("result title %q, registry title %q", res.Title, e.Title)
	}
	return ledgerFields(res.TSV(), ctx.Stats(), res.Title, res.Notes), nil
}

// ledgerResult is a row's rendered fields, or the error that stopped it.
type ledgerResult struct {
	fields string
	err    error
}

// runChains runs rows as two chains, the even and the odd rows in order,
// each on one context of its own, so every row but the two heads runs on
// an environment that last built a different scenario. Two rows make one
// chain, so that one of them still does. It returns one buffered channel
// per row that delivers the row's result, so a chain never blocks.
func runChains(rows []ledgerRow) []chan ledgerResult {
	out := make([]chan ledgerResult, len(rows))
	for i := range out {
		out[i] = make(chan ledgerResult, 1)
	}
	chains := min(2, (len(rows)+1)/2)
	for head := range chains {
		go func() {
			ctx := NewRunCtx()
			for i := head; i < len(rows); i += chains {
				fields, err := rows[i].run(ctx)
				out[i] <- ledgerResult{fields, err}
			}
		}()
	}
	return out
}

// ledgerRows enumerates the ledger in file order: the whole registry on
// the serial engine, figure 12 also at 40 s, then the sharded universe's
// subset (figure 12 only at 40 s), then the swept
// entries: a cheap engine figure and a fault preset, whose seeds spread,
// so their bands' CI columns are not their means.
func ledgerRows() []ledgerRow {
	const short12 = 40 * sim.Second
	var rows []ledgerRow
	for _, e := range Entries() {
		if e.ID == "12" {
			rows = append(rows, ledgerRow{universe: "serial", entry: e.ID, dur: short12})
		}
		rows = append(rows, ledgerRow{universe: "serial", entry: e.ID})
	}
	for _, id := range []string{"wireless", "chainloss", "deeptree", "flashcrowd"} {
		rows = append(rows, ledgerRow{universe: "ew2", entry: id})
	}
	return append(rows, ledgerRow{universe: "ew2", entry: "12", dur: short12},
		ledgerRow{universe: "ew2", entry: "14"}, ledgerRow{universe: "ew2", entry: "massleave"},
		ledgerRow{universe: "sweep", entry: "15"}, ledgerRow{universe: "sweep", entry: "clrfail"})
}

// readLedger parses the committed file into key -> fields.
func readLedger(t *testing.T) map[string]string {
	raw, err := os.ReadFile(ledgerPath)
	if os.IsNotExist(err) && *updateLedger {
		return map[string]string{}
	}
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.SplitN(line, "\t", 3)
		if len(f) != 3 {
			t.Fatalf("%s: malformed row %q", ledgerPath, line)
		}
		want[f[0]+"\t"+f[1]] = f[2]
	}
	return want
}

// checkedRows are the serial rows the checked pass of TestGoldenLedger
// reruns with the invariant checker armed: the fault presets and the
// churn-heavy ones, where the protocol-level predicates have the most to
// look at. The pass reruns every ew2 row as well.
var checkedRows = []string{"degrade", "clrfail", "partition", "corruptfb", "flashcrowd", "massleave", "tcpburst"}

// TestGoldenLedger runs every ledger row and requires the committed
// fields. The committed sums are those of fresh builds, but each
// universe's rows run as the two chains of runChains, concurrently: the
// ledger thereby also pins that a rebuild on an environment recycled
// from another scenario equals a fresh build. Subtests are named
// <universe>/<id>, and the chains run only the rows a -run filter
// selects: each row's subtest enlists its row and pauses (t.Parallel)
// until its universe has enlisted every selected row and started the
// chains over them.
//
// A last pass reruns checkedRows (as checked/<id>) and every ew2 row (as
// checked/ew2/<id>) on one context with the invariant checker armed: each
// must reproduce its unchecked fields (this run's, else the committed
// ones) and record no violation, dropped ones included, so arming the
// checker moves no byte on either engine. It adds no ledger rows.
func TestGoldenLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole registry")
	}
	want := readLedger(t)
	rows := ledgerRows()
	if !*updateLedger {
		known := map[string]bool{}
		for _, r := range rows {
			known[r.key()] = true
		}
		for k := range want {
			if !known[k] {
				t.Errorf("ledger row %q has no registry entry behind it; rerun with -update", k)
			}
		}
	}
	var mu sync.Mutex // guards got, which a universe's rows fill concurrently
	got := map[string]string{}
	for _, universe := range []string{"serial", "ew2", "sweep"} {
		t.Run(universe, func(t *testing.T) {
			var selected []ledgerRow
			var results []chan ledgerResult
			for _, r := range rows {
				if r.universe != universe {
					continue
				}
				t.Run(r.id(), func(t *testing.T) {
					i := len(selected)
					selected = append(selected, r)
					t.Parallel() // resumes once results is set
					res := <-results[i]
					if res.err != nil {
						t.Fatal(res.err)
					}
					fields := res.fields
					mu.Lock()
					got[r.key()] = fields
					mu.Unlock()
					if *updateLedger {
						return
					}
					switch w, ok := want[r.key()]; {
					case !ok:
						t.Errorf("no ledger row; rerun with -update and say why in CHANGES.md\n got: %s", fields)
					case w != fields:
						t.Errorf("ledger row moved (sha256, events, packets sent, delivered, notes); if intended, rerun with -update and say why in CHANGES.md\nwant: %s\n got: %s", w, fields)
					}
				})
			}
			results = runChains(selected)
		})
	}
	t.Run("checked", func(t *testing.T) {
		var crows []ledgerRow
		for _, id := range checkedRows {
			crows = append(crows, ledgerRow{universe: "serial", entry: id})
		}
		for _, r := range rows {
			if r.universe == "ew2" {
				crows = append(crows, r)
			}
		}
		ctx := NewRunCtx()
		ctx.EnableInvariants()
		for _, r := range crows {
			name := r.id()
			if r.universe == "ew2" {
				name = "ew2/" + name
			}
			t.Run(name, func(t *testing.T) {
				fields, err := r.run(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if vs := ctx.Violations(); len(vs) > 0 || ctx.dropped > 0 {
					t.Errorf("%d invariant violations (+%d dropped)", len(vs), ctx.dropped)
					for _, v := range vs {
						t.Log(v)
					}
				}
				w, ok := got[r.key()]
				if !ok {
					w, ok = want[r.key()]
				}
				if ok && w != fields {
					t.Errorf("arming the invariant checker moved the row (sha256, events, packets sent, delivered, notes)\nunchecked: %s\n  checked: %s", w, fields)
				}
			})
		}
	})
	if !*updateLedger {
		return
	}
	// Rows a -run filter skipped keep their committed fields.
	var b strings.Builder
	b.WriteString(ledgerHeader)
	for _, r := range rows {
		fields, ok := got[r.key()]
		if !ok {
			if fields, ok = want[r.key()]; !ok {
				continue
			}
		}
		fmt.Fprintf(&b, "%s\t%s\n", r.key(), fields)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ledgerPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
