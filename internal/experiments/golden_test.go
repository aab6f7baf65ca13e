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
)

// The golden ledger pins what "these bytes do not move" means: one row
// per registry entry at seed 1 — the sha256 of Result.TSV(), the run's
// deterministic engine counters and the sha256 of the Result's title and
// notes, where the paper comparisons live — plus a second universe of
// rows on the region engine. A PR that changes a row on purpose
// regenerates the file with
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
# duration knob — except figure 12, which costs 2.6 s in full and is
# pinned as its spec under a Duration override ("12@40s" = 40 simulated
# seconds through the generic spec runner) in both universes.
#
# universe	id	sha256(tsv)	events	packets_sent	packets_delivered	sha256(title+notes)
`

// ledgerRow identifies one run of the ledger. A zero dur runs the
// registry entry's own runner; otherwise the entry's spec runs for dur
// through RunOverridden.
type ledgerRow struct {
	universe string // "serial" or "ew2"
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

// run executes the row on ctx, whose counters it resets first, and
// renders its ledger fields. A panic is returned as the row's error.
func (r ledgerRow) run(ctx *RunCtx) (fields string, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
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
	st := ctx.Stats()
	notes := strings.Join(append([]string{res.Title}, res.Notes...), "\n")
	return fmt.Sprintf("%x\t%d\t%d\t%d\t%x", sha256.Sum256([]byte(res.TSV())),
		st.Events, st.PacketsSent, st.PacketsDelivered, sha256.Sum256([]byte(notes))), nil
}

// ledgerResult is a row's rendered fields, or the error that stopped it.
type ledgerResult struct {
	fields string
	err    error
}

// runChains runs rows as two chains, the even and the odd rows in order,
// each on one context of its own, so every row but the two heads runs on
// an environment that last built a different scenario. It returns one
// channel per row that delivers the row's result, and a wait for both
// chains to finish.
func runChains(rows []ledgerRow) ([]chan ledgerResult, func()) {
	out := make([]chan ledgerResult, len(rows))
	for i := range out {
		out[i] = make(chan ledgerResult, 1)
	}
	var wg sync.WaitGroup
	for head := 0; head < 2; head++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := NewRunCtx()
			for i := head; i < len(rows); i += 2 {
				fields, err := rows[i].run(ctx)
				out[i] <- ledgerResult{fields, err}
			}
		}()
	}
	return out, wg.Wait
}

// ledgerRows enumerates the ledger in file order: the whole registry on
// the serial engine, then the sharded universe's subset.
func ledgerRows() []ledgerRow {
	const short12 = 40 * sim.Second
	var rows []ledgerRow
	for _, e := range Entries() {
		row := ledgerRow{universe: "serial", entry: e.ID}
		if e.ID == "12" {
			row.dur = short12
		}
		rows = append(rows, row)
	}
	for _, id := range []string{"wireless", "chainloss", "deeptree", "flashcrowd"} {
		rows = append(rows, ledgerRow{universe: "ew2", entry: id})
	}
	return append(rows, ledgerRow{universe: "ew2", entry: "12", dur: short12},
		ledgerRow{universe: "ew2", entry: "14"}, ledgerRow{universe: "ew2", entry: "massleave"})
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
// <universe>/<id>, so CI's race job can select the sharded rows alone
// (-run TestGoldenLedger/ew2); a filter that selects single rows still
// runs their universe's chains in full.
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
	got := map[string]string{}
	for _, universe := range []string{"serial", "ew2"} {
		t.Run(universe, func(t *testing.T) {
			var urows []ledgerRow
			for _, r := range rows {
				if r.universe == universe {
					urows = append(urows, r)
				}
			}
			results, wait := runChains(urows)
			defer wait()
			for i, r := range urows {
				t.Run(r.id(), func(t *testing.T) {
					res := <-results[i]
					if res.err != nil {
						t.Fatal(res.err)
					}
					fields := res.fields
					got[r.key()] = fields
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
