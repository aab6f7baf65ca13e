package experiments

import (
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"1", "2", "3", "4", "5", "6", "7", "9", "10", "11",
		"12", "13", "14", "15", "16", "17", "18", "19", "20", "21",
		"chainloss", "clrfail", "corruptfb", "deeptree", "degrade", "flashcrowd",
		"massleave", "partition", "tcpburst", "wireless"}
	for _, id := range want {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("entry %s not registered", id)
		}
		if e.Title == "" {
			t.Fatalf("entry %s has no title", id)
		}
		if _, figure := numericID(id); !figure && e.Spec == nil {
			t.Fatalf("scenario preset %s has no spec", id)
		}
		if e.Spec != nil && e.Spec().Title != e.Title {
			t.Fatalf("entry %s: registry title %q, spec title %q", id, e.Title, e.Spec().Title)
		}
	}
	if n := len(Entries()); n != len(want) {
		t.Fatalf("registry has %d entries, want %d", n, len(want))
	}
}

// TestAddEntryRefusesMixedShapes: an engine entry is its Members and a
// Report, an analytic one a Run, never both or neither, so every spec
// run takes the one run path. A refused entry is not registered.
func TestAddEntryRefusesMixedShapes(t *testing.T) {
	spec := Figure9Spec
	run := func(int64) *Result { return &Result{} }
	for name, e := range map[string]Entry{
		"spec and run":       {Spec: spec, Run: run},
		"neither":            {},
		"report with run":    {Run: run, Report: figure14},
		"report, no members": {Report: figure14},
		"members, no report": {Members: figure14Members},
		"members and run":    {Members: figure14Members, Report: figure14, Run: run},
		"spec, no members":   {Spec: spec, Report: figure9},
	} {
		e.ID = "shape-" + name
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: addEntry accepted the entry", name)
				}
			}()
			addEntry(e)
		}()
		if _, ok := Lookup(e.ID); ok {
			t.Errorf("%s: refused entry was registered", name)
		}
	}
}

func TestFiguresSortedNumerically(t *testing.T) {
	es := Entries()
	if es[0].ID != "1" || es[19].ID != "21" {
		t.Fatalf("numeric figures must sort first, ascending: first %s, 20th %s", es[0].ID, es[19].ID)
	}
	for _, e := range es[20:] {
		if e.ID[0] >= '0' && e.ID[0] <= '9' {
			t.Fatalf("numeric id %s after the named presets", e.ID)
		}
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if _, err := RunWith(NewRunCtx(), "999", 1); err == nil {
		t.Fatal("unknown figure should error")
	}
}

func TestFigure1CDFShape(t *testing.T) {
	res, err := RunWith(NewRunCtx(), "1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("want 3 CDF curves, got %d", len(res.Series))
	}
	for _, s := range res.Series {
		last := s.Points[len(s.Points)-1].V
		if last < 0.999 {
			t.Fatalf("%s: CDF does not reach 1: %v", s.Name, last)
		}
		prev := -1.0
		for _, p := range s.Points {
			if p.V < prev-1e-9 {
				t.Fatalf("%s: CDF not monotone", s.Name)
			}
			prev = p.V
		}
	}
}

func TestFigure3CancellationOrdering(t *testing.T) {
	res, err := RunWith(NewRunCtx(), "3", 1)
	if err != nil {
		t.Fatal(err)
	}
	var all, ten, higher float64
	for _, s := range res.Series {
		// Compare at the largest receiver count.
		v := s.Points[len(s.Points)-1].V
		switch s.Name {
		case "all suppressed":
			all = v
		case "10% lower suppressed":
			ten = v
		case "higher suppressed":
			higher = v
		}
	}
	// Paper shape: eps=1 smallest, eps=0.1 slightly higher, eps=0 grows
	// with n and is clearly the largest at n=10000.
	if !(all <= ten && ten < higher) {
		t.Fatalf("cancellation ordering violated: all=%v ten=%v higher=%v", all, ten, higher)
	}
	if higher < 8 {
		t.Fatalf("eps=0 should grow into double digits at n=10⁴, got %v", higher)
	}
	if ten > 15 {
		t.Fatalf("eps=0.1 should stay near-constant, got %v", ten)
	}
}

func TestFigure4Implosion(t *testing.T) {
	res, err := RunWith(NewRunCtx(), "4", 1)
	if err != nil {
		t.Fatal(err)
	}
	// The T'=2 curve must show far more responses than T'=6 at large n.
	first := res.Series[0].Points
	lastSeries := res.Series[len(res.Series)-1].Points
	if first[len(first)-1].V < 4*lastSeries[len(lastSeries)-1].V {
		t.Fatal("shrinking T' should sharply increase responses")
	}
}

func TestFigure5ResponseTimeDecreases(t *testing.T) {
	res, err := RunWith(NewRunCtx(), "5", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		first := s.Points[0].V
		last := s.Points[len(s.Points)-1].V
		if last >= first {
			t.Fatalf("%s: response time should fall with n (%v -> %v)", s.Name, first, last)
		}
	}
}

func TestFigure6BiasImprovesQuality(t *testing.T) {
	res, err := RunWith(NewRunCtx(), "6", 1)
	if err != nil {
		t.Fatal(err)
	}
	var unbiased, modified float64
	for _, s := range res.Series {
		mean := s.Mean()
		switch s.Name {
		case "unbiased exponential":
			unbiased = mean
		case "modified offset":
			modified = mean
		}
	}
	if modified >= unbiased {
		t.Fatalf("modified offset should report closer-to-minimum rates: %v vs %v", modified, unbiased)
	}
}

// TestFigure7ScalingShape checks section 3's scaling claim at seeds 1-4,
// so that it rests on the shape of the curves rather than on one draw
// sequence of the loss-gap sampler.
func TestFigure7ScalingShape(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		res, err := RunWith(NewRunCtx(), "7", seed)
		if err != nil {
			t.Fatal(err)
		}
		var constant, distrib []float64
		for _, s := range res.Series {
			var vals []float64
			for _, p := range s.Points {
				vals = append(vals, p.V)
			}
			if s.Name == "constant" {
				constant = vals
			} else {
				distrib = vals
			}
		}
		// Single receiver at ~300 Kbit/s; the minimum falls with every
		// receiver added, and never below the constant-loss worst case.
		if constant[0] < 200 || constant[0] > 420 {
			t.Errorf("seed %d: single-receiver rate %v, want ~300 Kbit/s", seed, constant[0])
		}
		for i := range constant {
			if i > 0 && constant[i] >= constant[i-1] {
				t.Errorf("seed %d: constant-loss rate not decreasing in n: %v", seed, constant)
			}
			if distrib[i] < constant[i] {
				t.Errorf("seed %d: distributed loss below constant loss at point %d: %v < %v", seed, i, distrib[i], constant[i])
			}
		}
		n := len(constant)
		degC := constant[n-1] / constant[0]
		degD := distrib[n-1] / distrib[0]
		// Paper: constant loss at n=10000 gives ~1/6 of the fair rate; the
		// tree-like distribution loses only ~30%.
		if degC > 0.40 {
			t.Errorf("seed %d: constant-loss degradation too weak: %.2f of fair rate", seed, degC)
		}
		if degD < degC+0.15 {
			t.Errorf("seed %d: distributed loss should degrade much less: %.2f vs %.2f", seed, degD, degC)
		}
	}
}

func TestFigure17Maximum(t *testing.T) {
	res, err := RunWith(NewRunCtx(), "17", 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Series[0].Max() < 0.10 || res.Series[0].Max() > 0.16 {
		t.Fatalf("loss events/RTT maximum = %v, want ~0.13", res.Series[0].Max())
	}
	found := false
	for _, n := range res.Notes {
		if strings.Contains(n, "maximum") {
			found = true
		}
	}
	if !found {
		t.Fatal("note with the maximum missing")
	}
}

func TestResultRendering(t *testing.T) {
	res, err := RunWith(NewRunCtx(), "17", 1)
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summary()
	if !strings.Contains(sum, "Figure 17") {
		t.Fatalf("summary malformed: %q", sum)
	}
	tsv := res.TSV()
	if !strings.HasPrefix(tsv, "series\tx\ty\n") || len(strings.Split(tsv, "\n")) < 10 {
		t.Fatal("TSV malformed")
	}
}

func TestLogSpace(t *testing.T) {
	v := logSpace(1, 10000, 5)
	if v[0] != 1 || v[len(v)-1] != 10000 {
		t.Fatalf("logSpace endpoints wrong: %v", v)
	}
	for i := 1; i < len(v); i++ {
		if v[i] <= v[i-1] {
			t.Fatalf("logSpace not strictly increasing: %v", v)
		}
	}
}

func TestFigure15ShapeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full-simulation figure")
	}
	res, err := RunWith(NewRunCtx(), "15", 1)
	if err != nil {
		t.Fatal(err)
	}
	var tf *int
	for i, s := range res.Series {
		if s.Name == "TFMCC flow" {
			i := i
			tf = &i
		}
	}
	if tf == nil {
		t.Fatal("TFMCC series missing")
	}
	s := res.Series[*tf]
	before := s.MeanBetween(20e9, 50e9)  // 20-50s in ns
	during := s.MeanBetween(60e9, 100e9) // 60-100s
	after := s.MeanBetween(120e9, 140e9) // 120-140s
	if during > 320 {
		t.Fatalf("rate during 200 Kbit/s join = %v, want <= ~300", during)
	}
	if before < 2.0*during || after < 2.0*during {
		t.Fatalf("late join shape wrong: before=%v during=%v after=%v", before, during, after)
	}
}

// A figure 13 member on the region engine (40 receivers, RTT change at
// 10 s): the run path's 100 ms stop checks step the sharded clock
// through RunUntil, and around the scripted delay change it finds a
// finite reaction with the checker clean, the same on an arena rewind
// and on a fresh context.
func TestRTTChangeReactionSharded(t *testing.T) {
	const tc = 10 * sim.Second
	m := figure13Members()[familySeeds] // n = 40, tc = 10 s, first seed
	if m.Spec.Events[0].At != tc || m.Spec.Pop.Count != 40 {
		t.Fatalf("member %s changes the RTT at %v, want 40 receivers and %v", m.Spec.Name, m.Spec.Events[0].At, tc)
	}
	run := func(c *RunCtx) sim.Time {
		c.ResetStats()
		_, end, err := c.run(m.Spec, 1+m.Seed, m.Stop)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range c.Violations() {
			t.Errorf("invariant violated: %s", v)
		}
		if st := c.Stats(); st.EngineShards < 2 {
			t.Fatalf("member ran on %d shards, want the region engine", st.EngineShards)
		}
		return end - tc
	}
	c := checkedCtx(2)
	first := run(c)
	if first <= 0 || first >= 200*sim.Second {
		t.Fatalf("reaction %v, want a finite delay inside the 200 s deadline", first)
	}
	if again := run(c); again != first {
		t.Errorf("rewound member reacted after %v, first run after %v", again, first)
	}
	if fresh := run(checkedCtx(2)); fresh != first {
		t.Errorf("fresh-context member reacted after %v, first run after %v", fresh, first)
	}
}

// TestEachSeriesOrderAndPanic: eachSeries returns the series in index
// order whatever order their goroutines finish in, and a panic in one
// series reaches the caller's goroutine (where a sweep's per-seed recover
// sees it) only after every series has returned.
func TestEachSeriesOrderAndPanic(t *testing.T) {
	got := eachSeries(6, func(i int) *stats.Series {
		time.Sleep(time.Duration(6-i) * time.Millisecond)
		return &stats.Series{Name: strconv.Itoa(i)}
	})
	for i, s := range got {
		if s.Name != strconv.Itoa(i) {
			t.Fatalf("series %d is %q", i, s.Name)
		}
	}
	var done atomic.Int32
	defer func() {
		if r := recover(); r != "series 1" || done.Load() != 2 {
			t.Fatalf("recovered %v with %d series done, want \"series 1\" after the other two", r, done.Load())
		}
	}()
	eachSeries(3, func(i int) *stats.Series {
		if i == 1 {
			panic("series 1")
		}
		time.Sleep(5 * time.Millisecond)
		done.Add(1)
		return nil
	})
	t.Fatal("eachSeries returned after a series panicked")
}
