package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json's schema.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesHarness pins BENCHMARK.json to the names, units
// and bounds the harness emits, and both to the driver's limits.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	want, err := benchmarkJSON(runSeconds)
	if err != nil {
		t.Fatal(err)
	}
	var a, b any
	if json.Unmarshal(data, &a) != nil || json.Unmarshal(want, &b) != nil {
		t.Fatal("unparseable JSON")
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Errorf("BENCHMARK.json differs from the harness's tables; regenerate it with `bash bench/run.sh -describe`")
	}

	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bf.RunSeconds)
	}
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	workloadNames := map[string]bool{"all": true, "none": true}
	for _, w := range bf.Workloads {
		checkName("workload", w.Name)
		workloadNames[w.Name] = true
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	e2e := map[string]bool{}
	hasSetup := false
	for _, m := range bf.EndToEnd {
		checkName("end-to-end", m.Name)
		e2e[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range bf.PerLayer {
		checkName("per-layer", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, d := range perLayer {
		if d.Layer == "" {
			t.Errorf("%s: no layer", d.Name)
		}
		for _, mv := range d.Moves {
			if !e2e[mv.Metric] {
				t.Errorf("%s moves unknown end-to-end metric %q", d.Name, mv.Metric)
			}
			if !workloadNames[mv.Workload] {
				t.Errorf("%s moves %s on unknown workload %q", d.Name, mv.Metric, mv.Workload)
			}
		}
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
}

func smokeConfig(w workload, trace bool, dir string) config {
	return config{Workload: w, Seed: 1, Seconds: 0, Trace: trace, Scale: 0.02, OutDir: dir}
}

func wantKeys(t *testing.T, w string, got map[string]float64, defs []metricDef) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d declared", w, len(got), len(defs))
	}
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", w, d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: metric %s = %v", w, d.Name, v)
		}
	}
}

// TestSmokeEveryWorkload runs every workload and every probe scaled down:
// the traced mode (which also runs an untraced pass), and the untraced
// mode once. It checks the emitted names, the output checks, the CPU
// shares and the span file.
func TestSmokeEveryWorkload(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		rep, err := runWorkload(smokeConfig(w, true, dir))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, f := range rep.Failures {
			t.Errorf("failed run: %s", f)
		}
		wantKeys(t, w.Name, rep.Metrics, perLayer)
		var shares float64
		for _, l := range cpuLayers {
			shares += rep.Metrics[l+".cpu_share"]
		}
		if math.Abs(shares-1) > 0.001 {
			t.Errorf("%s: cpu shares sum to %v, want 1", w.Name, shares)
		}
		checkSpanFile(t, filepath.Join(dir, "trace-"+w.Name+".json"), rep)
	}

	w, _ := findWorkload("churn_faults")
	rep, err := runWorkload(smokeConfig(w, false, dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Failures {
		t.Errorf("failed run: %s", f)
	}
	wantKeys(t, w.Name, rep.Metrics, endToEnd)
	for _, d := range endToEnd {
		if rep.Metrics[d.Name] <= 0 {
			t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, rep.Metrics[d.Name])
		}
	}
}

// checkSpanFile verifies that child spans nest inside their parents,
// share their run id, and that the per-run digests in the file are the
// untraced run's.
func checkSpanFile(t *testing.T, path string, rep *report) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Error(err)
		return
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Errorf("%s: %v", path, err)
		return
	}
	if len(tf.Spans) == 0 || len(tf.Runs) == 0 {
		t.Errorf("%s: %d spans, %d runs", path, len(tf.Spans), len(tf.Runs))
	}
	for _, s := range tf.Spans {
		if s.EndNS < s.StartNS {
			t.Errorf("%s: span %d (%s) ends before it starts", path, s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p := tf.Spans[s.Parent-1]
		if p.ID != s.Parent || s.StartNS < p.StartNS || s.EndNS > p.EndNS || s.Run != p.Run {
			t.Errorf("%s: span %d (%s) does not nest inside parent %d (%s)", path, s.ID, s.Name, p.ID, p.Name)
		}
	}
	if tf.Workload != rep.Workload {
		t.Errorf("%s: workload %q", path, tf.Workload)
	}
}

func TestRunListSeedsDeriveFromBase(t *testing.T) {
	w, _ := findWorkload("deep_fanout")
	a, err := w.runList(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := w.runList(1, 1)
	hold, _ := w.runList(1001, 1)
	if len(a) != 9 {
		t.Fatalf("deep_fanout has %d runs, want 9", len(a))
	}
	seeds := map[int64]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("run %d differs between two expansions of the same seed", i)
		}
		seeds[a[i].Seed] = true
	}
	for _, it := range hold {
		if seeds[it.Seed] {
			t.Errorf("hold-out base shares seed %d with base 1", it.Seed)
		}
	}
}
