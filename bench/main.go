// Command bench is the repository's benchmark: seven named workloads run
// through the public entry points of the TFMCC simulator, six end-to-end
// metrics measured with tracing off, and a traced run that attributes the
// cost to layers. See README.md beside this file and BENCHMARK.json at the
// repository root.
//
//	bash bench/run.sh --workload large_group --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh                  # every workload, untraced
//	bash bench/run.sh --trace 1        # every workload, traced
//	bash bench/run.sh -selfcheck       # A/A: every workload twice
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// runSeconds is BENCHMARK.json's run_seconds: how long one invocation
// measures unless --seconds says otherwise.
const runSeconds = 10

func main() {
	var (
		name       = flag.String("workload", "", "workload to run (default: every workload, one process each)")
		seed       = flag.Int64("seed", 1, "base seed the run list's seeds derive from (1001 is the documented hold-out)")
		seconds    = flag.Float64("seconds", runSeconds, "how long the measured phase runs")
		trace      = flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file instead of the end-to-end metrics")
		scale      = flag.Float64("scale", 1, "shrink the work for smoke tests (< 1; numbers are then not comparable)")
		selfcheck  = flag.Bool("selfcheck", false, "run every workload twice and fail if any end-to-end metric differs by more than its bound")
		describe   = flag.Bool("describe", false, "print BENCHMARK.json as the metric tables define it and exit")
		setupChild = flag.Bool("setup-child", false, "internal: perform one cold set-up of -workload and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *describe {
		data, err := benchmarkJSON(runSeconds)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
		return
	}
	if *scale <= 0 || *scale > 1 {
		fatal(fmt.Errorf("-scale %g outside (0, 1]", *scale))
	}
	args := []string{"-seed", strconv.FormatInt(*seed, 10), "-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(*trace), "-scale", strconv.FormatFloat(*scale, 'g', -1, 64)}
	if *selfcheck {
		os.Exit(selfCheck(args, *trace == 1))
	}
	if *name == "" {
		os.Exit(runAll(args))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	cfg := config{Workload: w, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Scale: *scale, SetupReps: 7, OutDir: defaultOutDir()}
	if *setupChild {
		if err := setupOnce(cfg); err != nil {
			fatal(err)
		}
		return
	}
	loadHigh := printEnvironment()
	rep, err := runWorkload(cfg)
	if err != nil {
		fatal(err)
	}
	printReport(rep, cfg, loadHigh)
	if len(rep.Failures) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// defaultOutDir keeps span files under bench/out whether the program was
// started from the repository root (run.sh) or from bench/ (go run .).
func defaultOutDir() string {
	if _, err := os.Stat("bench/go.mod"); err == nil {
		return "bench/out"
	}
	return "out"
}

// printEnvironment prints what the numbers depend on besides the code and
// reports whether the box was already busy: a 1-minute load average above
// the CPU count means another process competes for the cores.
func printEnvironment() (loadHigh bool) {
	load := -1.0
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			load, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	fmt.Printf("environment: nproc=%d GOMAXPROCS=%d %s loadavg1=%.2f\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), load)
	if load > float64(runtime.NumCPU()) {
		fmt.Fprintf(os.Stderr, "bench: WARNING 1-min load average %.2f exceeds %d CPUs; timings will be inflated\n", load, runtime.NumCPU())
		return true
	}
	return false
}

// result is the last line of standard output, the contract with the driver.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detail rides on the line before the result for -selfcheck and readers
// of the log: everything printed but not gated.
type detail struct {
	Workload     string             `json:"workload"`
	OutputDigest string             `json:"output_digest"`
	LoadHigh     bool               `json:"loadavg_high"`
	Info         map[string]float64 `json:"info"`
	Counts       map[string]int64   `json:"counts,omitempty"`
}

func printReport(rep *report, cfg config, loadHigh bool) {
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	res := result{Correct: len(rep.Failures) == 0, Attempted: rep.Attempted, Failed: len(rep.Failures), Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := rep.Metrics[d.Name]
		res.Metrics[d.Name] = metricValue{v, d.Unit}
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf(", may worsen %.0f%%", 100*d.Bound)
		}
		fmt.Printf("%-16s %-34s = %14.6g %-5s (%s is better%s)\n", rep.Workload, d.Name, v, d.Unit, d.Better, bound)
	}
	keys := make([]string, 0, len(rep.Info))
	for k := range rep.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%-16s %-34s = %14.6g       (not gated)\n", rep.Workload, k, rep.Info[k])
	}
	fmt.Printf("%-16s output_digest = %s (simulated output; the repo holds no external reference, so the model is unvalidated)\n",
		rep.Workload, rep.OutputDigest)
	fmt.Printf("%-16s failed_runs = %d / %d runs\n", rep.Workload, len(rep.Failures), rep.Attempted)
	for _, f := range rep.Failures {
		fmt.Println("FAILED:", f)
	}
	if cfg.Scale < 1 {
		fmt.Printf("%-16s scaled run (-scale %g): numbers are not comparable with a full run\n", rep.Workload, cfg.Scale)
	}
	d, _ := json.Marshal(detail{rep.Workload, rep.OutputDigest, loadHigh, rep.Info, rep.Counts})
	fmt.Println("detail", string(d))
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}

// --- multi-process modes -------------------------------------------------

// child runs one workload in its own process (so peak_rss_mb is per
// workload), echoes its output and returns the parsed result.
func child(workload string, args []string) (result, detail, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, detail{}, err
	}
	var buf bytes.Buffer
	cmd := exec.Command(self, append([]string{"-workload", workload}, args...)...)
	cmd.Stdout, cmd.Stderr = &buf, os.Stderr
	runErr := cmd.Run()
	var res result
	var det detail
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	last := ""
	for sc.Scan() {
		last = sc.Text()
		if rest, ok := strings.CutPrefix(last, "detail "); ok {
			_ = json.Unmarshal([]byte(rest), &det) // a malformed line leaves det empty, which the caller's comparison reports
			continue
		}
		fmt.Println(last)
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return res, det, fmt.Errorf("workload %s: %w", workload, runErr)
		}
		return res, det, fmt.Errorf("workload %s: no result line: %w", workload, err)
	}
	return res, det, nil
}

func runAll(args []string) int {
	code := 0
	for _, w := range workloads {
		res, _, err := child(w.Name, args)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
			continue
		}
		fmt.Println()
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// selfCheck is the A/A test: every workload twice back to back, same
// code, same seed. An untraced pair must agree within each metric's bound
// and produce the same output digest; a traced pair must repeat every
// count exactly.
func selfCheck(args []string, traced bool) int {
	code := 0
	bad := func(format string, a ...any) {
		fmt.Printf("SELFCHECK FAIL: "+format+"\n", a...)
		code = 1
	}
	for _, w := range workloads {
		a, da, errA := child(w.Name, args)
		b, db, errB := child(w.Name, args)
		if errA != nil || errB != nil {
			bad("%s: %v %v", w.Name, errA, errB)
			continue
		}
		if !a.Correct || !b.Correct {
			bad("%s: failed runs", w.Name)
		}
		if da.OutputDigest != db.OutputDigest || da.OutputDigest == "" {
			bad("%s: output digests differ: %s vs %s", w.Name, da.OutputDigest, db.OutputDigest)
		}
		if traced {
			for k, v := range da.Counts {
				if db.Counts[k] != v {
					bad("%s: count %s does not repeat: %d vs %d", w.Name, k, v, db.Counts[k])
				}
			}
			fmt.Printf("selfcheck %-16s %d counts and the output digest repeat exactly\n\n", w.Name, len(da.Counts))
			continue
		}
		for _, d := range endToEnd {
			va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			gap := (vb - va) / va
			if d.Better == "higher" {
				gap = -gap
			}
			verdict := "ok"
			if gap > d.Bound {
				verdict = "EXCEEDS BOUND"
				bad("%s %s: second run worse by %.1f%% (bound %.0f%%)", w.Name, d.Name, 100*gap, 100*d.Bound)
			}
			fmt.Printf("selfcheck %-16s %-22s A=%12.6g B=%12.6g %-5s gap=%+6.1f%% bound=%.0f%% %s\n",
				w.Name, d.Name, va, vb, d.Unit, 100*gap, 100*d.Bound, verdict)
		}
		fmt.Println()
	}
	return code
}
