package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// config is one benchmark invocation.
type config struct {
	Workload  workload
	Seed      int64
	Seconds   float64
	Trace     bool
	Scale     float64
	SetupReps int    // child processes timed for setup_s; 0 = one in-process set-up
	OutDir    string // where the traced run writes its span file
}

// report is what one invocation measured. Metrics holds the end-to-end
// metrics of an untraced run or the per-layer metrics of a traced one.
type report struct {
	Workload     string
	Metrics      map[string]float64
	Attempted    int
	Failures     []string
	OutputDigest string
	Info         map[string]float64 // printed, never gated
	Counts       map[string]int64   // exact-repeat counts of the traced pass
}

type digest = [sha256.Size]byte

// harness executes one workload's run list on one warm RunCtx and checks
// every run's output.
type harness struct {
	cfg   config
	items []item
	ctx   *experiments.RunCtx

	speed     speedProbe
	attempted int
	failures  []string
	ref       []digest // reference TSV digest per run-list index
	refEvents []uint64
	refKind   []string // "" = none yet, else how the reference was produced
	mergeRef  digest
	mergeSet  bool
}

func newHarness(cfg config) (*harness, error) {
	items, err := cfg.Workload.runList(cfg.Seed, cfg.Scale)
	if err != nil {
		return nil, err
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("workload %s: empty run list at scale %g", cfg.Workload.Name, cfg.Scale)
	}
	h := &harness{
		cfg: cfg, items: items, ctx: experiments.NewRunCtx(),
		ref: make([]digest, len(items)), refEvents: make([]uint64, len(items)), refKind: make([]string, len(items)),
	}
	h.ctx.SetEngineWorkers(cfg.Workload.EngineWorkers)
	return h, nil
}

func (h *harness) fail(it item, format string, args ...any) {
	h.failures = append(h.failures, fmt.Sprintf("workload=%s id=%s seed=%d: %s",
		h.cfg.Workload.Name, it.ID, it.Seed, fmt.Sprintf(format, args...)))
}

// call runs one item through the repo's public entry points, turning a
// panic into an error.
func (h *harness) call(c *experiments.RunCtx, it item) (res *experiments.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	if it.Spec {
		return experiments.RunOverridden(c, it.ID, it.Ov, it.Seed)
	}
	return experiments.RunWith(c, it.ID, it.Seed)
}

// exec runs item i untraced on the warm context, checks it and returns
// its series (nil when the run failed) and engine counters.
func (h *harness) exec(i int, kind string) ([]*stats.Series, experiments.EngineStats) {
	it := h.items[i]
	h.ctx.ResetStats()
	h.attempted++
	res, err := h.call(h.ctx, it)
	st := h.ctx.Stats()
	if err != nil {
		h.fail(it, "%v", err)
		return nil, st
	}
	h.checkStats(it, st)
	h.checkOutput(i, kind, res.Series, res.TSV(), st.Events)
	return res.Series, st
}

// checkStats pins the conservation identities of one run's counters.
func (h *harness) checkStats(it item, st experiments.EngineStats) {
	if st.PacketsDelivered > st.PacketsSent {
		h.fail(it, "delivered %d > sent %d", st.PacketsDelivered, st.PacketsSent)
	}
	if st.EngineShards > 0 {
		if st.HandoffsSent != st.HandoffsRecv {
			h.fail(it, "handoffs sent %d != received %d", st.HandoffsSent, st.HandoffsRecv)
		}
		sum := st.ControlEvents
		for _, v := range st.ShardEvents {
			sum += v
		}
		if sum != st.Events {
			h.fail(it, "events %d != control + shard events %d", st.Events, sum)
		}
	}
}

// checkOutput scans a run's series for NaN/Inf and compares its TSV
// digest (and event count) with the reference for the same (id, seed).
// The first execution of an item sets the reference; kind names how that
// execution was produced so a later mismatch says what disagreed.
func (h *harness) checkOutput(i int, kind string, series []*stats.Series, tsv string, events uint64) {
	it := h.items[i]
	for _, s := range series {
		for _, p := range s.Points {
			if math.IsNaN(p.V) || math.IsInf(p.V, 0) {
				h.fail(it, "series %q holds %v at t=%v", s.Name, p.V, p.T)
				return
			}
		}
	}
	d := sha256.Sum256([]byte(tsv))
	if h.refKind[i] == "" {
		h.ref[i], h.refEvents[i], h.refKind[i] = d, events, kind
		return
	}
	if d != h.ref[i] {
		h.fail(it, "TSV digest of the %s run differs from the %s run", kind, h.refKind[i])
	}
	if events != h.refEvents[i] {
		h.fail(it, "%s run executed %d events, %s run %d", kind, events, h.refKind[i], h.refEvents[i])
	}
}

// prime runs the first item of every engine scenario once on the cold
// context. It fills the arena (so measured passes see the warm state a
// sweep user sees) and its digest is the fresh-RunCtx reference the first
// rewound run of the same (id, seed) is compared with. The returned
// passStat carries the cold runs' events and allocations.
func (h *harness) prime() passStat {
	var p passStat
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	seen := map[string]bool{}
	for i, it := range h.items {
		if seen[it.ID] || it.Analytic {
			continue
		}
		seen[it.ID] = true
		_, st := h.exec(i, "fresh-RunCtx")
		p.Stats.Add(st)
	}
	runtime.ReadMemStats(&m1)
	p.Mallocs, p.Bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	return p
}

// passStat is one measured pass of the run list. Step i < len(items) is
// run i; the last step is the band merge (zero when the workload does not
// merge).
type passStat struct {
	Wall, CPU         time.Duration // sums of the steps, harness overhead excluded
	StepWall, StepCPU []time.Duration
	StepSpeed         []time.Duration // speedProbe kernel time around the step
	Runs              int
	Stats             experiments.EngineStats
	Mallocs, Bytes    uint64
	LiveBytes         uint64 // heap in use after the collection that follows the pass
}

// units is the pass's work: thousands of simulator events, or figure runs
// for the event-free analytic workload.
func (p passStat) units() float64 {
	if p.Stats.Events > 0 {
		return float64(p.Stats.Events) / 1000
	}
	return float64(p.Runs)
}

func (p passStat) mergeWall() time.Duration { return p.StepWall[len(p.StepWall)-1] }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// pass executes the run list once with run (exec for untraced passes, the
// decomposed executor for traced ones), timing every step, and merges the
// per-seed series when the workload asks for it.
func (h *harness) pass(run func(i int) ([]*stats.Series, experiments.EngineStats), kind string) passStat {
	n := len(h.items)
	p := passStat{StepWall: make([]time.Duration, n+1), StepCPU: make([]time.Duration, n+1), StepSpeed: make([]time.Duration, n+1)}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	step := func(i int, fn func()) {
		before := h.speed.sample()
		ts, cs := time.Now(), cpuTime()
		fn()
		p.StepWall[i], p.StepCPU[i] = time.Since(ts), cpuTime()-cs
		p.StepSpeed[i] = (before + h.speed.sample()) / 2
	}
	one := func(i int) (series []*stats.Series) {
		step(i, func() {
			var st experiments.EngineStats
			series, st = run(i)
			p.Stats.Add(st)
			p.Runs++
		})
		return series
	}
	if h.cfg.Workload.Merge {
		cfg := sweep.Config{Seeds: n, Base: h.items[0].Seed, Step: 1, Workers: 1}.Normalized()
		runs, errs := sweep.RunRaw(cfg, func(_ int, seed int64) []*stats.Series { return one(cfg.Index(seed)) })
		for _, e := range errs {
			h.fail(h.items[cfg.Index(e.Seed)], "%v", e)
		}
		var d digest
		step(n, func() {
			hs := sha256.New()
			for _, b := range stats.MergeRuns(runs, cfg.CI) {
				hs.Write([]byte(b.TSV()))
			}
			hs.Sum(d[:0])
		})
		if !h.mergeSet {
			h.mergeRef, h.mergeSet = d, true
		} else if d != h.mergeRef {
			h.fail(h.items[0], "merged band digest of the %s pass differs from the first pass", kind)
		}
	} else {
		for i := range h.items {
			one(i)
		}
	}
	for i := range p.StepWall {
		p.Wall, p.CPU = p.Wall+p.StepWall[i], p.CPU+p.StepCPU[i]
	}
	runtime.ReadMemStats(&m1)
	p.Mallocs, p.Bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	return p
}

// measure repeats untraced passes for the given wall-clock budget, at
// least minPasses times. A collection after each pass (outside its
// timing) starts every pass from the same heap state and samples what the
// warm session retains.
func (h *harness) measure(seconds float64, minPasses int) []passStat {
	var out []passStat
	start := time.Now()
	runtime.GC()
	for len(out) < minPasses || time.Since(start).Seconds() < seconds {
		p := h.pass(func(i int) ([]*stats.Series, experiments.EngineStats) { return h.exec(i, "rewound") }, "rewound")
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		p.LiveBytes = ms.HeapAlloc
		out = append(out, p)
	}
	return out
}

// atNominal converts a duration measured while the speed probe's kernel
// took speed into what it would have been at the nominal speed.
func atNominal(d, speed time.Duration) time.Duration {
	if speed <= 0 {
		return d
	}
	return time.Duration(float64(d) * float64(nominalSpeed) / float64(speed))
}

// best is the noise-robust cost of one pass: every step's minimum over the
// passes, summed — of the speed-calibrated times (see speedProbe) for wall
// and cpu, and of the raw wall times for reference. Besides its slow
// drift the box has spells of interference from milliseconds up, which
// only ever add time; the minimum over repeats of the same deterministic
// step is the closest a run gets to the step's own cost.
func best(passes []passStat) (wall, cpu, rawWall time.Duration) {
	for i := range passes[0].StepWall {
		w, c, r := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
		for _, p := range passes {
			w = min(w, atNominal(p.StepWall[i], p.StepSpeed[i]))
			c = min(c, atNominal(p.StepCPU[i], p.StepSpeed[i]))
			r = min(r, p.StepWall[i])
		}
		wall, cpu, rawWall = wall+w, cpu+c, rawWall+r
	}
	return wall, cpu, rawWall
}

func (h *harness) outputDigest() string {
	hs := sha256.New()
	for i := range h.items {
		hs.Write(h.ref[i][:])
	}
	if h.mergeSet {
		hs.Write(h.mergeRef[:])
	}
	return fmt.Sprintf("%x", hs.Sum(nil))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf(ps []passStat, f func(passStat) float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return median(xs)
}

// runWorkload is one benchmark invocation: set-up, warm-up, the measured
// untraced passes and — with cfg.Trace — the traced passes and probes.
func runWorkload(cfg config) (*report, error) {
	h, err := newHarness(cfg)
	if err != nil {
		return nil, err
	}
	rep := &report{Workload: cfg.Workload.Name, Metrics: map[string]float64{}, Info: map[string]float64{}}

	if !cfg.Trace {
		setup, err := measureSetup(cfg)
		if err != nil {
			return nil, err
		}
		rep.Metrics["setup_s"] = setup
	}

	cold := h.prime()

	budget, minPasses := cfg.Seconds, 2
	if cfg.Trace {
		// A traced invocation splits its budget: untraced passes give the
		// base the tracing overhead is measured against.
		budget, minPasses = cfg.Seconds/2, 1
	}
	passes := h.measure(budget, minPasses)
	bestWall, bestCPU, rawWall := best(passes)
	units := passes[0].units()
	rep.Info["raw_wall_us_per_unit"] = rawWall.Seconds() * 1e6 / units
	rep.Info["speed_probe_ms"] = medianOf(passes, func(p passStat) float64 { return p.StepSpeed[0].Seconds() * 1e3 })

	wallS := medianOf(passes, func(p passStat) float64 { return p.Wall.Seconds() })
	rep.Info["wall_s"] = wallS
	rep.Info["cpu_s"] = medianOf(passes, func(p passStat) float64 { return p.CPU.Seconds() })
	rep.Info["passes"] = float64(len(passes))
	rep.Info["runs_per_pass"] = float64(len(h.items))
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range passes {
		lo, hi = math.Min(lo, p.Wall.Seconds()), math.Max(hi, p.Wall.Seconds())
	}
	rep.Info["wall_spread_pct"] = 100 * (hi - lo) / wallS
	rep.Info["events_per_pass"] = float64(passes[0].Stats.Events)

	if cfg.Trace {
		if err := h.traced(rep, cfg.Seconds-budget, bestWall); err != nil {
			return nil, err
		}
	} else {
		rep.Metrics["wall_us_per_unit"] = bestWall.Seconds() * 1e6 / units
		rep.Metrics["cpu_us_per_unit"] = bestCPU.Seconds() * 1e6 / units
		// Allocation covers a cold session: the warm-up runs plus one warm
		// pass. Warm-path allocation alone follows the loss pattern and so
		// the seed (figure 12: 0.7-4.6 MB per run); the cold builds are the
		// same for every seed and anchor the metric.
		coldUnits := float64(cold.Stats.Events) / 1000
		rep.Metrics["allocs_per_unit"] = (float64(cold.Mallocs) + medianOf(passes, func(p passStat) float64 { return float64(p.Mallocs) })) / (coldUnits + units)
		rep.Metrics["alloc_bytes_per_unit"] = (float64(cold.Bytes) + medianOf(passes, func(p passStat) float64 { return float64(p.Bytes) })) / (coldUnits + units)
		// What the warm session retains: live heap after the collection
		// that follows each pass, median over passes. Peak RSS is
		// printed beside it but not gated: when both cores are busy the
		// collector falls behind by an amount that follows the box's speed,
		// not the code (region_sharded: 460-610 MB for the same work).
		rep.Metrics["heap_live_mb"] = medianOf(passes, func(p passStat) float64 { return float64(p.LiveBytes) / (1 << 20) })
		rep.Info["peak_rss_mb"] = peakRSSMB()
	}
	rep.Attempted, rep.Failures, rep.OutputDigest = h.attempted, h.failures, h.outputDigest()
	return rep, nil
}

// --- set-up ------------------------------------------------------------

// ownEnv is a harness-owned simulation environment, seeded exactly like
// the ones experiments.RunCtx hands out (network stream = seed, protocol
// stream = seed+7) so a run on it reproduces the RunCtx run byte for byte.
type ownEnv struct {
	sch         *sim.Scheduler
	net         *simnet.Network
	rng, netRng *sim.Rand
}

func newOwnEnv(seed int64) *ownEnv {
	sch, netRng := sim.NewScheduler(), sim.NewRand(seed)
	e := &ownEnv{sch: sch, net: simnet.New(sch, netRng), rng: sim.NewRand(seed + 7), netRng: netRng}
	e.net.EnableReuse()
	return e
}

// rewind restores the environment for a new seed, as a RunCtx arena does.
func (e *ownEnv) rewind(seed int64) {
	e.sch.Reset()
	if !e.net.Reset() {
		e.netRng = sim.NewRand(seed)
		e.net = simnet.New(e.sch, e.netRng)
		e.net.EnableReuse()
	}
	e.netRng.Reseed(seed)
	e.rng.Reseed(seed + 7)
}

func (e *ownEnv) scenarioEnv() scenario.Env {
	return scenario.Env{Sch: e.sch, Net: e.net, Rng: e.rng}
}

// specFor resolves the item's registry spec with its overrides applied.
func specFor(it item) (*scenario.Spec, error) {
	e, ok := experiments.Lookup(it.ID)
	if !ok || e.Spec == nil {
		return nil, fmt.Errorf("scenario %q is not Spec-backed", it.ID)
	}
	return e.Spec().Apply(it.Ov)
}

// setupOnce is one cold set-up of the workload: for every Spec-backed
// scenario, SetupBuilds cold builds on fresh environments (through the
// engine's partitioner when the workload is sharded); for the marked
// hand-wired or analytic entry, one cold run. This is the work between
// process start and the first simulated event that a user pays once.
func setupOnce(cfg config) error {
	items, err := cfg.Workload.runList(cfg.Seed, cfg.Scale)
	if err != nil {
		return err
	}
	first := map[string]item{}
	for _, it := range items {
		if _, ok := first[it.ID]; !ok {
			first[it.ID] = it
		}
	}
	for _, u := range cfg.Workload.Uses {
		it, ok := first[u.ID]
		if !ok {
			continue
		}
		reps := u.SetupBuilds
		if cfg.Scale < 1 && reps > 0 {
			reps = int(math.Max(1, math.Round(float64(reps)*cfg.Scale)))
		}
		for r := 0; r < reps; r++ {
			spec, err := specFor(it)
			if err != nil {
				return err
			}
			if cfg.Workload.EngineWorkers >= 2 {
				_, err = engine.Partition(spec, it.Seed, 0)
			} else {
				_, err = scenario.Build(newOwnEnv(it.Seed).scenarioEnv(), spec)
			}
			if err != nil {
				return err
			}
		}
		if u.SetupRun {
			if _, err := experiments.RunWith(experiments.NewRunCtx(), it.ID, it.Seed); err != nil {
				return err
			}
		}
	}
	return nil
}

// measureSetup times cfg.SetupReps fresh processes that each perform one
// set-up and exit, and returns the median in seconds, speed-calibrated like
// the pass timings: process start, runtime and package initialisation and
// the registry are inside the measurement, so work a later change moves
// into any of them shows.
func measureSetup(cfg config) (float64, error) {
	if cfg.SetupReps == 0 {
		t0 := time.Now()
		err := setupOnce(cfg)
		return time.Since(t0).Seconds(), err
	}
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var speed speedProbe
	var xs []float64
	for i := 0; i < cfg.SetupReps; i++ {
		cmd := exec.Command(self, "-setup-child", "-workload", cfg.Workload.Name,
			"-seed", strconv.FormatInt(cfg.Seed, 10), "-scale", strconv.FormatFloat(cfg.Scale, 'g', -1, 64))
		cmd.Stderr = os.Stderr
		before, t0 := speed.sample(), time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("set-up child: %w", err)
		}
		d := time.Since(t0)
		xs = append(xs, atNominal(d, (before+speed.sample())/2).Seconds())
	}
	return median(xs), nil
}
