package scenario

import (
	"fmt"
	"math"

	"repro/internal/invariant"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/tcpsim"
	"repro/internal/tfmcc"
)

// Env is the simulation plumbing a scenario executes on. Rng is the
// protocol random stream (feedback timers, jittered site delays); the
// network carries its own stream for link loss. Check, when non-nil, is
// the run-level invariant checker: Build registers the protocol-level
// predicates (sender rate bound, CLR liveness) on it.
type Env struct {
	Sch   *sim.Scheduler
	Net   *simnet.Network
	Rng   *sim.Rand
	Check *invariant.Checker
}

// NewEnv returns an environment seeded for seed, with no checker.
func NewEnv(seed int64) Env {
	sch := sim.NewScheduler()
	e := Env{Sch: sch, Net: simnet.New(sch, sim.NewRand(0)), Rng: sim.NewRand(0)}
	e.Rewind(seed) // seeds both streams
	return e
}

// Rewind empties the environment for a build seeded for seed, keeping
// its storage. It owns the seed-to-stream mapping every run uses: the
// network stream is seed and the protocol stream seed + 7, so a scratch
// build (BuildScratch) replicates a run's draws.
func (e Env) Rewind(seed int64) {
	e.Sch.Reset()
	e.Net.Reset()
	e.Net.Rand().Reseed(seed)
	e.Rng.Reseed(seed + 7)
}

// NewMeterAt returns a per-second throughput meter bound to the metered
// endpoint's node, pooled through the network arena: a recycled meter
// gets a fresh Series (a previous run's Result may still reference the
// old one) but reuses the struct. On a sharded network the meter's
// sampling timer runs on that node's shard scheduler (the one its Add
// calls execute on); on a serial network the binding is the environment
// scheduler.
func (e Env) NewMeterAt(name string, at simnet.NodeID) *stats.Meter {
	m := sim.Pooled[stats.Meter](e.Net.Arena())
	m.Reset(name, e.Net.SchedFor(at), sim.Second)
	return m
}

// Flow is one declared traffic source of a built scenario: exactly one
// of TCP or CBR is set.
type Flow struct {
	Name    string
	TCP     *tcpsim.Sender
	TCPSink *tcpsim.Sink
	CBR     *CBR
	CBRSink *CBRSink
	Meter   *stats.Meter // nil when unmetered
}

// start begins (or resumes) the flow.
func (f *Flow) start() {
	if f.TCP != nil {
		f.TCP.Start()
	} else {
		f.CBR.Start()
	}
}

// stop quiesces the flow.
func (f *Flow) stop() {
	if f.TCP != nil {
		f.TCP.Stop()
	} else {
		f.CBR.Stop()
	}
}

// Scenario is a built Spec instance: the topology, session, sites,
// receivers, flows and collected series, addressable by the same indices
// the spec used.
type Scenario struct {
	Spec *Spec
	Env  Env
	Topo *Topo
	Sess *tfmcc.Session

	SiteLeaf  []simnet.NodeID
	SiteMid   []simnet.NodeID  // -1 for single-hop sites
	SiteLinks [][]*simnet.Link // per site: down0, up0[, down1, up1]

	// Recvs holds the declared receiver endpoints — population receivers
	// first, then Recv steps. An entry is nil
	// until its receiver's join fires (JoinAt > 0).
	Recvs   []*tfmcc.Receiver
	Flows   []*Flow // TCP/CBR steps in order
	Aggs    []*stats.Series
	Samples []*stats.Series

	flowByName map[string]*Flow
}

// Flow returns the named traffic source, or nil when no flow carries the
// name. Build resolves every spec-referenced flow eagerly, so a nil here
// means the calling Go code asked for a flow the spec never declared.
func (sc *Scenario) Flow(name string) *Flow {
	return sc.flowByName[name]
}

// flow is the build-time resolver: unknown names are structured errors.
func (sc *Scenario) flow(name string) (*Flow, error) {
	f := sc.flowByName[name]
	if f == nil {
		return nil, fmt.Errorf("scenario %s: unknown flow %q", sc.Spec.Name, name)
	}
	return f, nil
}

// Start starts the TFMCC session (construction is already live: flows
// with StartAt 0 are running and events are scheduled).
func (sc *Scenario) Start() { sc.Sess.Start() }

// RunUntil advances the simulation clock to t on whichever engine the
// network was built for (see simnet.Network.RunUntil).
func (sc *Scenario) RunUntil(t sim.Time) { sc.Env.Net.RunUntil(t) }

// Series returns every collected series in declaration order: metered
// receivers, metered flows, aggregates, samples. Intended for generic
// preset output; figure reports pick and order series themselves.
func (sc *Scenario) Series() []*stats.Series {
	var out []*stats.Series
	for _, r := range sc.Recvs {
		if r != nil && r.Meter != nil {
			out = append(out, r.Meter.Series)
		}
	}
	for _, f := range sc.Flows {
		if f.Meter != nil {
			out = append(out, f.Meter.Series)
		}
	}
	out = append(out, sc.Aggs...)
	out = append(out, sc.Samples...)
	return out
}

// Build instantiates the spec on env without starting the session or
// advancing time: topology, sender and session, population, steps in
// declaration order, then the event script. Callers then Start it and
// drive the clock with RunUntil — once to the spec's duration, or in
// slices while a stop predicate polls it.
//
// Malformed specs — unknown refs, out-of-range indices, negative times,
// duplicate flows, unusable link or flow numbers — return errors, never
// panics; on error the environment may be left partially built and
// should be reset or discarded.
func Build(env Env, spec *Spec) (*Scenario, error) {
	if spec.Duration < 0 {
		return nil, fmt.Errorf("scenario %s: negative duration %v", spec.Name, spec.Duration)
	}
	if err := spec.checkLinks(); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}
	topo, err := buildTopology(env.Net, spec.Topology)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}
	net := env.Net
	sc := &Scenario{
		Spec: spec, Env: env,
		Topo:       topo,
		flowByName: map[string]*Flow{},
	}

	// The TFMCC source and session, wired like every hand-built figure:
	// a fresh node on a fast access duplex into the sender attach point.
	snd := net.AddNode("tfmcc-src")
	net.AddDuplex(snd, sc.Topo.SenderAttach, 0, sim.Millisecond, 0)
	cfg := tfmcc.Config{HalveOnSilence: spec.HalveOnSilence}
	sc.Sess = tfmcc.NewSession(net, snd, 1, 100, cfg, env.Rng)

	if spec.Pop != nil {
		if err := sc.expandPopulation(spec.Pop); err != nil {
			return nil, err
		}
	}
	for i, st := range spec.Steps {
		var err error
		switch {
		case st.Site != nil:
			err = sc.buildSite(st.Site)
		case st.Recv != nil:
			err = sc.buildRecv(st.Recv)
		case st.TCP != nil:
			err = sc.buildTCP(st.TCP)
		case st.CBR != nil:
			err = sc.buildCBR(st.CBR)
		case st.Agg != nil:
			err = sc.buildAgg(st.Agg)
		case st.Sample != nil:
			err = sc.buildSample(st.Sample)
		default:
			err = fmt.Errorf("scenario %s: step %d is empty", spec.Name, i)
		}
		if err != nil {
			return nil, err
		}
	}
	for i, ev := range spec.Events {
		if err := sc.scheduleEvent(ev); err != nil {
			return nil, fmt.Errorf("%w (event %d)", err, i)
		}
	}
	if env.Check != nil {
		env.Check.Register("sender-rate", sc.Sess.Sender.InvariantViolation)
		env.Check.Register("clr-live", sc.Sess.CLRInvariant)
	}
	return sc, nil
}

// checkLinks names the first link number the spec declares that no link
// can take (see LinkP.check) by its place in the spec document: the
// topology's core and stub links, every access hop and each set_link
// event's bandwidth, delay and loss; then a delay declared for a
// jittered first hop, which the jitter draw would replace.
func (s *Spec) checkLinks() error {
	type named struct {
		field    string
		p        LinkP
		jittered bool
	}
	links := []named{{"topology.core", s.Topology.Core, false}, {"topology.stub_link", s.Topology.StubLink, false}}
	hop := func(field string, h Hop, jittered bool) {
		links = append(links, named{field + ".down", h.Down, jittered}, named{field + ".up", h.Up, jittered})
	}
	if s.Pop != nil {
		hop("pop.hop", s.Pop.Hop, s.Pop.Jitter != nil)
	}
	for i, st := range s.Steps {
		if st.Site == nil {
			continue
		}
		for h, hp := range st.Site.Hops {
			hop(fmt.Sprintf("steps[%d].site.hops[%d]", i, h), hp, h == 0 && st.Site.Jitter != nil)
		}
	}
	for i, ev := range s.Events {
		if m := ev.SetLink; m != nil {
			var p LinkP
			if m.BW != nil {
				p.BW = *m.BW
			}
			if m.Delay != nil {
				p.Delay = *m.Delay
			}
			if m.Loss != nil {
				p.Loss = *m.Loss
			}
			links = append(links, named{fmt.Sprintf("events[%d].set_link", i), p, false})
		}
	}
	for _, l := range links {
		if err := l.p.check(l.field); err != nil {
			return err
		}
	}
	for _, l := range links {
		if l.jittered && l.p.Delay != 0 {
			return fmt.Errorf("%s.delay_ns %d: the hop's jitter draws its delay; declare none", l.field, l.p.Delay)
		}
	}
	return nil
}

// BuildScratch builds spec on a fresh environment seeded for seed, for
// callers that read the built shape — links, sites, receiver slots —
// instead of running it. Construction is deterministic in the seed, and
// its only random draws (site jitter) come from the protocol stream on
// either engine, so the scratch build replicates a run's topology.
func BuildScratch(spec *Spec, seed int64) (*Scenario, error) {
	return Build(NewEnv(seed), spec)
}

// maxPopulation bounds declared receiver blocks so a malformed (or
// fuzzed) spec fails fast instead of exhausting memory.
const maxPopulation = 1 << 16

// expandPopulation instantiates the uniform receiver block as implicit
// Site+Recv steps ahead of the explicit ones.
func (sc *Scenario) expandPopulation(p *Population) error {
	count := p.Count
	if count < 0 || count > maxPopulation {
		return fmt.Errorf("scenario %s: population count %d out of range [0, %d]",
			sc.Spec.Name, count, maxPopulation)
	}
	if p.PerAttach && len(sc.Topo.Attach) == 0 {
		return fmt.Errorf("scenario %s: per-attach population on a topology with no attach points", sc.Spec.Name)
	}
	if p.PerAttach && count == 0 {
		count = len(sc.Topo.Attach)
	}
	hop := p.Hop
	if hop == (Hop{}) {
		hop = FastHop()
	}
	for i := 0; i < count; i++ {
		parent := p.Parent
		if p.PerAttach {
			parent = AttachPoint(i % len(sc.Topo.Attach))
		}
		meter := ""
		if i == 0 {
			meter = p.Meter
		}
		if p.Direct {
			if err := sc.buildRecv(&RecvSpec{At: parent, Meter: meter}); err != nil {
				return err
			}
			continue
		}
		site := len(sc.SiteLeaf)
		if err := sc.buildSite(&SiteSpec{Parent: parent, Hops: []Hop{hop}, Jitter: p.Jitter}); err != nil {
			return err
		}
		if err := sc.buildRecv(&RecvSpec{At: Site(site), Meter: meter}); err != nil {
			return err
		}
	}
	return nil
}

func (sc *Scenario) node(r NodeRef) (simnet.NodeID, error) {
	switch r.Kind {
	case RefCore:
		if r.Index < 0 || r.Index >= len(sc.Topo.Nodes) {
			return 0, fmt.Errorf("scenario %s: core node %d out of range (have %d)",
				sc.Spec.Name, r.Index, len(sc.Topo.Nodes))
		}
		return sc.Topo.Nodes[r.Index], nil
	case RefAttach:
		if r.Index < 0 || r.Index >= len(sc.Topo.Attach) {
			return 0, fmt.Errorf("scenario %s: attach point %d out of range (have %d)",
				sc.Spec.Name, r.Index, len(sc.Topo.Attach))
		}
		return sc.Topo.Attach[r.Index], nil
	case RefSite:
		if r.Index < 0 || r.Index >= len(sc.SiteLeaf) {
			return 0, fmt.Errorf("scenario %s: site %d out of range (have %d)",
				sc.Spec.Name, r.Index, len(sc.SiteLeaf))
		}
		return sc.SiteLeaf[r.Index], nil
	case RefSiteMid:
		if r.Index < 0 || r.Index >= len(sc.SiteMid) {
			return 0, fmt.Errorf("scenario %s: site %d out of range (have %d)",
				sc.Spec.Name, r.Index, len(sc.SiteMid))
		}
		id := sc.SiteMid[r.Index]
		if id < 0 {
			return 0, fmt.Errorf("scenario %s: site %d has no intermediate node", sc.Spec.Name, r.Index)
		}
		return id, nil
	}
	return 0, fmt.Errorf("scenario %s: bad node ref %+v", sc.Spec.Name, r)
}

// Link resolves a spec link reference on the built scenario: the event
// script's resolver, which the engine also uses to map pinned SetLink
// targets (delay mutations) onto a scratch build's links.
func (sc *Scenario) Link(r LinkRef) (*simnet.Link, error) {
	dir := 0
	if r.Up {
		dir = 1
	}
	if r.Site < 0 {
		if i := 2*r.Hop + dir; r.Hop >= 0 && i < len(sc.Topo.Links) {
			return sc.Topo.Links[i], nil
		}
		return nil, fmt.Errorf("scenario %s: core link %d out of range (have %d pairs)",
			sc.Spec.Name, r.Hop, len(sc.Topo.Links)/2)
	}
	if r.Site >= len(sc.SiteLinks) {
		return nil, fmt.Errorf("scenario %s: site %d out of range (have %d)",
			sc.Spec.Name, r.Site, len(sc.SiteLinks))
	}
	ls := sc.SiteLinks[r.Site]
	if i := 2*r.Hop + dir; r.Hop >= 0 && i < len(ls) {
		return ls[i], nil
	}
	return nil, fmt.Errorf("scenario %s: site %d has no hop %d", sc.Spec.Name, r.Site, r.Hop)
}

// buildSite creates a site's access path. All nodes are created before
// any link: creation order pins node ids and link order, and with them
// routes and ledger bytes.
func (sc *Scenario) buildSite(s *SiteSpec) error {
	net := sc.Env.Net
	parent, err := sc.node(s.Parent)
	if err != nil {
		return err
	}
	if len(s.Hops) < 1 || len(s.Hops) > 2 {
		return fmt.Errorf("scenario %s: site needs 1 or 2 hops, got %d", sc.Spec.Name, len(s.Hops))
	}
	if j := s.Jitter; j != nil && (j.MinMs < 0 || j.SpanMs < 1) {
		return fmt.Errorf("scenario %s: jitter.min_ms %d must be >= 0 and jitter.span_ms %d >= 1", sc.Spec.Name, j.MinMs, j.SpanMs)
	}
	// The largest draw, min_ms + span_ms - 1 milliseconds, must fit sim.Time.
	if j := s.Jitter; j != nil && j.MinMs > int(sim.MaxTime/sim.Millisecond)-(j.SpanMs-1) {
		return fmt.Errorf("scenario %s: jitter.min_ms %d + jitter.span_ms %d ms does not fit sim.Time", sc.Spec.Name, j.MinMs, j.SpanMs)
	}
	idx := len(sc.SiteLeaf)
	hops := append([]Hop(nil), s.Hops...)
	nodes := make([]simnet.NodeID, len(hops))
	for h := range hops {
		nodes[h] = net.AddNode(fmt.Sprintf("site%d-%d", idx, h))
	}
	if s.Jitter != nil {
		d := sim.Time(s.Jitter.MinMs+sc.Env.Rng.Intn(s.Jitter.SpanMs)) * sim.Millisecond
		hops[0].Down.Delay, hops[0].Up.Delay = d, d
	}
	var links []*simnet.Link
	at := parent
	for h, hop := range hops {
		down := net.AddLink(at, nodes[h], hop.Down.BW, hop.Down.Delay, hop.Down.Queue)
		up := net.AddLink(nodes[h], at, hop.Up.BW, hop.Up.Delay, hop.Up.Queue)
		down.LossProb, up.LossProb = hop.Down.Loss, hop.Up.Loss
		links = append(links, down, up)
		at = nodes[h]
	}
	sc.SiteLeaf = append(sc.SiteLeaf, nodes[len(nodes)-1])
	mid := simnet.NodeID(-1)
	if len(nodes) == 2 {
		mid = nodes[0]
	}
	sc.SiteMid = append(sc.SiteMid, mid)
	sc.SiteLinks = append(sc.SiteLinks, links)
	return nil
}

func (sc *Scenario) buildRecv(r *RecvSpec) error {
	if r.JoinAt < 0 || r.LeaveAt < 0 {
		return fmt.Errorf("scenario %s: negative receiver join/leave time", sc.Spec.Name)
	}
	at, err := sc.node(r.At)
	if err != nil {
		return err
	}
	slot := len(sc.Recvs)
	sc.Recvs = append(sc.Recvs, nil)
	meter := r.Meter // not r: the closure must not make the step escape
	join := func() {
		rcv := sc.Sess.AddReceiver(at)
		sc.Recvs[slot] = rcv
		if meter != "" {
			rcv.Meter = sc.Env.NewMeterAt(meter, at)
			rcv.Meter.Start()
		}
	}
	if r.JoinAt == 0 {
		join()
	} else {
		sc.Env.Sch.At(r.JoinAt, join)
	}
	if r.LeaveAt > 0 {
		sc.Env.Sch.At(r.LeaveAt, func() {
			if rcv := sc.Recvs[slot]; rcv != nil {
				rcv.Leave()
			}
		})
	}
	return nil
}

func (sc *Scenario) registerFlow(f *Flow) error {
	if _, dup := sc.flowByName[f.Name]; dup {
		return fmt.Errorf("scenario %s: duplicate flow %q", sc.Spec.Name, f.Name)
	}
	sc.Flows = append(sc.Flows, f)
	sc.flowByName[f.Name] = f
	return nil
}

// buildEndpoints creates a flow's fresh source and sink nodes and their
// fast access duplexes (source into from, sink behind to). A flow whose
// to resolves to its own from node is refused: it would cross no link
// of the scenario and run as fast as the event loop can go.
func (sc *Scenario) buildEndpoints(name string, from, to NodeRef) (a, b simnet.NodeID, err error) {
	fromID, err := sc.node(from)
	if err != nil {
		return 0, 0, err
	}
	toID, err := sc.node(to)
	if err != nil {
		return 0, 0, err
	}
	if toID == fromID {
		return 0, 0, fmt.Errorf("scenario %s: flow %q to resolves to its from node %d", sc.Spec.Name, name, toID)
	}
	net := sc.Env.Net
	a = net.AddNode(name + "-src")
	b = net.AddNode(name + "-dst")
	net.AddDuplex(a, fromID, 0, sim.Millisecond, 0)
	net.AddDuplex(toID, b, 0, sim.Millisecond, 0)
	return a, b, nil
}

func (sc *Scenario) buildTCP(t *TCPSpec) error {
	if t.StartAt < 0 || t.StopAt < 0 {
		return fmt.Errorf("scenario %s: flow %q has a negative start/stop time", sc.Spec.Name, t.Name)
	}
	a, b, err := sc.buildEndpoints(t.Name, t.From, t.To)
	if err != nil {
		return err
	}
	snd, snk := tcpsim.NewFlow(t.Name, sc.Env.Net, a, b, t.Port, tcpsim.DefaultConfig())
	f := &Flow{Name: t.Name, TCP: snd, TCPSink: snk}
	if t.Meter != "" {
		m := sc.Env.NewMeterAt(t.Meter, b)
		snk.Meter = m
		m.Start()
		f.Meter = m
	}
	if err := sc.registerFlow(f); err != nil {
		return err
	}
	sc.scheduleFlow(f, t.StartAt, t.StopAt)
	return nil
}

func (sc *Scenario) buildCBR(c *CBRSpec) error {
	if c.StartAt < 0 || c.StopAt < 0 {
		return fmt.Errorf("scenario %s: flow %q has a negative start/stop time", sc.Spec.Name, c.Name)
	}
	if c.Size < 1 {
		return fmt.Errorf("scenario %s: flow %q cbr.size %d must be >= 1", sc.Spec.Name, c.Name, c.Size)
	}
	if !(c.Rate > 0) || math.IsInf(c.Rate, 1) {
		return fmt.Errorf("scenario %s: flow %q cbr.rate %v must be finite and > 0", sc.Spec.Name, c.Name, c.Rate)
	}
	a, b, err := sc.buildEndpoints(c.Name, c.From, c.To)
	if err != nil {
		return err
	}
	net := sc.Env.Net
	src := simnet.Addr{Node: a, Port: c.Port}
	dst := simnet.Addr{Node: b, Port: c.Port}
	cbr := NewCBR(net, src, dst, c.Rate, c.Size)
	sink := &CBRSink{}
	net.Bind(dst, sink)
	f := &Flow{Name: c.Name, CBR: cbr, CBRSink: sink}
	if c.Meter != "" {
		m := sc.Env.NewMeterAt(c.Meter, b)
		sink.Meter = m
		m.Start()
		f.Meter = m
	}
	if err := sc.registerFlow(f); err != nil {
		return err
	}
	sc.scheduleFlow(f, c.StartAt, c.StopAt)
	return nil
}

func (sc *Scenario) scheduleFlow(f *Flow, startAt, stopAt sim.Time) {
	if startAt == 0 {
		f.start()
	} else {
		sc.Env.Sch.At(startAt, f.start)
	}
	if stopAt > 0 {
		sc.Env.Sch.At(stopAt, f.stop)
	}
}

// buildAgg replicates the figures' aggregation ticker: once per period,
// sum the latest per-second readings of the named flows' meters. The
// first tick is scheduled at construction, after the meters it reads, so
// same-instant sampling keeps the meters-then-aggregate event order.
func (sc *Scenario) buildAgg(a *AggSpec) error {
	if a.Every < 0 {
		return fmt.Errorf("scenario %s: aggregate %q has a negative period", sc.Spec.Name, a.Name)
	}
	ms := make([]*stats.Meter, len(a.Flows))
	for i, name := range a.Flows {
		f, err := sc.flow(name)
		if err != nil {
			return err
		}
		if f.Meter == nil {
			return fmt.Errorf("scenario %s: aggregate %q over unmetered flow %q", sc.Spec.Name, a.Name, name)
		}
		ms[i] = f.Meter
	}
	sc.Aggs = append(sc.Aggs, sc.tick(a.Name, a.Every, func() (sum float64) {
		for _, m := range ms {
			if n := len(m.Series.Points); n > 0 {
				sum += m.Series.Points[n-1].V
			}
		}
		return sum
	}))
	return nil
}

func (sc *Scenario) buildSample(s *SampleSpec) error {
	if s.Every < 0 {
		return fmt.Errorf("scenario %s: sample %q has a negative period", sc.Spec.Name, s.Name)
	}
	switch s.What {
	case SampleValidRTT, SampleSenderRate, SampleMembers:
	default:
		return fmt.Errorf("scenario %s: bad sample kind %d", sc.Spec.Name, s.What)
	}
	sc.Samples = append(sc.Samples, sc.tick(s.Name, s.Every, func() float64 {
		switch s.What {
		case SampleValidRTT:
			return float64(sc.Sess.ValidRTTCount())
		case SampleSenderRate:
			return sc.Sess.Sender.Rate()
		default: // SampleMembers; the kind was validated above
			return float64(sc.Env.Net.Members(sc.Sess.Group))
		}
	}))
	return nil
}

// tick records read into a new series called name once per period
// (every, or one second when zero), arming the first tick now.
func (sc *Scenario) tick(name string, every sim.Time, read func() float64) *stats.Series {
	if every == 0 {
		every = sim.Second
	}
	tk := &ticker{sch: sc.Env.Sch, every: every, series: &stats.Series{Name: name}, read: read}
	tk.sch.AfterArg(every, fireTick, tk)
	return tk.series
}

// ticker is one sampler's state. Each tick re-arms the same fireTick with
// the same *ticker, so a tick allocates nothing but its series point.
type ticker struct {
	sch    *sim.Scheduler
	every  sim.Time
	series *stats.Series
	read   func() float64
}

func fireTick(arg any) {
	tk := arg.(*ticker)
	tk.series.Add(tk.sch.Now(), tk.read())
	tk.sch.AfterArg(tk.every, fireTick, tk)
}

// scheduleEvent validates one script entry and arms its timer. Every
// reference is resolved eagerly so a malformed event fails at Build, not
// as a panic mid-run; the armed callbacks only touch pre-resolved state.
func (sc *Scenario) scheduleEvent(ev Event) error {
	if ev.At < 0 {
		return fmt.Errorf("scenario %s: event at negative time %v", sc.Spec.Name, ev.At)
	}
	switch {
	case ev.SetLink != nil:
		m := ev.SetLink
		if len(m.Links) == 0 {
			return fmt.Errorf("scenario %s: set_link names no links", sc.Spec.Name)
		}
		if im := m.Impair; im != nil {
			for _, p := range []float64{im.Corrupt, im.Duplicate, im.Reorder} {
				if p < 0 || p > 1 {
					return fmt.Errorf("scenario %s: impairment rate %v outside [0, 1]", sc.Spec.Name, p)
				}
			}
		}
		ls := make([]*simnet.Link, len(m.Links))
		for i, r := range m.Links {
			l, err := sc.Link(r)
			if err != nil {
				return err
			}
			ls[i] = l
		}
		sc.Env.Sch.At(ev.At, func() {
			for _, l := range ls {
				m.apply(l)
			}
		})
	case ev.Crash != nil:
		idx := *ev.Crash
		if idx < 0 || idx >= len(sc.Recvs) {
			return fmt.Errorf("scenario %s: crash of receiver %d out of range (have %d)",
				sc.Spec.Name, idx, len(sc.Recvs))
		}
		sc.Env.Sch.At(ev.At, func() {
			if rcv := sc.Recvs[idx]; rcv != nil {
				rcv.Crash()
			}
		})
	default:
		return fmt.Errorf("scenario %s: empty event", sc.Spec.Name)
	}
	return nil
}

// apply mutates one link at event time. The reorder delay reads the
// link's delay now, after this event's own delay change.
func (m *SetLink) apply(l *simnet.Link) {
	if m.BW != nil {
		l.SetBandwidth(*m.BW)
	}
	if m.Delay != nil {
		l.SetDelay(*m.Delay)
	}
	if m.Loss != nil {
		l.SetLoss(*m.Loss)
	}
	if m.Down != nil {
		l.SetDown(*m.Down)
	}
	if im := m.Impair; im != nil {
		extra := l.Delay.Scale(4) // saturates: a delay near MaxTime must not wrap
		if extra == 0 {
			extra = sim.Millisecond
		}
		l.SetImpairments(im.Corrupt, im.Duplicate, im.Reorder, extra)
	}
}
