package scenario

import (
	"fmt"
	"math"
	"strconv"

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
	siteLinks  []*simnet.Link // backing store of SiteLinks' rows
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
// The Scenario, its topology, flows and receiver joins come from the
// network's arena, and the slices indexed by site, receiver and flow
// keep their storage, so a rebuild on a rewound environment allocates
// nothing per site or receiver. Like the sender and receivers, a built
// Scenario is therefore only valid until its environment is rewound.
// The Aggs and Samples slices and every series are new on each build,
// so a caller may keep those past the rewind.
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
	net := env.Net
	sc := sim.Pooled[Scenario](net.Arena())
	clear(sc.flowByName)
	if sc.flowByName == nil {
		sc.flowByName = map[string]*Flow{}
	}
	*sc = Scenario{
		Spec: spec, Env: env,
		SiteLeaf:   sc.SiteLeaf[:0],
		SiteMid:    sc.SiteMid[:0],
		SiteLinks:  sc.SiteLinks[:0],
		Recvs:      sc.Recvs[:0],
		Flows:      sc.Flows[:0],
		flowByName: sc.flowByName,
		siteLinks:  sc.siteLinks[:0],
	}
	topo, err := buildTopology(net, spec.Topology)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}
	sc.Topo = topo

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
// jittered first hop, which the jitter draw would replace. Places are
// formatted only to name a failure, so a valid spec is checked without
// allocating.
func (s *Spec) checkLinks() error {
	if err := s.eachLink(func(at linkAt, p LinkP, _ bool) error { return p.check(at) }); err != nil {
		return err
	}
	return s.eachLink(func(at linkAt, p LinkP, jittered bool) error {
		if jittered && p.Delay != 0 {
			return fmt.Errorf("%s.delay_ns %d: the hop's jitter draws its delay; declare none", at, p.Delay)
		}
		return nil
	})
}

// eachLink calls visit on every link number set the spec declares, in
// document order, with its place and whether a jitter draws its delay,
// and returns the first error visit returns.
func (s *Spec) eachLink(visit func(at linkAt, p LinkP, jittered bool) error) error {
	hop := func(at linkAt, h Hop, jittered bool) error {
		at.dir = ".down"
		if err := visit(at, h.Down, jittered); err != nil {
			return err
		}
		at.dir = ".up"
		return visit(at, h.Up, jittered)
	}
	if err := visit(linkAt{field: "topology.core"}, s.Topology.Core, false); err != nil {
		return err
	}
	if err := visit(linkAt{field: "topology.stub_link"}, s.Topology.StubLink, false); err != nil {
		return err
	}
	if s.Pop != nil {
		if err := hop(linkAt{field: "pop.hop"}, s.Pop.Hop, s.Pop.Jitter != nil); err != nil {
			return err
		}
	}
	for i, st := range s.Steps {
		if st.Site == nil {
			continue
		}
		for h, hp := range st.Site.Hops {
			if err := hop(linkAt{step: i, hop: h}, hp, h == 0 && st.Site.Jitter != nil); err != nil {
				return err
			}
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
			if err := visit(linkAt{event: true, step: i}, p, false); err != nil {
				return err
			}
		}
	}
	return nil
}

// linkAt is a declared link's place in the spec document: a named field
// (topology.core, pop.hop, ...), hop h of site step i, or the set_link of
// event i, plus the direction of a hop's link. String renders it.
type linkAt struct {
	field     string // a named field; "" for a site step or an event
	event     bool   // events[step].set_link
	step, hop int
	dir       string // ".down" or ".up" on a hop
}

func (a linkAt) String() string {
	switch {
	case a.event:
		return fmt.Sprintf("events[%d].set_link", a.step)
	case a.field == "":
		return fmt.Sprintf("steps[%d].site.hops[%d]%s", a.step, a.hop, a.dir)
	}
	return a.field + a.dir
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
	// A direct population builds no access hop, so a hop or a jitter it
	// declares would be dead.
	if p.Direct && p.Jitter != nil {
		return fmt.Errorf("scenario %s: pop.jitter is set on a direct population, which has no access hop to jitter", sc.Spec.Name)
	}
	if p.Direct && p.Hop != (Hop{}) {
		return fmt.Errorf("scenario %s: pop.hop is set on a direct population, which builds no access hop", sc.Spec.Name)
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
		at := parent
		if !p.Direct {
			at = Site(len(sc.SiteLeaf))
			if err := sc.buildSite(&SiteSpec{Parent: parent, Hops: []Hop{hop}, Jitter: p.Jitter}); err != nil {
				return err
			}
		}
		if err := sc.buildRecv(&RecvSpec{At: at, Meter: meter}); err != nil {
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
	var nodes [2]simnet.NodeID
	var name [32]byte
	for h := range s.Hops {
		nodes[h] = net.AddNodeName(appendName(name[:0], "site", idx, h))
	}
	// A jittered first hop's delay is drawn, the same each way.
	jitter := sim.Time(-1)
	if s.Jitter != nil {
		jitter = sim.Time(s.Jitter.MinMs+sc.Env.Rng.Intn(s.Jitter.SpanMs)) * sim.Millisecond
	}
	first := len(sc.siteLinks)
	at := parent
	for h, hop := range s.Hops {
		if h == 0 && jitter >= 0 {
			hop.Down.Delay, hop.Up.Delay = jitter, jitter
		}
		down := net.AddLink(at, nodes[h], hop.Down.BW, hop.Down.Delay, hop.Down.Queue)
		up := net.AddLink(nodes[h], at, hop.Up.BW, hop.Up.Delay, hop.Up.Queue)
		down.LossProb, up.LossProb = hop.Down.Loss, hop.Up.Loss
		sc.siteLinks = append(sc.siteLinks, down, up)
		at = nodes[h]
	}
	sc.SiteLeaf = append(sc.SiteLeaf, at)
	mid := simnet.NodeID(-1)
	if len(s.Hops) == 2 {
		mid = nodes[0]
	}
	sc.SiteMid = append(sc.SiteMid, mid)
	last := len(sc.siteLinks)
	sc.SiteLinks = append(sc.SiteLinks, sc.siteLinks[first:last:last])
	return nil
}

// appendName appends a node's debug name, prefix followed by the
// indices joined by dashes ("site3-0"), to b without allocating.
func appendName(b []byte, prefix string, idx ...int) []byte {
	b = append(b, prefix...)
	for i, v := range idx {
		if i > 0 {
			b = append(b, '-')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return b
}

func (sc *Scenario) buildRecv(r *RecvSpec) error {
	if r.JoinAt < 0 || r.LeaveAt < 0 {
		return fmt.Errorf("scenario %s: negative receiver join/leave time", sc.Spec.Name)
	}
	at, err := sc.node(r.At)
	if err != nil {
		return err
	}
	j := recvJoin{sc: sc, slot: len(sc.Recvs), at: at, meter: r.Meter}
	sc.Recvs = append(sc.Recvs, nil)
	if r.JoinAt == 0 && r.LeaveAt == 0 {
		j.join()
		return nil
	}
	// A scheduled join or leave carries the receiver as its argument.
	pj := sim.Pooled[recvJoin](sc.Env.Net.Arena())
	*pj = j
	if r.JoinAt == 0 {
		pj.join()
	} else {
		sc.Env.Sch.AtArg(r.JoinAt, joinRecv, pj)
	}
	if r.LeaveAt > 0 {
		sc.Env.Sch.AtArg(r.LeaveAt, leaveRecv, pj)
	}
	return nil
}

// recvJoin is a declared receiver: the Recvs slot it fills when it joins,
// the node it joins at and its meter's name. A receiver with a scheduled
// join or leave takes one from the arena, which its events carry as their
// argument, so arming them allocates nothing.
type recvJoin struct {
	sc    *Scenario
	slot  int
	at    simnet.NodeID
	meter string
}

func joinRecv(arg any) { arg.(*recvJoin).join() }

func (j *recvJoin) join() {
	sc := j.sc
	rcv := sc.Sess.AddReceiver(j.at)
	sc.Recvs[j.slot] = rcv
	if j.meter != "" {
		rcv.Meter = sc.startMeter(j.meter, j.at)
	}
}

func leaveRecv(arg any) {
	j := arg.(*recvJoin)
	if rcv := j.sc.Recvs[j.slot]; rcv != nil {
		rcv.Leave()
	}
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
	var buf [32]byte
	a = net.AddNodeName(append(append(buf[:0], name...), "-src"...))
	b = net.AddNodeName(append(append(buf[:0], name...), "-dst"...))
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
	f := sc.newFlow()
	*f = Flow{Name: t.Name, TCP: snd, TCPSink: snk}
	if t.Meter != "" {
		f.Meter = sc.startMeter(t.Meter, b)
		snk.Meter = f.Meter
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
	f := sc.newFlow()
	*f = Flow{Name: c.Name, CBR: cbr, CBRSink: sink}
	if c.Meter != "" {
		f.Meter = sc.startMeter(c.Meter, b)
		sink.Meter = f.Meter
	}
	if err := sc.registerFlow(f); err != nil {
		return err
	}
	sc.scheduleFlow(f, c.StartAt, c.StopAt)
	return nil
}

// startMeter starts a per-second throughput meter bound to the metered
// endpoint's node, pooled through the network arena: a recycled meter
// gets a fresh Series (a previous run's Result may still reference the
// old one) but reuses the struct. On a sharded network the meter's
// sampling timer runs on that node's shard scheduler (the one its Add
// calls execute on); on a serial network the binding is the environment
// scheduler.
func (sc *Scenario) startMeter(name string, at simnet.NodeID) *stats.Meter {
	m := sim.Pooled[stats.Meter](sc.Env.Net.Arena())
	m.Reset(name, sc.Env.Net.SchedFor(at), sim.Second)
	m.Start()
	return m
}

// newFlow returns the arena's next Flow for a TCP or CBR step to fill.
func (sc *Scenario) newFlow() *Flow { return sim.Pooled[Flow](sc.Env.Net.Arena()) }

func (sc *Scenario) scheduleFlow(f *Flow, startAt, stopAt sim.Time) {
	if startAt == 0 {
		f.start()
	} else {
		sc.Env.Sch.AtArg(startAt, startFlow, f)
	}
	if stopAt > 0 {
		sc.Env.Sch.AtArg(stopAt, stopFlow, f)
	}
}

func startFlow(arg any) { arg.(*Flow).start() }
func stopFlow(arg any)  { arg.(*Flow).stop() }

// buildAgg replicates the figures' aggregation ticker: once per period,
// sum the latest per-second readings of the named flows' meters. The
// first tick is scheduled at construction, after the meters it reads, so
// same-instant sampling keeps the meters-then-aggregate event order.
func (sc *Scenario) buildAgg(a *AggSpec) error {
	if a.Every < 0 {
		return fmt.Errorf("scenario %s: aggregate %q has a negative period", sc.Spec.Name, a.Name)
	}
	tk := sc.newTicker()
	for _, name := range a.Flows {
		f, err := sc.flow(name)
		if err != nil {
			return err
		}
		if f.Meter == nil {
			return fmt.Errorf("scenario %s: aggregate %q over unmetered flow %q", sc.Spec.Name, a.Name, name)
		}
		tk.meters = append(tk.meters, f.Meter)
	}
	tk.agg = true
	sc.Aggs = append(sc.Aggs, tk.start(a.Name, a.Every))
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
	tk := sc.newTicker()
	tk.what = s.What
	sc.Samples = append(sc.Samples, tk.start(s.Name, s.Every))
	return nil
}

// ticker is one sampler's state: an aggregate's meters, or a sample's
// kind. It comes from the arena, its meter slice keeping its storage,
// and each tick re-arms the same fireTick with the same *ticker, so a
// tick allocates nothing but its series point.
type ticker struct {
	sc     *Scenario
	every  sim.Time
	series *stats.Series
	agg    bool           // sums meters; else samples what
	meters []*stats.Meter // an aggregate's flows' meters
	what   SampleKind
}

func (sc *Scenario) newTicker() *ticker {
	tk := sim.Pooled[ticker](sc.Env.Net.Arena())
	*tk = ticker{sc: sc, meters: tk.meters[:0]}
	return tk
}

// start records the ticker's readings into a new series called name
// once per period (every, or one second when zero), arming the first
// tick now.
func (tk *ticker) start(name string, every sim.Time) *stats.Series {
	if every == 0 {
		every = sim.Second
	}
	tk.every, tk.series = every, &stats.Series{Name: name}
	tk.sc.Env.Sch.AfterArg(every, fireTick, tk)
	return tk.series
}

// read is the ticker's current reading.
func (tk *ticker) read() float64 {
	sc := tk.sc
	if tk.agg {
		var sum float64
		for _, m := range tk.meters {
			if n := len(m.Series.Points); n > 0 {
				sum += m.Series.Points[n-1].V
			}
		}
		return sum
	}
	switch tk.what {
	case SampleValidRTT:
		return float64(sc.Sess.ValidRTTCount())
	case SampleSenderRate:
		return sc.Sess.Sender.Rate()
	default: // SampleMembers; the kind was validated at Build
		return float64(sc.Env.Net.Members(sc.Sess.Group))
	}
}

func fireTick(arg any) {
	tk := arg.(*ticker)
	sch := tk.sc.Env.Sch
	tk.series.Add(sch.Now(), tk.read())
	sch.AfterArg(tk.every, fireTick, tk)
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
		e := sc.newEvent()
		e.set = m
		for _, r := range m.Links {
			l, err := sc.Link(r)
			if err != nil {
				return err
			}
			e.links = append(e.links, l)
		}
		sc.Env.Sch.AtArg(ev.At, fireEvent, e)
	case ev.Crash != nil:
		idx := *ev.Crash
		if idx < 0 || idx >= len(sc.Recvs) {
			return fmt.Errorf("scenario %s: crash of receiver %d out of range (have %d)",
				sc.Spec.Name, idx, len(sc.Recvs))
		}
		e := sc.newEvent()
		e.crash = idx
		sc.Env.Sch.AtArg(ev.At, fireEvent, e)
	default:
		return fmt.Errorf("scenario %s: empty event", sc.Spec.Name)
	}
	return nil
}

// scriptEvent is an armed entry of the event script: a set_link and the
// links it resolved to, or (set nil) the Recvs slot a crash takes down.
// It comes from the arena, its link slice keeping its storage, and rides
// its timer as the argument.
type scriptEvent struct {
	sc    *Scenario
	set   *SetLink
	links []*simnet.Link
	crash int
}

func (sc *Scenario) newEvent() *scriptEvent {
	e := sim.Pooled[scriptEvent](sc.Env.Net.Arena())
	*e = scriptEvent{sc: sc, links: e.links[:0]}
	return e
}

func fireEvent(arg any) {
	e := arg.(*scriptEvent)
	if e.set == nil {
		if rcv := e.sc.Recvs[e.crash]; rcv != nil {
			rcv.Crash()
		}
		return
	}
	for _, l := range e.links {
		e.set.apply(l)
	}
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
