package scenario

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
)

func mustLink(t *testing.T, sc *Scenario, ref LinkRef) *simnet.Link {
	t.Helper()
	l, err := sc.Link(ref)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestTopologyGenerators(t *testing.T) {
	cases := []struct {
		top           Topology
		nodes, attach int
		links         int // core link pairs
	}{
		{Topology{Kind: Dumbbell, Core: LinkP{BW: 1000, Delay: sim.Millisecond, Queue: 10}}, 2, 1, 1},
		{Topology{Kind: Star}, 1, 1, 0},
		{Topology{Kind: Tree, Fanout: 2, Depth: 3, Core: LinkP{Delay: sim.Millisecond}}, 15, 8, 14},
		{Topology{Kind: Chain, Hops: 5, Core: LinkP{Delay: sim.Millisecond}}, 6, 1, 5},
		{Topology{Kind: TransitStub, Transit: 3, Stubs: 2,
			Core: LinkP{Delay: sim.Millisecond}, StubLink: LinkP{Delay: sim.Millisecond}}, 9, 6, 8},
	}
	for _, c := range cases {
		env := NewEnv(1)
		topo, err := buildTopology(env.Net, c.top)
		if err != nil {
			t.Fatalf("%s: %v", c.top.Kind, err)
		}
		if len(topo.Nodes) != c.nodes {
			t.Errorf("%s: %d core nodes, want %d", c.top.Kind, len(topo.Nodes), c.nodes)
		}
		if len(topo.Attach) != c.attach {
			t.Errorf("%s: %d attach points, want %d", c.top.Kind, len(topo.Attach), c.attach)
		}
		if len(topo.Links) != 2*c.links {
			t.Errorf("%s: %d core links, want %d", c.top.Kind, len(topo.Links), 2*c.links)
		}
	}
}

// TestEventScript checks SetLink events mutate the referenced links at
// the scripted instants — one link's bandwidth, delay or loss, a duplex
// taken down and back up by one event each, impairments whose default
// reorder bound is four times the link's delay at event time — and flow
// start/stop toggles traffic.
func TestEventScript(t *testing.T) {
	spec := &Spec{
		Name:     "evt-test",
		Topology: Topology{Kind: Dumbbell, Core: LinkP{BW: 4 * 125000, Delay: 10 * sim.Millisecond, Queue: 40}},
		Steps: []Step{
			{Site: &SiteSpec{Parent: AttachPoint(0), Hops: []Hop{FastHop()}}},
			{Recv: &RecvSpec{At: Site(0), Meter: "tfmcc"}},
			{CBR: &CBRSpec{Name: "cbr", From: Core(0), To: Core(1), Port: 9,
				Rate: 125000, Size: 1000, StartAt: 2 * sim.Second, StopAt: 4 * sim.Second, Meter: "cbr"}},
		},
		Events: []Event{
			SetBWEvent(3*sim.Second, CoreLink(0), 2*125000),
			SetDelayEvent(3*sim.Second, CoreLink(0), 40*sim.Millisecond),
			SetLossEvent(3*sim.Second, SiteLink(0, 0, false), 0.5),
			// The site's uplink goes from 1 ms to 5 ms before it is
			// impaired, so every packet now reorders by up to 20 ms (4 ms
			// if the bound were read at build time).
			SetDelayEvent(sim.Second, SiteLink(0, 0, true), 5*sim.Millisecond),
			ImpairEvent(1500*sim.Millisecond, SiteLink(0, 0, true), Impair{Reorder: 1}),
			PartitionEvent(4500*sim.Millisecond, DuplexRefs(CoreLink(0))...),
			HealEvent(5500*sim.Millisecond, DuplexRefs(CoreLink(0))...),
		},
		Duration: 6 * sim.Second,
	}
	env := NewEnv(1)
	sc, err := Build(env, spec)
	if err != nil {
		t.Fatal(err)
	}
	core := mustLink(t, sc, CoreLink(0))
	coreUp := mustLink(t, sc, SiteLink(-1, 0, true))
	edge := mustLink(t, sc, SiteLink(0, 0, false))

	// Probe the impaired uplink: 200 packets from the site leaf to the
	// router above it, one every 4 ms from t=1.6s.
	probe := simnet.Addr{Node: sc.Topo.Attach[0], Port: 99}
	var minD, maxD sim.Time = sim.MaxTime, 0
	env.Net.Bind(probe, simnet.HandlerFunc(func(pkt *simnet.Packet) {
		d := env.Sch.Now() - pkt.SentAt
		minD, maxD = min(minD, d), max(maxD, d)
	}))
	for i := range 200 {
		env.Sch.At(1600*sim.Millisecond+sim.Time(i)*4*sim.Millisecond, func() {
			pkt := env.Net.AllocPacket()
			pkt.Size, pkt.Src, pkt.Dst = 40, simnet.Addr{Node: sc.SiteLeaf[0], Port: 99}, probe
			env.Net.Send(pkt)
		})
	}

	sc.Start()
	sc.RunUntil(2500 * sim.Millisecond)
	if core.Bandwidth != 4*125000 || core.Delay != 10*sim.Millisecond || edge.LossProb != 0 {
		t.Fatal("links mutated before the scripted instant")
	}
	if core.IsDown() || coreUp.IsDown() {
		t.Fatal("core duplex down before the partition")
	}
	if minD < 5*sim.Millisecond || maxD >= 25*sim.Millisecond || maxD < 20*sim.Millisecond {
		t.Fatalf("impaired uplink delays span [%v, %v], want inside [5ms, 25ms) reaching past 20ms", minD, maxD)
	}
	if sc.Flow("cbr").CBR.SentPackets == 0 {
		t.Fatal("CBR did not start at its StartAt")
	}
	sc.RunUntil(5 * sim.Second)
	if core.Bandwidth != 2*125000 || core.Delay != 40*sim.Millisecond || edge.LossProb != 0.5 {
		t.Fatalf("event script not applied: bw=%v delay=%v loss=%v",
			core.Bandwidth, core.Delay, edge.LossProb)
	}
	sent := sc.Flow("cbr").CBR.SentPackets
	// ~2s at 125 packets/s, minus pacing edge effects.
	if sent < 200 || sent > 260 {
		t.Fatalf("CBR sent %d packets in its 2s window, want ~250", sent)
	}
	if !core.IsDown() || !coreUp.IsDown() {
		t.Fatal("partition did not take both core directions down")
	}
	sc.RunUntil(6 * sim.Second)
	if core.IsDown() || coreUp.IsDown() {
		t.Fatal("heal did not bring both core directions back up")
	}
	if sc.Flow("cbr").CBR.SentPackets != sent {
		t.Fatal("CBR kept sending after StopAt")
	}
	if sc.Flow("cbr").CBRSink.DeliveredPackets == 0 {
		t.Fatal("CBR sink saw no traffic")
	}
}

// TestChurnScript checks scheduled joins and leaves move group
// membership as declared.
func TestChurnScript(t *testing.T) {
	spec := &Spec{
		Name:     "churn-test",
		Topology: Topology{Kind: Star},
		Steps: []Step{
			{Site: &SiteSpec{Parent: AttachPoint(0), Hops: []Hop{FastHop()}}},
			{Site: &SiteSpec{Parent: AttachPoint(0), Hops: []Hop{FastHop()}}},
			{Recv: &RecvSpec{At: Site(0), Meter: "r0"}},
			{Recv: &RecvSpec{At: Site(1), JoinAt: 2 * sim.Second, LeaveAt: 4 * sim.Second}},
		},
		Duration: 6 * sim.Second,
	}
	env := NewEnv(1)
	sc, err := Build(env, spec)
	if err != nil {
		t.Fatal(err)
	}
	g := sc.Sess.Group
	sc.Start()
	sc.RunUntil(sim.Second)
	if n := env.Net.Members(g); n != 1 {
		t.Fatalf("members at 1s = %d, want 1", n)
	}
	if sc.Recvs[1] != nil {
		t.Fatal("scheduled receiver instantiated early")
	}
	sc.RunUntil(3 * sim.Second)
	if n := env.Net.Members(g); n != 2 {
		t.Fatalf("members at 3s = %d, want 2", n)
	}
	if sc.Recvs[1] == nil {
		t.Fatal("scheduled receiver missing after JoinAt")
	}
	sc.RunUntil(5 * sim.Second)
	if n := env.Net.Members(g); n != 1 {
		t.Fatalf("members at 5s = %d, want 1 after leave", n)
	}
}

func TestOverridesApply(t *testing.T) {
	base := DeepTree()
	ov := None()
	ov.Duration = 10 * sim.Second
	ov.Fanout = 3
	ov.Depth = 2
	ov.Receivers = 5
	ov.CoreLoss = 0.02
	out, err := base.Apply(ov)
	if err != nil {
		t.Fatal(err)
	}
	if out.Duration != 10*sim.Second || out.Topology.Fanout != 3 || out.Topology.Depth != 2 {
		t.Fatalf("topology overrides not applied: %+v", out.Topology)
	}
	if out.Topology.Core.Loss != 0.02 {
		t.Fatalf("core loss override not applied: %v", out.Topology.Core.Loss)
	}
	if out.Pop.Count != 5 {
		t.Fatalf("receiver override not applied: %+v", out.Pop)
	}
	// The base spec must be untouched.
	if base.Duration == out.Duration || base.Pop.Count != 0 || base.Topology.Fanout != 2 {
		t.Fatal("Apply mutated the receiver spec")
	}

	// Receivers on a steps-only spec is an error, not silence.
	if _, err := Degrade().Apply(Overrides{CoreLoss: -1, EdgeLoss: -1, Receivers: 3}); err == nil {
		t.Fatal("Receivers override on a steps-only spec should error")
	}

	// EdgeLoss must copy-on-write the site steps.
	fc := FlashCrowd()
	out2, err := fc.Apply(Overrides{CoreLoss: -1, EdgeLoss: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	var checked bool
	for i, st := range out2.Steps {
		if st.Site == nil {
			continue
		}
		if st.Site.Hops[0].Down.Loss != 0.2 {
			t.Fatalf("edge loss not applied to site step %d", i)
		}
		if fc.Steps[i].Site.Hops[0].Down.Loss == 0.2 {
			t.Fatalf("edge loss mutated the base spec at step %d", i)
		}
		checked = true
	}
	if !checked {
		t.Fatal("no site steps found in flashcrowd")
	}
}

// TestEdgeLossLeavesHoplessSite: an edge-loss override over a site that
// declares no hops (a hand-edited document) leaves that site for Build to
// refuse, as the same document without the override is; Apply used to
// index the site's last hop and panic.
func TestEdgeLossLeavesHoplessSite(t *testing.T) {
	spec := FlashCrowd()
	site := *spec.Steps[0].Site
	site.Hops = []Hop{}
	spec.Steps[0].Site = &site
	ov := None()
	ov.EdgeLoss = 0.1
	out, err := spec.Apply(ov)
	if err != nil {
		t.Fatalf("Apply refused a well-formed override: %v", err)
	}
	if len(out.Steps[0].Site.Hops) != 0 {
		t.Fatalf("Apply gave the hopless site %d hops", len(out.Steps[0].Site.Hops))
	}
	if out.Steps[1].Site.Hops[0].Down.Loss != 0.1 {
		t.Fatal("edge loss not applied to the sites that have hops")
	}
	if _, err := Build(NewEnv(1), out); err == nil || !strings.Contains(err.Error(), "1 or 2 hops") {
		t.Fatalf("Build of the hopless site: %v, want the hop-count error", err)
	}
}

// TestOverridesRejectNonsense: an override that is neither "unset" nor a
// value a spec can hold is an error naming its flag — never silently
// dropped (NaN and negatives used to read as "not set") and never folded
// into the spec (a loss of 1.5 used to run and print zeros).
func TestOverridesRejectNonsense(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	with := func(set func(*Overrides)) Overrides {
		o := None()
		set(&o)
		return o
	}
	for _, c := range []struct {
		name string
		ov   Overrides
		flag string // "" = must apply cleanly
	}{
		{"none", None(), ""},
		{"loss 0", with(func(o *Overrides) { o.CoreLoss, o.EdgeLoss = 0, 0 }), ""},
		{"loss 1", with(func(o *Overrides) { o.CoreLoss, o.EdgeLoss = 1, 1 }), ""},
		{"coreloss 1.5", with(func(o *Overrides) { o.CoreLoss = 1.5 }), "-coreloss"},
		{"coreloss NaN", with(func(o *Overrides) { o.CoreLoss = nan }), "-coreloss"},
		{"coreloss -0.5", with(func(o *Overrides) { o.CoreLoss = -0.5 }), "-coreloss"},
		{"coreloss -Inf", with(func(o *Overrides) { o.CoreLoss = math.Inf(-1) }), "-coreloss"},
		{"edgeloss NaN", with(func(o *Overrides) { o.EdgeLoss = nan }), "-edgeloss"},
		{"edgeloss +Inf", with(func(o *Overrides) { o.EdgeLoss = inf }), "-edgeloss"},
		{"edgeloss -2", with(func(o *Overrides) { o.EdgeLoss = -2 }), "-edgeloss"},
		{"corebw -3", with(func(o *Overrides) { o.CoreBW = -3 * 125000 }), "-corebw"},
		{"corebw NaN", with(func(o *Overrides) { o.CoreBW = nan }), "-corebw"},
		{"corebw +Inf", with(func(o *Overrides) { o.CoreBW = inf }), "-corebw"},
		{"duration -5", with(func(o *Overrides) { o.Duration = -5 * sim.Second }), "-duration"},
		{"coredelay -1ms", with(func(o *Overrides) { o.CoreDelay = -sim.Millisecond }), "-coredelay"},
		{"corequeue -1", with(func(o *Overrides) { o.CoreQueue = -1 }), "-corequeue"},
		{"receivers -2", with(func(o *Overrides) { o.Receivers = -2 }), "-receivers"},
		{"fanout -1", with(func(o *Overrides) { o.Fanout = -1 }), "-fanout"},
		{"depth -1", with(func(o *Overrides) { o.Depth = -1 }), "-depth"},
		{"hops -1", with(func(o *Overrides) { o.Hops = -1 }), "-hops"},
	} {
		// Degrade has a core link and a site, so every valid value applies.
		out, err := Degrade().Apply(c.ov)
		switch {
		case c.flag == "" && err != nil:
			t.Errorf("%s: valid overrides refused: %v", c.name, err)
		case c.flag != "" && err == nil:
			t.Errorf("%s: applied without error (core loss %v, duration %v)", c.name, out.Topology.Core.Loss, out.Duration)
		case c.flag != "" && !strings.Contains(err.Error(), c.flag+" "):
			t.Errorf("%s: error does not name %s: %v", c.name, c.flag, err)
		}
	}
}

// TestOverridesRefuseIgnored: an override that the spec's shape ignores
// — the run would be byte-identical without it — is an error naming its
// flag, like -receivers on a spec without a population: core values on
// a star, tree shape off a tree, a chain length off a chain, edge loss
// with no site and no population hop. The same override on a shape that
// uses it applies.
func TestOverridesRefuseIgnored(t *testing.T) {
	with := func(set func(*Overrides)) Overrides {
		o := None()
		set(&o)
		return o
	}
	corebw := with(func(o *Overrides) { o.CoreBW = 12500 })
	coredelay := with(func(o *Overrides) { o.CoreDelay = sim.Millisecond })
	coreloss := with(func(o *Overrides) { o.CoreLoss = 0.5 })
	corequeue := with(func(o *Overrides) { o.CoreQueue = 10 })
	fanout := with(func(o *Overrides) { o.Fanout = 3 })
	depth := with(func(o *Overrides) { o.Depth = 4 })
	hops := with(func(o *Overrides) { o.Hops = 4 })
	edgeloss := with(func(o *Overrides) { o.EdgeLoss = 0.1 })
	for _, c := range []struct {
		name string
		spec func() *Spec
		ov   Overrides
		flag string // "" = must apply
	}{
		{"corebw on a star", FlashCrowd, corebw, "-corebw"},
		{"coredelay on a star", FlashCrowd, coredelay, "-coredelay"},
		{"coreloss on a star", FlashCrowd, coreloss, "-coreloss"},
		{"corequeue on a star", FlashCrowd, corequeue, "-corequeue"},
		{"fanout on a dumbbell", Degrade, fanout, "-fanout"},
		{"depth on a chain", ChainLoss, depth, "-depth"},
		{"hops on a dumbbell", Degrade, hops, "-hops"},
		{"hops on a tree", DeepTree, hops, "-hops"},
		{"edgeloss without a site or population hop", DeepTree, edgeloss, "-edgeloss"},
		{"corebw on a dumbbell", Degrade, corebw, ""},
		{"coreloss on a tree", DeepTree, coreloss, ""},
		{"fanout and depth on a tree", DeepTree, with(func(o *Overrides) { o.Fanout, o.Depth = 3, 4 }), ""},
		{"hops on a chain", ChainLoss, hops, ""},
		{"edgeloss on a star's sites", FlashCrowd, edgeloss, ""},
	} {
		_, err := c.spec().Apply(c.ov)
		switch {
		case c.flag == "" && err != nil:
			t.Errorf("%s: refused: %v", c.name, err)
		case c.flag != "" && err == nil:
			t.Errorf("%s: applied, want an error naming %s", c.name, c.flag)
		case c.flag != "" && !strings.Contains(err.Error(), "override "+c.flag+" has no effect"):
			t.Errorf("%s: error does not name %s: %v", c.name, c.flag, err)
		}
	}
}

// TestTopologySizeGuardsCannotOverflow: topology sizes whose node count
// overflows int are refused like any other oversized topology, naming
// the field, before Build creates a node — they used to wrap past the
// guard and exhaust memory building the nodes.
func TestTopologySizeGuardsCannotOverflow(t *testing.T) {
	for _, tc := range []struct {
		field string
		make  func() *Spec
		edit  func(*Topology)
	}{
		{"topology.fanout", DeepTree, func(tp *Topology) { tp.Fanout, tp.Depth = math.MaxInt64, 1 }},
		{"topology.fanout", DeepTree, func(tp *Topology) { tp.Fanout, tp.Depth = 1<<32+1, 2 }},
		{"topology.depth", DeepTree, func(tp *Topology) { tp.Fanout, tp.Depth = 2, math.MaxInt }},
		{"topology.stubs", Wireless, func(tp *Topology) { tp.Transit, tp.Stubs = 65536, 1<<48-1 }},
		{"topology.stubs", Wireless, func(tp *Topology) { tp.Transit, tp.Stubs = 2, math.MaxInt }},
		{"topology.hops", ChainLoss, func(tp *Topology) { tp.Hops = math.MaxInt }},
	} {
		spec := tc.make()
		tc.edit(&spec.Topology)
		env := NewEnv(1)
		_, err := Build(env, spec)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Build = %v, want an error naming the field", tc.field, err)
		}
		if n := env.Net.NumNodes(); n != 0 {
			t.Errorf("%s: Build created %d nodes before refusing the topology", tc.field, n)
		}
	}
}

// TestPresetSpecsBuild builds every preset spec (no run) so reference
// errors — bad site indices, unknown flows in aggregates — fail fast.
func TestPresetSpecsBuild(t *testing.T) {
	for _, p := range Presets() {
		spec := p()
		sc, err := Build(NewEnv(1), spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if sc.Sess == nil {
			t.Fatalf("%s: no session", spec.Name)
		}
	}
}

// TestDecodeRejectsRemovedEventKeys: set_link is the script's one link
// verb, so the keys of the verbs it replaced, and set_link's old
// single-link key, are unknown fields a strict decode names. So is the
// spec's old "cohort" key: explicit receivers are the one receiver kind.
// And so are the old protocol config keys — "session" (with its group,
// port and tfmcc cfg), a tcp step's "cfg" and an impairment's
// "reorder_delay_ns": halve_on_silence is the one protocol value a
// document sets, and it round-trips. Flows toggle through a step's
// start_at_ns and stop_at_ns, so "start" and "stop" are unknown events.
func TestDecodeRejectsRemovedEventKeys(t *testing.T) {
	for key, field := range map[string]string{
		"down":             `"events":[{"down":{"site":-1}}]`,
		"up":               `"events":[{"up":{"site":-1}}]`,
		"partition":        `"events":[{"partition":[{"site":-1}]}]`,
		"heal":             `"events":[{"heal":[{"site":-1}]}]`,
		"impair":           `"events":[{"impair":{"link":{"site":-1},"corrupt":0.1}}]`,
		"link":             `"events":[{"set_link":{"link":{"site":-1},"down":true}}]`,
		"cohort":           `"cohort":{"size":16,"meter":"TFMCC"}`,
		"session":          `"session":{"cfg":{"PacketSize":0}}`,
		"cfg":              `"steps":[{"tcp":{"name":"t","cfg":{"InitialRTO":0}}}]`,
		"reorder_delay_ns": `"events":[{"set_link":{"links":[{"site":-1}],"impair":{"reorder":0.2,"reorder_delay_ns":5}}}]`,
		"start":            `"events":[{"start":"t"}]`,
		"stop":             `"events":[{"stop":"t"}]`,
	} {
		doc := `{"name":"x","duration_ns":1,` + field + `}`
		if _, err := DecodeSpec([]byte(doc)); err == nil || !strings.Contains(err.Error(), `"`+key+`"`) {
			t.Errorf("%s: %v, want a decode error naming the key", key, err)
		}
	}
	ok := `{"name":"x","duration_ns":1,"events":[{"set_link":{"links":[{"site":-1},{"site":-1,"up":true}],"down":true,"impair":{}}}]}`
	if _, err := DecodeSpec([]byte(ok)); err != nil {
		t.Errorf("set_link with links, down and impair refused: %v", err)
	}
	enc, err := CLRFail().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(enc), `"halve_on_silence": true`) {
		t.Fatalf("clrfail's document does not set halve_on_silence:\n%s", enc)
	}
	back, err := DecodeSpec(enc)
	if err != nil || !back.HalveOnSilence {
		t.Fatalf("halve_on_silence lost in decode: %v", err)
	}
	if again, _ := back.Encode(); !bytes.Equal(again, enc) {
		t.Errorf("halve_on_silence round trip not a fixpoint:\n%s\n%s", enc, again)
	}
}

// TestSamplerTickDoesNotAllocate: a sampler re-arms one callback with one
// argument, so once its series has room, a tick allocates nothing.
func TestSamplerTickDoesNotAllocate(t *testing.T) {
	sc := &Scenario{Env: Env{Sch: sim.NewScheduler()}}
	reads := 0
	series := sc.tick("x", sim.Millisecond, func() float64 { reads++; return float64(reads) })
	series.Points = make([]stats.Point, 0, 1000)
	sch := sc.Env.Sch
	sch.RunUntil(5 * sim.Millisecond)
	if n := testing.AllocsPerRun(200, func() { sch.RunUntil(sch.Now() + sim.Millisecond) }); n != 0 {
		t.Fatalf("a sampler tick allocates %v objects", n)
	}
	if len(series.Points) != reads || series.Points[0].T != sim.Millisecond || series.Points[4].V != 5 {
		t.Fatalf("series %v after %d reads, want one point per millisecond", series.Points[:5], reads)
	}
}
