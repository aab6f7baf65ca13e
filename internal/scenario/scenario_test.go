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
	out, err := base.Apply(ov)
	if err != nil {
		t.Fatal(err)
	}
	if out.Duration != 10*sim.Second {
		t.Fatalf("duration override not applied: %v", out.Duration)
	}
	// The base spec must be untouched.
	if base.Duration == out.Duration {
		t.Fatal("Apply mutated the receiver spec")
	}
}

// TestOverridesRejectNonsense: a duration override that is neither
// "unset" nor a length a spec can hold is an error naming its flag —
// never silently dropped (negatives used to read as "not set").
func TestOverridesRejectNonsense(t *testing.T) {
	for _, c := range []struct {
		name string
		ov   Overrides
		flag string // "" = must apply cleanly
	}{
		{"none", None(), ""},
		{"duration 5", Overrides{Duration: 5 * sim.Second}, ""},
		{"duration -5", Overrides{Duration: -5 * sim.Second}, "-duration"},
	} {
		out, err := Degrade().Apply(c.ov)
		switch {
		case c.flag == "" && err != nil:
			t.Errorf("%s: valid overrides refused: %v", c.name, err)
		case c.flag != "" && err == nil:
			t.Errorf("%s: applied without error (duration %v)", c.name, out.Duration)
		case c.flag != "" && !strings.Contains(err.Error(), c.flag+" "):
			t.Errorf("%s: error does not name %s: %v", c.name, c.flag, err)
		}
	}
}

// TestEdgeLossLeavesHoplessSite: a site that declares no hops (a
// hand-edited document) is refused by Build naming the hop count, and
// nothing before Build indexes its last hop; an edge-loss override once
// did, and panicked.
func TestEdgeLossLeavesHoplessSite(t *testing.T) {
	spec := FlashCrowd()
	site := *spec.Steps[0].Site
	site.Hops = []Hop{}
	spec.Steps[0].Site = &site
	out, err := spec.Apply(None())
	if err != nil {
		t.Fatalf("Apply refused an empty override: %v", err)
	}
	if len(out.Steps[0].Site.Hops) != 0 {
		t.Fatalf("Apply gave the hopless site %d hops", len(out.Steps[0].Site.Hops))
	}
	if _, err := Build(NewEnv(1), out); err == nil || !strings.Contains(err.Error(), "1 or 2 hops") {
		t.Fatalf("Build of the hopless site: %v, want the hop-count error", err)
	}
}

// TestShapeOverrideStrandsReference: a topology shape (fan-out, depth,
// hops) that leaves the spec naming a core node, attach point or core
// link the topology lacks is refused by Build naming the reference; the
// same references on a shape that has them build.
func TestShapeOverrideStrandsReference(t *testing.T) {
	leafSites := func() *Spec {
		s := DeepTree()
		s.Topology.Depth = 3
		s.Pop = nil
		s.Steps = []Step{{Site: &SiteSpec{Parent: AttachPoint(7), Hops: []Hop{FastHop()}}}}
		return s
	}
	coreEvent := func() *Spec {
		s := ChainLoss()
		s.Steps = s.Steps[:2]
		s.Events = []Event{SetLossEvent(sim.Second, CoreLink(5), 0.1)}
		return s
	}
	for _, c := range []struct {
		name string
		spec func() *Spec
		edit func(*Topology)
		want string // "" = must build
	}{
		{"hops below a named core node", ChainLoss, func(tp *Topology) { tp.Hops = 3 }, "core node 4 out of range (have 4)"},
		{"hops keeping every core node", ChainLoss, func(tp *Topology) { tp.Hops = 4 }, ""},
		{"depth below a named attach point", leafSites, func(tp *Topology) { tp.Depth = 2 }, "attach point 7 out of range (have 4)"},
		{"fanout and depth keeping the attach point", leafSites, func(tp *Topology) { tp.Fanout, tp.Depth = 3, 2 }, ""},
		{"fanout and depth below the attach point", leafSites, func(tp *Topology) { tp.Fanout, tp.Depth = 3, 1 }, "attach point 7 out of range (have 3)"},
		{"hops below a scripted core link", coreEvent, func(tp *Topology) { tp.Hops = 5 }, "core link 5 out of range (have 5 pairs) (event 0)"},
		{"hops keeping the scripted core link", coreEvent, func(tp *Topology) { tp.Hops = 6 }, ""},
	} {
		spec := c.spec()
		c.edit(&spec.Topology)
		_, err := Build(NewEnv(1), spec)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: refused: %v", c.name, err)
		case c.want != "" && err == nil:
			t.Errorf("%s: built, want an error containing %q", c.name, c.want)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.want)
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
