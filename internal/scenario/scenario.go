// Package scenario turns experiment setups into data. A Spec declares a
// topology (generated from one of the standard shapes), an ordered list
// of construction steps — access links, TFMCC receivers with join/leave
// times, TCP and CBR cross-traffic — and a timed event script that
// mutates link properties or toggles flows mid-run. The executor
// (Build/Run) wires the spec onto a simulation environment in a single
// deterministic order, so a scenario is reproducible from its data alone
// and rewindable through the simnet arena like any hand-built setup.
//
// The paper's engine figures are Specs with a report each (figures 13 and
// 14 families of Specs), and new scenarios — churn scripts, mid-run
// bottleneck degradation, wireless-like lossy edges — are added by
// declaring data, not by writing plumbing.
package scenario

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// Port aliases simnet.Port for compact spec literals.
type Port = simnet.Port

// LinkP are the per-direction properties of one link.
//
// The json tags on this and every other spec type define the scenario
// wire format (see json.go): times are integer nanoseconds with an _ns
// suffix, zero-valued fields are omitted, and the zero value of every
// omitted field is its meaning — so Marshal→Unmarshal→Marshal is a
// byte-level fixpoint.
type LinkP struct {
	BW    float64  `json:"bw,omitempty"`       // bytes/second; 0 = infinite
	Delay sim.Time `json:"delay_ns,omitempty"` // propagation delay
	Loss  float64  `json:"loss,omitempty"`     // Bernoulli drop probability on entry
	Queue int      `json:"queue,omitempty"`    // queue limit in packets (ignored for infinite links)
}

// check names the first number of p a link cannot take, field being p's
// place in the spec document: every value must be finite, bw, delay_ns
// and queue at least 0, and loss a probability in [0, 1].
func (p LinkP) check(field string) error {
	switch {
	case !(p.BW >= 0) || math.IsInf(p.BW, 1): // negated so that NaN fails too
		return fmt.Errorf("%s.bw %v is negative or not finite (0 = infinite)", field, p.BW)
	case p.Delay < 0:
		return fmt.Errorf("%s.delay_ns %d is negative", field, p.Delay)
	case !(p.Loss >= 0 && p.Loss <= 1):
		return fmt.Errorf("%s.loss %v outside [0, 1]", field, p.Loss)
	case p.Queue < 0:
		return fmt.Errorf("%s.queue %d is negative", field, p.Queue)
	}
	return nil
}

// Hop is one duplex segment of an access path: Down carries traffic
// towards the receiver, Up back towards the core.
type Hop struct {
	Down LinkP `json:"down,omitzero"`
	Up   LinkP `json:"up,omitzero"`
}

// FastHop is the standard uncongested access link: infinite bandwidth,
// 1 ms each way, no loss — what every figure uses for plain attachments.
func FastHop() Hop {
	p := LinkP{Delay: sim.Millisecond}
	return Hop{Down: p, Up: p}
}

// SymHop builds a symmetric hop from one set of properties.
func SymHop(p LinkP) Hop { return Hop{Down: p, Up: p} }

// LossyHop is an uncapped hop of one-way delay d each way whose down link
// drops a fraction loss of its packets at random.
func LossyHop(d sim.Time, loss float64) Hop {
	return Hop{Down: LinkP{Delay: d, Loss: loss}, Up: LinkP{Delay: d}}
}

// Jitter draws a site's first-hop delay (both directions) uniformly from
// {Min, Min+1, ..., Min+Span-1} milliseconds using the environment's
// protocol RNG, one draw per site in step order. The hop it draws for
// declares no delay of its own; Build refuses one.
type Jitter struct {
	MinMs  int `json:"min_ms,omitempty"`
	SpanMs int `json:"span_ms,omitempty"`
}

// Kind selects a topology generator.
type Kind int

const (
	// Dumbbell is the classic two-router shape: node 0 (left) and node 1
	// (right) joined by the Core bottleneck duplex.
	Dumbbell Kind = iota
	// Star is a single hub (node 0); capacity lives on per-site access
	// links declared as steps. Core is unused.
	Star
	// Tree is a k-ary distribution tree of interior Core duplexes; the
	// attach points are its leaves.
	Tree
	// Chain is a linear sequence of Hops+1 routers joined by Core
	// duplexes — a long multi-hop path; the attach point is the far end.
	Chain
	// TransitStub is a chain of Transit core routers, each serving Stubs
	// stub routers over StubLink duplexes; the attach points are the stub
	// routers, round-robin across transit nodes.
	TransitStub
)

func (k Kind) String() string {
	switch k {
	case Dumbbell:
		return "dumbbell"
	case Star:
		return "star"
	case Tree:
		return "tree"
	case Chain:
		return "chain"
	case TransitStub:
		return "transit-stub"
	}
	return "unknown"
}

// Topology declares the generated core of a scenario.
type Topology struct {
	Kind Kind  `json:"kind,omitempty"`
	Core LinkP `json:"core,omitzero"` // bottleneck (Dumbbell) / interior links (Tree, Chain, TransitStub)

	Fanout int `json:"fanout,omitempty"` // Tree
	Depth  int `json:"depth,omitempty"`  // Tree

	Hops int `json:"hops,omitempty"` // Chain: number of core links

	Transit  int   `json:"transit,omitempty"`  // TransitStub: transit routers
	Stubs    int   `json:"stubs,omitempty"`    // TransitStub: stub routers per transit node
	StubLink LinkP `json:"stub_link,omitzero"` // TransitStub: transit->stub duplex properties
}

// RefKind discriminates NodeRef targets.
type RefKind int

const (
	// RefCore indexes the topology's core nodes in creation order.
	RefCore RefKind = iota
	// RefAttach indexes the topology's canonical attach points (dumbbell:
	// right router; star: hub; tree: leaves; chain: far end; transit-stub:
	// stub routers).
	RefAttach
	// RefSite is the leaf node of the Index-th Site step.
	RefSite
	// RefSiteMid is the intermediate node of a two-hop Site step.
	RefSiteMid
)

// NodeRef names a node of the built scenario symbolically.
type NodeRef struct {
	Kind  RefKind `json:"kind,omitempty"`
	Index int     `json:"index,omitempty"`
}

// Core references the i-th core node of the topology.
func Core(i int) NodeRef { return NodeRef{RefCore, i} }

// AttachPoint references the i-th canonical attach point.
func AttachPoint(i int) NodeRef { return NodeRef{RefAttach, i} }

// Site references the leaf node of the i-th Site step.
func Site(i int) NodeRef { return NodeRef{RefSite, i} }

// SiteMid references the intermediate node of the i-th (two-hop) Site.
func SiteMid(i int) NodeRef { return NodeRef{RefSiteMid, i} }

// LinkRef names a link of the built scenario symbolically.
type LinkRef struct {
	Site int  `json:"site,omitempty"` // site index, or -1 for a core link
	Hop  int  `json:"hop,omitempty"`  // hop index within the site, or core-link index
	Up   bool `json:"up,omitempty"`   // reverse (towards-core / right-to-left) direction
}

// CoreLink references the i-th core link pair (down direction unless Up).
func CoreLink(i int) LinkRef { return LinkRef{Site: -1, Hop: i} }

// SiteLink references hop h of site s (down direction unless up).
func SiteLink(s, h int, up bool) LinkRef { return LinkRef{Site: s, Hop: h, Up: up} }

// SiteSpec attaches an access path (1 or 2 hops) to the topology,
// creating this scenario's next site. Sites are numbered in step order.
type SiteSpec struct {
	Parent NodeRef `json:"parent,omitzero"`  // where the first hop hangs; zero value = Core(0)
	Hops   []Hop   `json:"hops,omitempty"`   // 1 or 2 hops; the last node created is the site leaf
	Jitter *Jitter `json:"jitter,omitempty"` // optional randomised first-hop delay; that hop declares none
}

// RecvSpec joins a TFMCC receiver. Receivers are numbered in step order;
// scheduled joins (JoinAt > 0) instantiate the receiver when the event
// fires: creation order pins receiver ids, and with them the ledger
// bytes.
type RecvSpec struct {
	At      NodeRef  `json:"at,omitzero"`           // attachment node, typically Site(i)
	JoinAt  sim.Time `json:"join_at_ns,omitempty"`  // 0 = join during construction
	LeaveAt sim.Time `json:"leave_at_ns,omitempty"` // 0 = never leave
	Meter   string   `json:"meter,omitempty"`       // series name; "" = unmetered
}

// TCPSpec wires a TCP NewReno flow: a fresh source node fast-linked to
// From, a fresh sink node fast-linked behind To.
type TCPSpec struct {
	Name    string      `json:"name"` // unique flow key (events, aggregates)
	From    NodeRef     `json:"from,omitzero"`
	To      NodeRef     `json:"to,omitzero"`
	Port    simnet.Port `json:"port,omitempty"`
	StartAt sim.Time    `json:"start_at_ns,omitempty"` // 0 = start during construction
	StopAt  sim.Time    `json:"stop_at_ns,omitempty"`  // 0 = never stop
	Meter   string      `json:"meter,omitempty"`       // goodput series name; "" = unmetered
}

// CBRSpec wires a constant-bit-rate background source between fresh
// endpoint nodes, like TCPSpec.
type CBRSpec struct {
	Name    string      `json:"name"`
	From    NodeRef     `json:"from,omitzero"`
	To      NodeRef     `json:"to,omitzero"`
	Port    simnet.Port `json:"port,omitempty"`
	Rate    float64     `json:"rate,omitempty"` // bytes/second
	Size    int         `json:"size,omitempty"` // packet size in bytes
	StartAt sim.Time    `json:"start_at_ns,omitempty"`
	StopAt  sim.Time    `json:"stop_at_ns,omitempty"`
	Meter   string      `json:"meter,omitempty"`
}

// AggSpec samples the sum of the named flows' most recent meter readings
// once per Every (default 1 s) into a new series — the "aggregated TCP"
// curves of figures 15/16/21.
type AggSpec struct {
	Name  string   `json:"name"`
	Flows []string `json:"flows,omitempty"`
	Every sim.Time `json:"every_ns,omitempty"`
}

// SampleKind selects what a SampleSpec records.
type SampleKind int

const (
	// SampleValidRTT counts receivers holding a real RTT measurement.
	SampleValidRTT SampleKind = iota
	// SampleSenderRate records the TFMCC sender's current rate (bytes/s).
	SampleSenderRate
	// SampleMembers records the multicast group's member count.
	SampleMembers
)

// SampleSpec periodically samples a session-level quantity into a series.
type SampleSpec struct {
	Name  string     `json:"name"`
	What  SampleKind `json:"what,omitempty"`
	Every sim.Time   `json:"every_ns,omitempty"` // default 1 s
}

// Step is one ordered construction action. Exactly one field is set.
// Step order is the construction order, which pins node/link identity,
// RNG consumption and same-instant event ordering — the properties that
// make a scenario byte-reproducible.
type Step struct {
	Site   *SiteSpec   `json:"site,omitempty"`
	Recv   *RecvSpec   `json:"recv,omitempty"`
	TCP    *TCPSpec    `json:"tcp,omitempty"`
	CBR    *CBRSpec    `json:"cbr,omitempty"`
	Agg    *AggSpec    `json:"agg,omitempty"`
	Sample *SampleSpec `json:"sample,omitempty"`
}

// Population declares a uniform receiver block: Count single-hop sites
// (or direct attachments) with one receiver each, expanded before the
// explicit Steps. It exists so large uniform scenarios stay compact and
// so the receiver count is one field of the document.
type Population struct {
	Count     int     `json:"count,omitempty"`
	Parent    NodeRef `json:"parent,omitzero"`      // zero value = Core(0)
	PerAttach bool    `json:"per_attach,omitempty"` // round-robin receivers over all attach points
	Direct    bool    `json:"direct,omitempty"`     // no access hop: join on the parent node itself
	// Hop is the access hop (ignored when Direct). Only the wholly zero
	// value stands for FastHop; a partly set hop is taken literally, so a
	// hop that sets only a loss has 0 ms links. Jitter, when set, draws
	// its delay each way, and the hop must then declare none.
	Hop    Hop     `json:"hop,omitzero"`
	Jitter *Jitter `json:"jitter,omitempty"`
	Meter  string  `json:"meter,omitempty"` // meter name for receiver 0; "" = none
}

// SetLink is a timed mutation of every listed link, the script's one
// link verb. Nil fields stay unchanged; each link takes the set ones in
// field order (bandwidth, delay, loss, down, impairments). Down true
// takes a link down — routes re-derive around it, and traffic with no
// remaining path becomes counted Unreachable drops — and false brings it
// back up.
type SetLink struct {
	Links  []LinkRef `json:"links,omitempty"`
	BW     *float64  `json:"bw,omitempty"`
	Delay  *sim.Time `json:"delay_ns,omitempty"`
	Loss   *float64  `json:"loss,omitempty"`
	Down   *bool     `json:"down,omitempty"`
	Impair *Impair   `json:"impair,omitempty"`
}

// Impair configures a link's fault-injection modules (see
// simnet.Link.SetImpairments). Rates are Bernoulli probabilities drawn
// from the network's seeded RNG; zero rates disable a module and consume
// no randomness. A reordered packet is held back by up to four times the
// link's delay at event time (at least 1 ms).
type Impair struct {
	Corrupt   float64 `json:"corrupt,omitempty"`
	Duplicate float64 `json:"duplicate,omitempty"`
	Reorder   float64 `json:"reorder,omitempty"`
}

// Event is one entry of the timed script. Exactly one action is set.
type Event struct {
	At      sim.Time `json:"at_ns,omitempty"`
	SetLink *SetLink `json:"set_link,omitempty"`
	Crash   *int     `json:"crash,omitempty"` // crash the i-th declared receiver (no Leave report)
}

// Spec is a complete declarative scenario. Its TFMCC session runs the
// paper's parameter set (tfmcc's constants) on group 1, port 100, from
// a source node on a fast access duplex into the topology's sender
// attach point; HalveOnSilence is the one protocol choice a spec makes
// (tfmcc.Config.HalveOnSilence, the section 5 no-feedback mode).
type Spec struct {
	Name           string      `json:"name,omitempty"`
	Title          string      `json:"title,omitempty"`
	Topology       Topology    `json:"topology,omitzero"`
	HalveOnSilence bool        `json:"halve_on_silence,omitempty"`
	Pop            *Population `json:"pop,omitempty"`
	Steps          []Step      `json:"steps,omitempty"`
	Events         []Event     `json:"events,omitempty"`
	Duration       sim.Time    `json:"duration_ns"`
}

// BW converts Mbit/s to the bytes/second links use.
func BW(mbit float64) float64 { return mbit * 125000 }

func ptrF(v float64) *float64   { return &v }
func ptrT(v sim.Time) *sim.Time { return &v }
func ptrB(v bool) *bool         { return &v }

// SetBWEvent mutates a link's bandwidth at time t.
func SetBWEvent(at sim.Time, l LinkRef, bw float64) Event {
	return Event{At: at, SetLink: &SetLink{Links: []LinkRef{l}, BW: ptrF(bw)}}
}

// SetDelayEvent mutates a link's propagation delay at time t.
func SetDelayEvent(at sim.Time, l LinkRef, d sim.Time) Event {
	return Event{At: at, SetLink: &SetLink{Links: []LinkRef{l}, Delay: ptrT(d)}}
}

// SetLossEvent mutates a link's random-loss probability at time t.
func SetLossEvent(at sim.Time, l LinkRef, p float64) Event {
	return Event{At: at, SetLink: &SetLink{Links: []LinkRef{l}, Loss: ptrF(p)}}
}

// PartitionEvent takes every listed link down at time t — one link, a
// duplex (pass DuplexRefs) or a whole subtree.
func PartitionEvent(at sim.Time, links ...LinkRef) Event {
	return Event{At: at, SetLink: &SetLink{Links: links, Down: ptrB(true)}}
}

// HealEvent brings every listed link back up at time t.
func HealEvent(at sim.Time, links ...LinkRef) Event {
	return Event{At: at, SetLink: &SetLink{Links: links, Down: ptrB(false)}}
}

// DuplexRefs returns both directions of a link reference — convenience
// for PartitionEvent/HealEvent cutting whole duplexes.
func DuplexRefs(l LinkRef) []LinkRef {
	down, up := l, l
	down.Up, up.Up = false, true
	return []LinkRef{down, up}
}

// CrashEvent kills the i-th declared receiver at time t: it stops
// processing traffic and leaves the multicast group without sending the
// Leave report a graceful departure would — the sender must discover the
// silence through its CLR feedback timeout.
func CrashEvent(at sim.Time, recv int) Event {
	i := recv
	return Event{At: at, Crash: &i}
}

// ImpairEvent configures a link's corruption/duplication/reordering
// modules at time t; a zero Impair clears them.
func ImpairEvent(at sim.Time, l LinkRef, im Impair) Event {
	return Event{At: at, SetLink: &SetLink{Links: []LinkRef{l}, Impair: &im}}
}
