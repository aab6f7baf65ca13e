package simnet

import (
	"cmp"
	"slices"

	"repro/internal/sim"
)

// Network ties nodes and links together with unicast routing and
// source-rooted multicast forwarding, and owns the clock: RunUntil runs
// its scheduler, or on a sharded network (shard.go) its regions'
// schedulers in lookahead windows, so callers step either kind alike.
//
// The per-packet fast path is allocation- and map-free: links live in a
// flat slice with a CSR adjacency index, unicast routes are per-source
// rows of first-hop link indices computed the first time a node forwards,
// multicast trees are compiled into flattened child-link arrays, and
// packets obtained from AllocPacket are recycled through a per-network
// free list, shared by every region of a sharded network.
//
// Every network is rewound by Reset, which empties it but keeps its
// storage: the next run's construction calls run the same code as a
// fresh build, on recycled node slots, links, route slabs and protocol
// objects pooled in the network's arena.
type Network struct {
	sched *sim.Scheduler
	rng   *sim.Rand

	nodes []node
	names []string // debug names, aligned with nodes

	linkList []*Link
	linkIdx  map[linkKey]int32 // (from,to) -> index into linkList

	// CSR adjacency: for node u, linkList indices adjLinks[adjStart[u]:
	// adjStart[u+1]] are u's outgoing links sorted by destination.
	adjOK    bool
	adjStart []int32
	adjLinks []int32

	// Unicast routes, one row per source: routeRows[src][dst] is the
	// first-hop link index from src towards dst, -1 when unreachable. A nil
	// row has not been needed yet (see routeRow). routesOK false means the
	// topology changed and every row is stale. Rows are carved from
	// routeSlabs, which survive invalidation, so recomputing allocates
	// nothing.
	routesOK   bool
	routeRows  [][]int32
	routeSlabs [][]int32
	slabIdx    int // slab being carved
	slabOff    int // first free element in it

	groups  map[GroupID]*group
	topoVer uint32 // bumped on any change that can affect forwarding

	// Compiled multicast trees, in compile order, and the trees a topology
	// or membership change retired (retireTrees), whose storage the next
	// compilations reuse. treeMark (per link) and treeLinks (the links a
	// compilation found, in discovery order) are compile scratch.
	trees      []*mcastTree
	spareTrees []*mcastTree
	treeMark   []bool
	treeLinks  []int32
	treeWalk   []int32

	// One-entry last-tree cache for the forwarding path: almost
	// every multicast Send is the session's data stream from one source,
	// so this hits far more often than the map above misses.
	lastKey  mcastKey
	lastTree *mcastTree
	lastVer  uint32

	// timerPerPacket gives every fanned-out copy its own link timer
	// instead of parking it on a fan-out train. Nothing outside this
	// package's tests sets it: it is the reference delivery path fanOut
	// is fuzzed against, byte-identical by contract.
	timerPerPacket bool

	// Dijkstra scratch, reused across route recomputations. via[v] is the
	// link that last relaxed v.
	dist []int64
	prev []NodeID
	via  []int32
	done []bool
	dh   []distEntry

	// freePkts is the network's one packet free list per class.
	freePkts [NumPacketClasses][]*Packet

	// faults counts fault-injection outcomes for the whole network; pktLive
	// tracks pooled packets currently in flight (allocated, not yet fully
	// released) for the pool-conservation invariant.
	faults  FaultStats
	pktLive int64

	// Protocol constructors recycle their objects through the arena, which
	// Reset rewinds.
	arena *sim.Arena

	// Sharded execution (EnableSharding), zero on a serial network: nodes
	// are assigned to regions, each region runs on its own scheduler/RNG
	// pair, and crossing-link propagation is scheduled on the destination
	// region's scheduler. See shard.go.
	regions regions
}

// FaultStats counts network-wide fault-injection outcomes: packets that
// had no route to (some of) their destinations, packets corrupted in
// transit, and duplicate copies injected by the duplication module.
type FaultStats struct {
	Unreachable int64
	Corrupted   int64
	Duplicated  int64
}

// Faults returns the fault counters accumulated since the last Reset.
func (n *Network) Faults() FaultStats { return n.faults }

// LivePackets returns the number of pooled packets currently allocated
// and not yet fully released. The pool-conservation invariant is that it
// never goes negative (a free without a matching alloc).
func (n *Network) LivePackets() int64 { return n.pktLive }

type linkKey struct{ from, to NodeID }

type mcastKey struct {
	group GroupID
	src   NodeID
}

// group tracks membership as a node-indexed bitmap: O(1) membership tests
// with no per-packet map lookups.
type group struct {
	member []bool
	count  int
}

// mcastTree is a compiled source-rooted distribution tree: child link
// indices in CSR form plus a node-indexed delivery bitmap. Forwarding one
// hop touches only flat slices. A tree is read-only once compiled, until
// it is retired and its storage compiled into again.
type mcastTree struct {
	key     mcastKey
	start   []int32 // len V+1
	links   []int32 // linkList indices, grouped per node
	deliver []bool  // member && not source
	unreach int32   // members with no route from src (counted drops per send)

	// Fan-out train layout (train.go). rank is aligned with links: a
	// child's slot in its node's train — its position among the node's
	// infinite-bandwidth children ordered by (Delay, tree position) — or
	// -1 for a child kept off trains. slots[u] is node u's train length,
	// 0 when u sends none.
	rank  []int32
	slots []int32
}

// node is a 64-byte record, and what a delivery reads comes first: the
// most recently bound handler and its port, so delivering to it is one
// line off the node instead of node, slice, interface. A backing array
// of figure 12's thousand nodes is a large object, which the allocator
// page-aligns, so every record is one line of memory; a smaller one
// starts 8 bytes into a line, behind the allocator's type header, and
// the handler and port still share one. TestNodeLineBudget pins both.
type node struct {
	h     Handler
	hport Port

	fan      *fanout   // fan-out train state (train.go); nil until first used
	handlers []Handler // indexed by Port; empty until a second port binds

	_ [8]byte
}

// New returns an empty network bound to a scheduler and RNG.
func New(sched *sim.Scheduler, rng *sim.Rand) *Network {
	return &Network{
		sched:   sched,
		rng:     rng,
		linkIdx: map[linkKey]int32{},
		groups:  map[GroupID]*group{},
		arena:   sim.NewArena(),
	}
}

// TrainHeld returns the number of copies currently parked on node
// fan-out trains, the only events held outside a scheduler heap. Used by
// the train-conservation invariant (held copies are live by
// definition); call from the control path or at a barrier, where shards
// are quiescent.
func (n *Network) TrainHeld() int64 {
	var c int64
	for i := range n.nodes {
		if f := n.nodes[i].fan; f != nil {
			c += f.held
		}
	}
	return c
}

// clearTrains drops every node's in-flight fan-out trains.
func (n *Network) clearTrains() {
	for i := range n.nodes {
		if f := n.nodes[i].fan; f != nil {
			f.clear()
		}
	}
}

// EnableReuse does nothing: every network is rewindable. It stays only
// because the bench module still calls it.
func (n *Network) EnableReuse() {}

// Arena returns the network's protocol-object arena. Protocol
// constructors (e.g. tfmcc receivers) use it to recycle their
// allocation-heavy state across rewound runs.
func (n *Network) Arena() *sim.Arena { return n.arena }

// Reset empties the network for the next run of any scenario: nodes,
// links, group memberships, multicast trees, routes, fault counters,
// in-flight trains and sharding are dropped, and the arena rewinds. All
// storage is kept: the rebuild runs the same AddNode and AddLink code as
// a fresh build, on the node slots and links the previous runs left
// behind, and routes are recomputed lazily. It always reports true: the
// bench module still tests the result.
func (n *Network) Reset() bool {
	n.clearTrains()
	n.nodes = n.nodes[:0]
	n.linkList = n.linkList[:0]
	clear(n.linkIdx)
	n.adjOK, n.routesOK = false, false
	for _, gr := range n.groups {
		clear(gr.member)
		gr.count = 0
	}
	n.retireTrees(0, true)
	n.arena.Rewind()
	n.faults = FaultStats{}
	n.pktLive = 0
	// Rebuilt links bind to the serial scheduler/RNG; a following sharded
	// run re-enables with fresh shard state. The hint map is emptied and
	// kept for the rebuild's topology to label again.
	clear(n.regions.hints)
	n.regions = regions{hints: n.regions.hints}
	return true
}

// Scheduler returns the scheduler the network runs on.
func (n *Network) Scheduler() *sim.Scheduler { return n.sched }

// Rand returns the network's random source.
func (n *Network) Rand() *sim.Rand { return n.rng }

// AddNode creates a node and returns its ID. On a rewound network it
// reuses the slot an earlier run left at this position, keeping its
// handler and train storage.
func (n *Network) AddNode(name string) NodeID {
	id := NodeID(len(n.nodes))
	if len(n.nodes) < cap(n.nodes) {
		n.nodes = n.nodes[:id+1]
	} else {
		n.nodes = append(n.nodes, node{})
	}
	nd := &n.nodes[id]
	clear(nd.handlers)
	*nd = node{handlers: nd.handlers[:0], fan: nd.fan}
	n.names = append(n.names[:id], name)
	n.routesOK = false
	n.adjOK = false
	n.topoVer++
	return id
}

// AddNodeName is AddNode with the name given as bytes, for callers that
// format names into a stack buffer. On a rewound network a node whose
// slot held the same name in an earlier run keeps that string, so
// rebuilding the same shape allocates no names.
func (n *Network) AddNodeName(name []byte) NodeID {
	if id := len(n.nodes); id < cap(n.names) {
		if old := n.names[:id+1][id]; old == string(name) {
			return n.AddNode(old)
		}
	}
	return n.AddNode(string(name))
}

// NumNodes returns the number of nodes.
func (n *Network) NumNodes() int { return len(n.nodes) }

// NodeName returns the debug name of a node.
func (n *Network) NodeName(id NodeID) string { return n.names[id] }

// Bind attaches a handler to a node's port; a nil handler unbinds it.
// A node bound on one port keeps only h/hport. The port-indexed table is
// built when a second port binds, holding both, and serves every binding
// from then on, so a thousand single-port receivers build no table.
func (n *Network) Bind(addr Addr, h Handler) {
	nd := &n.nodes[addr.Node]
	if len(nd.handlers) == 0 {
		if nd.h == nil || nd.hport == addr.Port {
			nd.h, nd.hport = h, addr.Port
			return
		}
		if h == nil {
			return // unbinding a port that holds nothing
		}
		nd.bindTable(nd.hport, nd.h) // a second port: the table takes both
	}
	nd.bindTable(addr.Port, h)
	if h != nil || nd.hport == addr.Port {
		nd.h, nd.hport = h, addr.Port
	}
}

// bindTable sets port's entry of the node's port-indexed table, growing
// it to hold the port.
func (nd *node) bindTable(port Port, h Handler) {
	for int(port) >= len(nd.handlers) {
		nd.handlers = append(nd.handlers, nil)
	}
	nd.handlers[port] = h
}

// AddLink creates a unidirectional link. bandwidth is in bytes/second
// (0 = infinite), queueLimit in packets (ignored for infinite links).
// Adding a link between the same endpoints again replaces the first one.
// On a rewound network a new link reuses the *Link an earlier run left at
// the same position of the link list, keeping its queue storage.
func (n *Network) AddLink(from, to NodeID, bandwidth float64, delay sim.Time, queueLimit int) *Link {
	key := linkKey{from, to}
	i, replace := n.linkIdx[key]
	// A replacement is always a new *Link, as on a fresh build: whoever
	// holds the replaced one must not see it change.
	var l *Link
	if k := len(n.linkList); !replace && k < cap(n.linkList) {
		l = n.linkList[:k+1][k]
	}
	if l == nil {
		l = &Link{}
		l.deliverFn = l.deliverArg
		l.txDoneFn = l.txDone
	}
	l.init(n, from, to, bandwidth, delay, queueLimit)
	if replace {
		n.linkList[i] = l
	} else {
		n.linkIdx[key] = int32(len(n.linkList))
		n.linkList = append(n.linkList, l)
	}
	n.routesOK = false
	n.adjOK = false
	n.retireTrees(0, true)
	return l
}

// AddDuplex creates symmetric links in both directions and returns them.
func (n *Network) AddDuplex(a, b NodeID, bandwidth float64, delay sim.Time, queueLimit int) (ab, ba *Link) {
	return n.AddLink(a, b, bandwidth, delay, queueLimit),
		n.AddLink(b, a, bandwidth, delay, queueLimit)
}

// LinkBetween returns the link from a to b, or nil.
func (n *Network) LinkBetween(a, b NodeID) *Link {
	if i, ok := n.linkIdx[linkKey{a, b}]; ok {
		return n.linkList[i]
	}
	return nil
}

func (n *Network) groupFor(g GroupID) *group {
	gr := n.groups[g]
	if gr == nil {
		gr = &group{}
		n.groups[g] = gr
	}
	return gr
}

// Join adds a node to a multicast group.
func (n *Network) Join(g GroupID, id NodeID) {
	gr := n.groupFor(g)
	for int(id) >= len(gr.member) {
		gr.member = append(gr.member, false)
	}
	if !gr.member[id] {
		gr.member[id] = true
		gr.count++
	}
	n.retireTrees(g, false)
}

// Leave removes a node from a multicast group.
func (n *Network) Leave(g GroupID, id NodeID) {
	gr := n.groups[g]
	if gr != nil && int(id) < len(gr.member) && gr.member[id] {
		gr.member[id] = false
		gr.count--
	}
	n.retireTrees(g, false)
}

// Members returns the current member count of a group.
func (n *Network) Members(g GroupID) int {
	if gr := n.groups[g]; gr != nil {
		return gr.count
	}
	return 0
}

// IsMember reports whether id has joined g.
func (n *Network) IsMember(g GroupID, id NodeID) bool {
	gr := n.groups[g]
	return gr != nil && int(id) < len(gr.member) && gr.member[id]
}

// noteDelayChange invalidates everything that depends on link delays
// after a runtime Link.SetDelay: unicast routes and every compiled
// multicast tree (a delay change can reroute paths that never touched
// the mutated link, so per-tree filtering would be unsound). Both are
// rebuilt lazily — routes at the next Send, trees per (group, source)
// as traffic actually flows — and the topology version bump expires the
// tree pointers cached on in-flight packets.
func (n *Network) noteDelayChange() {
	n.routesOK = false
	n.retireTrees(0, true)
}

// retireTrees retires the compiled trees of group g, or every tree when
// all is set, to spareTrees, whose storage mcastTree compiles into next,
// and bumps topoVer. The bump is what makes the reuse safe: a retired
// tree stays reachable only through a packet's tree or through lastTree,
// each under a version that no longer matches, so nothing reads it
// again before it is recompiled.
func (n *Network) retireTrees(g GroupID, all bool) {
	kept := n.trees[:0]
	for _, t := range n.trees {
		if all || t.key.group == g {
			n.spareTrees = append(n.spareTrees, t)
		} else {
			kept = append(kept, t)
		}
	}
	clear(n.trees[len(kept):])
	n.trees = kept
	n.topoVer++
}

// NumPacketClasses bounds the recycling classes of AllocPacketClass.
// Current convention: 0 tfmcc data, 1-2 tcpsim segment/ack, 3-4 tfrc
// data/feedback, 5 tfmcc reports, 8 scenario CBR.
const NumPacketClasses = 16

// AllocPacket returns a packet from the network's default free list.
// The network reclaims it after the final delivery (or drop), so
// handlers must copy anything they need to keep; senders must not touch
// it after Send.
//
// A recycled packet keeps its last Payload: protocols that box a pooled
// header pointer (e.g. *tfmcc.Data) can reuse the box when the type
// matches and overwrite the Payload otherwise, making their steady-state
// send path allocation-free. The header box follows the packet's
// lifetime, so it is never still referenced when handed out again.
func (n *Network) AllocPacket() *Packet { return n.AllocPacketClass(0) }

// AllocPacketClass is AllocPacket with a separate recycling class: a
// packet returns to the free list of the class it was allocated from.
// Protocols whose data and acknowledgement streams interleave (TCP,
// TFRC) draw them from distinct classes so a recycled packet's pooled
// header box always matches the payload type about to be written — a
// single shared LIFO would alternate box types under bursts and
// reallocate on every mismatch. Class assignments are a repo-wide
// convention (see each protocol package); class 0 is the default.
func (n *Network) AllocPacketClass(class uint8) *Packet {
	n.pktLive++
	free := &n.freePkts[class]
	if k := len(*free); k > 0 {
		p := (*free)[k-1]
		*free = (*free)[:k-1]
		return p
	}
	return &Packet{pooled: true, class: class}
}

// ReleasePacket returns a packet obtained from AllocPacket without
// sending it — for callers that hand packets to handlers directly (tests,
// fault injection). A sent packet must NOT also be released; the network
// owns it from Send on.
func (n *Network) ReleasePacket(p *Packet) {
	p.refs = 1 // grant the forwarding token Send would have taken
	n.releasePkt(p)
}

// releasePkt drops one reference; the last reference of a pooled
// packet recycles it onto its class's free list. The Payload survives
// recycling (see AllocPacket); everything else is zeroed. On a sharded
// network every region allocates from and releases to the same lists, so
// a one-way cross-region flow recirculates its packets.
func (n *Network) releasePkt(p *Packet) {
	p.refs--
	if p.refs == 0 && p.pooled {
		n.pktLive--
		// Field-wise reset: Payload/pooled/class survive recycling,
		// everything a fresh allocation would zero is cleared in place —
		// cheaper than the whole-struct rewrite plus payload save/restore.
		p.Size = 0
		p.Src, p.Dst = Addr{}, Addr{}
		p.Group, p.IsMcast, p.SentAt = 0, false, 0
		p.tree, p.treeVer = nil, 0
		n.freePkts[p.class] = append(n.freePkts[p.class], p)
	}
}

// Send injects a packet at its source node. Unicast packets follow
// shortest-path (by propagation delay) routes; multicast packets follow
// the source-rooted shortest-path tree over current group members.
func (n *Network) Send(pkt *Packet) {
	pkt.SentAt = n.SchedFor(pkt.Src.Node).Now()
	pkt.refs = 1
	pkt.tree = nil // a reused packet must not forward along a stale tree
	if pkt.IsMcast {
		n.forwardMcast(pkt.Src.Node, pkt.Src.Node, pkt)
		return
	}
	n.forward(pkt.Src.Node, pkt)
}

func (n *Network) forward(at NodeID, pkt *Packet) {
	if at == pkt.Dst.Node {
		n.deliverLocal(at, pkt)
		n.releasePkt(pkt)
		return
	}
	li := n.routeRow(at)[pkt.Dst.Node]
	if li < 0 {
		// No route (partition, down links): a counted drop, not a panic —
		// fault scenarios legitimately strand traffic.
		n.faults.Unreachable++
		n.releasePkt(pkt)
		return
	}
	n.linkList[li].send(pkt)
}

func (n *Network) arrive(at NodeID, pkt *Packet) {
	if pkt.IsMcast {
		n.forwardMcast(at, pkt.Src.Node, pkt)
		return
	}
	n.forward(at, pkt)
}

func (n *Network) forwardMcast(at, src NodeID, pkt *Packet) {
	t := pkt.tree
	if t == nil || pkt.treeVer != n.topoVer {
		key := mcastKey{pkt.Group, src}
		if n.lastTree != nil && n.lastVer == n.topoVer && n.lastKey == key {
			t = n.lastTree
		} else {
			t = n.mcastTree(pkt.Group, src)
			n.lastKey, n.lastTree, n.lastVer = key, t, n.topoVer
		}
		pkt.tree, pkt.treeVer = t, n.topoVer
	}
	if at == src && t.unreach > 0 {
		// Members severed from the source: each send silently fails to
		// reach them — charge one unreachable drop per stranded member.
		n.faults.Unreachable += int64(t.unreach)
	}
	if int(at) < len(t.deliver) && t.deliver[at] {
		n.deliverLocal(at, pkt)
	}
	if int(at)+1 < len(t.start) {
		lo, hi := t.start[at], t.start[at+1]
		children := t.links[lo:hi]
		pkt.refs += int32(len(children))
		if slots := t.slots[at]; slots > 0 && !n.timerPerPacket {
			n.fanOut(at, pkt, children, t.rank[lo:hi], int(slots))
		} else {
			for _, li := range children {
				n.linkList[li].send(pkt)
			}
		}
	}
	n.releasePkt(pkt)
}

func (n *Network) deliverLocal(at NodeID, pkt *Packet) {
	nd := &n.nodes[at]
	if nd.h != nil && nd.hport == pkt.Dst.Port {
		nd.h.Recv(pkt)
		return
	}
	hs := nd.handlers
	if int(pkt.Dst.Port) < len(hs) {
		if h := hs[pkt.Dst.Port]; h != nil {
			h.Recv(pkt)
		}
	}
}

// ensureAdj builds the CSR adjacency index with each node's outgoing
// links sorted by destination. It replaces the per-relaxation map
// iteration + sort the old Dijkstra paid on every visit. It runs from
// dropRoutes, once the Dijkstra scratch is sized for the node count.
func (n *Network) ensureAdj() {
	if n.adjOK {
		return
	}
	cnt := len(n.nodes)
	if cap(n.adjStart) < cnt+1 {
		n.adjStart = make([]int32, cnt+1)
	} else {
		n.adjStart = n.adjStart[:cnt+1]
		clear(n.adjStart)
	}
	for _, l := range n.linkList {
		n.adjStart[l.From+1]++
	}
	for i := 0; i < cnt; i++ {
		n.adjStart[i+1] += n.adjStart[i]
	}
	if cap(n.adjLinks) < len(n.linkList) {
		n.adjLinks = make([]int32, len(n.linkList))
	} else {
		n.adjLinks = n.adjLinks[:len(n.linkList)]
	}
	fill := n.via[:cnt] // Dijkstra scratch, free until a row is computed
	clear(fill)
	for i, l := range n.linkList {
		pos := n.adjStart[l.From] + fill[l.From]
		n.adjLinks[pos] = int32(i)
		fill[l.From]++
	}
	// Insertion sort each node's bucket by destination (buckets are tiny).
	for u := 0; u < cnt; u++ {
		b := n.adjLinks[n.adjStart[u]:n.adjStart[u+1]]
		for i := 1; i < len(b); i++ {
			for j := i; j > 0 && n.linkList[b[j]].To < n.linkList[b[j-1]].To; j-- {
				b[j], b[j-1] = b[j-1], b[j]
			}
		}
	}
	n.adjOK = true
}

// routeRow returns src's row of first-hop link indices, computed the
// first time the row is asked for since the topology last changed. Only
// nodes that actually forward pay for a row: in a thousand-receiver star
// that is the sender, the routers and the receivers that report. A node
// with a single outgoing link derives its row from the far end's (see
// soleExit); every other row is a heap-based Dijkstra from src (edge
// weight = propagation delay, with a small constant so zero-delay links
// still count hops).
func (n *Network) routeRow(src NodeID) []int32 {
	if !n.routesOK {
		n.dropRoutes()
	}
	row := n.routeRows[src]
	if row != nil {
		return row
	}
	row = n.carveRow()
	if li, ok := n.soleExit(src); !ok {
		n.dijkstra(src, row)
	} else if l := n.linkList[li]; l.down {
		for i := range row {
			row[i] = -1
		}
	} else {
		// Every path out of src starts on l, so src reaches l.To and what
		// l.To reaches, all through l; src itself stays -1.
		far := n.routeRow(l.To)
		for i, hop := range far {
			row[i] = -1
			if hop >= 0 || NodeID(i) == l.To {
				row[i] = li
			}
		}
		row[src] = -1
	}
	n.routeRows[src] = row
	return row
}

// soleExit returns src's only outgoing link when src's row can be derived
// from the far end's: src has exactly one, and following single exits
// from the far end reaches a node that needs no derivation of its own (a
// computed row, a down link, or more or fewer than one exit) without
// coming back to src or going round a cycle. A pair of nodes that are
// each other's only exit would otherwise derive each other forever.
func (n *Network) soleExit(src NodeID) (int32, bool) {
	exit := func(u NodeID) (int32, bool) {
		lo, hi := n.adjStart[u], n.adjStart[u+1]
		if hi-lo != 1 {
			return -1, false
		}
		return n.adjLinks[lo], true
	}
	li, ok := exit(src)
	if !ok {
		return -1, false
	}
	if n.linkList[li].down {
		return li, true
	}
	u := n.linkList[li].To
	for steps := 0; ; steps++ {
		if u == src || steps > len(n.nodes) {
			return -1, false
		}
		next, ok := exit(u)
		if n.routeRows[u] != nil || !ok || n.linkList[next].down {
			return li, true
		}
		u = n.linkList[next].To
	}
}

// dropRoutes discards every row after a topology change and sizes the
// row index and the Dijkstra scratch for the current node count. The
// slabs stay: rows are re-carved from their start.
func (n *Network) dropRoutes() {
	cnt := len(n.nodes)
	if cap(n.routeRows) < cnt {
		n.routeRows = make([][]int32, cnt)
	} else {
		n.routeRows = n.routeRows[:cnt]
		clear(n.routeRows)
	}
	n.slabIdx, n.slabOff = 0, 0
	if cap(n.dist) < cnt {
		n.dist = make([]int64, cnt)
		n.prev = make([]NodeID, cnt)
		n.via = make([]int32, cnt)
		n.done = make([]bool, cnt)
	} else {
		n.dist = n.dist[:cnt]
		n.prev = n.prev[:cnt]
		n.via = n.via[:cnt]
		n.done = n.done[:cnt]
	}
	n.ensureAdj()
	n.routesOK = true
}

// routeSlabRows is how many rows one slab allocation holds.
const routeSlabRows = 16

// carveRow returns an unused row of len(nodes) entries from the slabs,
// adding a slab when the current ones are used up (or too small for a
// network that has grown since they were made).
func (n *Network) carveRow() []int32 {
	cnt := len(n.nodes)
	for {
		if n.slabIdx == len(n.routeSlabs) {
			n.routeSlabs = append(n.routeSlabs, make([]int32, cnt*routeSlabRows))
		}
		if slab := n.routeSlabs[n.slabIdx]; len(slab)-n.slabOff >= cnt {
			row := slab[n.slabOff : n.slabOff+cnt : n.slabOff+cnt]
			n.slabOff += cnt
			return row
		}
		n.slabIdx++
		n.slabOff = 0
	}
}

// distEntry is a lazy-deletion Dijkstra heap entry ordered by (d, node);
// the node tie-break reproduces the lowest-index extraction order of the
// previous linear-scan implementation, keeping routes bit-identical.
type distEntry struct {
	d    int64
	node NodeID
}

func distLess(a, b distEntry) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	return a.node < b.node
}

// dijkstra fills next[dst] with the linkList index of the first hop from
// src towards dst (-1 when unreachable).
func (n *Network) dijkstra(src NodeID, next []int32) {
	cnt := len(n.nodes)
	const inf = int64(1) << 62
	dist, prev, via, done := n.dist, n.prev, n.via, n.done
	for i := 0; i < cnt; i++ {
		dist[i] = inf
		prev[i] = -1
		done[i] = false
		next[i] = -1
	}
	dist[src] = 0
	h := n.dh[:0]
	h = append(h, distEntry{0, src})
	for len(h) > 0 {
		e := h[0]
		// Pop-min (binary sift-down over a value slice).
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		if last > 1 {
			i := 0
			x := h[0]
			for {
				c := 2*i + 1
				if c >= last {
					break
				}
				if c+1 < last && distLess(h[c+1], h[c]) {
					c++
				}
				if !distLess(h[c], x) {
					break
				}
				h[i] = h[c]
				i = c
			}
			h[i] = x
		}
		u := e.node
		if done[u] || e.d != dist[u] {
			continue
		}
		done[u] = true
		// u's shortest path is final, and so is its parent's (settled
		// earlier): the first hop towards u is the link out of src itself,
		// or whatever reaches the parent.
		if p := prev[u]; p == src {
			next[u] = via[u]
		} else if p >= 0 {
			next[u] = next[p]
		}
		for _, li := range n.adjLinks[n.adjStart[u]:n.adjStart[u+1]] {
			l := n.linkList[li]
			if l.down {
				continue // down links carry no traffic and no routes
			}
			v := l.To
			// +1 keeps zero-delay hops countable. A delay of inf or more
			// makes the far end unreachable over this link: clamped, the
			// weight is at most inf and dist[u] below it, so the sum cannot
			// wrap negative and attract every route.
			w := min(int64(l.Delay), inf-1) + 1
			if nd := dist[u] + w; nd < dist[v] {
				dist[v] = nd
				prev[v] = u
				via[v] = li
				// Push (sift-up).
				h = append(h, distEntry{nd, v})
				i := len(h) - 1
				x := h[i]
				for i > 0 {
					p := (i - 1) / 2
					if !distLess(x, h[p]) {
						break
					}
					h[i] = h[p]
					i = p
				}
				h[i] = x
			}
		}
	}
	n.dh = h[:0]
}

// mcastTree returns (compiling if needed) the flattened shortest-path tree
// rooted at src spanning the group's members. A compilation reuses a
// retired tree's storage and the network's scratch, so recompiling after
// a topology or membership change allocates nothing once the storage has
// grown to the network's size.
func (n *Network) mcastTree(g GroupID, src NodeID) *mcastTree {
	key := mcastKey{group: g, src: src}
	for _, t := range n.trees {
		if t.key == key {
			return t
		}
	}
	var t *mcastTree
	if k := len(n.spareTrees); k > 0 {
		t = n.spareTrees[k-1]
		n.spareTrees = n.spareTrees[:k-1]
	} else {
		t = &mcastTree{}
	}
	cnt := len(n.nodes)
	t.key = key
	t.deliver = resized(t.deliver, cnt)
	n.treeMark = resized(n.treeMark, len(n.linkList))
	found := n.treeLinks[:0] // tree links in discovery order
	unreach := 0
	if gr := n.groups[g]; gr != nil {
		walk := n.treeWalk[:0] // edges of the member currently being walked
		for mi, in := range gr.member {
			m := NodeID(mi)
			if !in || m == src {
				continue
			}
			// Walk the unicast path src -> m. Edges are collected first and
			// committed only when the whole path exists: a member stranded by
			// a partition contributes no dangling branch, just an unreachable
			// count (drops are charged per packet at forwarding time).
			walk = walk[:0]
			at := src
			for at != m {
				li := n.routeRow(at)[m]
				if li < 0 {
					walk = walk[:0]
					unreach++
					break
				}
				walk = append(walk, li)
				at = n.linkList[li].To
			}
			if at != m {
				continue
			}
			t.deliver[m] = true
			for _, li := range walk {
				if !n.treeMark[li] {
					n.treeMark[li] = true
					found = append(found, li)
				}
			}
		}
		n.treeWalk = walk
	}
	for _, li := range found {
		n.treeMark[li] = false
	}
	n.treeLinks = found
	t.unreach = int32(unreach)
	// CSR by parent node, each node's children in discovery order.
	nLinks := len(found)
	t.start = resized(t.start, cnt+1)
	for _, li := range found {
		t.start[n.linkList[li].From+1]++
	}
	for u := 0; u < cnt; u++ {
		t.start[u+1] += t.start[u]
	}
	t.links = resized(t.links, nLinks)
	t.slots = resized(t.slots, cnt)
	fill := t.slots // per-node fill count; trainRanks overwrites it below
	for _, li := range found {
		u := n.linkList[li].From
		t.links[t.start[u]+fill[u]] = li
		fill[u]++
	}
	t.rank = resized(t.rank, nLinks)[:0]
	n.treeWalk = resized(n.treeWalk, nLinks) // trainRanks' scratch
	for u := 0; u < cnt; u++ {
		t.rank, t.slots[u] = n.trainRanks(t.rank, t.links[t.start[u]:t.start[u+1]], n.treeWalk)
	}
	n.trees = append(n.trees, t)
	return t
}

// resized returns s with n zeroed elements, reusing its storage when it
// has room.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// trainRanks appends one node's fan-out train layout to rank (see
// mcastTree.rank) and returns the node's train length. A node with fewer
// than two infinite-bandwidth children sends no trains — a lone copy
// already rides its link's timer at no extra cost — so all its ranks are
// -1. scratch must hold len(kids) entries.
func (n *Network) trainRanks(rank, kids, scratch []int32) ([]int32, int32) {
	base := len(rank)
	order := scratch[:0]
	for i, li := range kids {
		rank = append(rank, -1)
		if n.linkList[li].Bandwidth <= 0 {
			order = append(order, int32(i))
		}
	}
	if len(order) < 2 {
		return rank, 0
	}
	// Stable: equal delays keep tree order, which is seq order.
	slices.SortStableFunc(order, func(a, b int32) int {
		return cmp.Compare(n.linkList[kids[a]].Delay, n.linkList[kids[b]].Delay)
	})
	for r, i := range order {
		rank[base+int(i)] = int32(r)
	}
	return rank, int32(len(order))
}

// Links returns the network's links in creation order. Intended for
// tooling (benchmark counters, tracing); the slice must not be modified.
func (n *Network) Links() []*Link { return n.linkList }
