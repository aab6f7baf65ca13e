package scenario

import (
	"fmt"

	"repro/internal/simnet"
)

// Topo is a generated topology instance: the core nodes and links in
// creation order plus the canonical attachment roles steps refer to.
type Topo struct {
	Nodes []simnet.NodeID // core nodes in creation order
	Links []*simnet.Link  // core link pairs, down direction at 2i, up at 2i+1

	// Attach are the canonical receiver attachment routers (see RefAttach).
	Attach []simnet.NodeID
	// SenderAttach is where the TFMCC source's access duplex hangs.
	SenderAttach simnet.NodeID
}

// maxCoreNodes bounds generated topologies so a malformed (or fuzzed)
// spec fails fast instead of exhausting memory.
const maxCoreNodes = 1 << 16

// buildTopology generates the core for a spec. Node and link creation
// order is part of the scenario contract: it pins NodeIDs, link indices
// and route tie-breaking. Malformed topologies (unknown kind, explosive
// size) are structured errors.
func buildTopology(net *simnet.Network, t Topology) (*Topo, error) {
	topo := &Topo{}
	// duplex joins a to b with a link pair of p, the next pair of Links.
	duplex := func(a, b simnet.NodeID, p LinkP) {
		down, up := net.AddDuplex(a, b, p.BW, p.Delay, p.Queue)
		down.LossProb, up.LossProb = p.Loss, p.Loss
		topo.Links = append(topo.Links, down, up)
	}
	core := func(a, b simnet.NodeID) { duplex(a, b, t.Core) }
	switch t.Kind {
	case Dumbbell:
		left := net.AddNode("left")
		right := net.AddNode("right")
		core(left, right)
		// Region hints for the parallel engine: the bottleneck is the
		// natural cut, so each half of the dumbbell is its own region.
		net.SetRegionHint(left, 0)
		net.SetRegionHint(right, 1)
		topo.Nodes = []simnet.NodeID{left, right}
		topo.Attach = []simnet.NodeID{right}
		topo.SenderAttach = left
		return topo, nil
	case Star:
		hub := net.AddNode("hub")
		topo.Nodes = []simnet.NodeID{hub}
		topo.Attach = []simnet.NodeID{hub}
		topo.SenderAttach = hub
		return topo, nil
	case Tree:
		fanout := max(t.Fanout, 2)
		// Level by level, the next level must fit what is left of the
		// budget; comparing by division keeps every product in range.
		total, width := 1, 1
		for d := 0; d < t.Depth; d++ {
			if width > (maxCoreNodes-total)/fanout {
				return nil, fmt.Errorf("tree topology too large: topology.fanout %d and topology.depth %d exceed %d nodes",
					fanout, t.Depth, maxCoreNodes)
			}
			width *= fanout
			total += width
		}
		root := net.AddNode("tree-root")
		topo.Nodes, topo.SenderAttach = []simnet.NodeID{root}, root
		level := []simnet.NodeID{root}
		for d := 0; d < t.Depth; d++ {
			var next []simnet.NodeID
			for _, parent := range level {
				for k := 0; k < fanout; k++ {
					child := net.AddNode(fmt.Sprintf("tree-%d-%d", d+1, len(next)))
					core(parent, child)
					topo.Nodes = append(topo.Nodes, child)
					next = append(next, child)
				}
			}
			level = next
		}
		topo.Attach = level
		return topo, nil
	case Chain:
		hops := max(t.Hops, 1)
		if hops > maxCoreNodes {
			return nil, fmt.Errorf("chain topology too large: topology.hops %d exceeds %d nodes", hops, maxCoreNodes)
		}
		prev := net.AddNode("chain-0")
		topo.Nodes = append(topo.Nodes, prev)
		for i := 1; i <= hops; i++ {
			n := net.AddNode(fmt.Sprintf("chain-%d", i))
			core(prev, n)
			topo.Nodes = append(topo.Nodes, n)
			prev = n
		}
		topo.SenderAttach = topo.Nodes[0]
		topo.Attach = []simnet.NodeID{prev}
		return topo, nil
	case TransitStub:
		transit, stubs := max(t.Transit, 1), max(t.Stubs, 1)
		// transit*(stubs+1) nodes, compared by division so it cannot wrap.
		if transit > maxCoreNodes || stubs >= maxCoreNodes/transit {
			return nil, fmt.Errorf("transit-stub topology too large: topology.transit %d x (topology.stubs %d + 1) exceeds %d nodes",
				transit, stubs, maxCoreNodes)
		}
		for i := 0; i < transit; i++ {
			n := net.AddNode(fmt.Sprintf("transit-%d", i))
			// Region hints for the parallel engine: the transit backbone is
			// one region, and each stub domain below a transit router is its
			// own — the classic transit-stub cut.
			net.SetRegionHint(n, 0)
			if i > 0 {
				core(topo.Nodes[i-1], n)
			}
			topo.Nodes = append(topo.Nodes, n)
		}
		for i, tn := range topo.Nodes[:transit] {
			for s := 0; s < stubs; s++ {
				sn := net.AddNode(fmt.Sprintf("stub-%d-%d", i, s))
				net.SetRegionHint(sn, 1+i*stubs+s)
				duplex(tn, sn, t.StubLink)
				topo.Nodes = append(topo.Nodes, sn)
				topo.Attach = append(topo.Attach, sn)
			}
		}
		topo.SenderAttach = topo.Nodes[0]
		return topo, nil
	}
	return nil, fmt.Errorf("unknown topology kind %d", t.Kind)
}
