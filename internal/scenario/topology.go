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
	switch t.Kind {
	case Dumbbell:
		left := net.AddNode("left")
		right := net.AddNode("right")
		fwd, rev := net.AddDuplex(left, right, t.Core.BW, t.Core.Delay, t.Core.Queue)
		fwd.LossProb, rev.LossProb = t.Core.Loss, t.Core.Loss
		// Region hints for the parallel engine: the bottleneck is the
		// natural cut, so each half of the dumbbell is its own region.
		net.SetRegionHint(left, 0)
		net.SetRegionHint(right, 1)
		return &Topo{
			Nodes:        []simnet.NodeID{left, right},
			Links:        []*simnet.Link{fwd, rev},
			Attach:       []simnet.NodeID{right},
			SenderAttach: left,
		}, nil
	case Star:
		hub := net.AddNode("hub")
		return &Topo{
			Nodes:        []simnet.NodeID{hub},
			Attach:       []simnet.NodeID{hub},
			SenderAttach: hub,
		}, nil
	case Tree:
		fanout := t.Fanout
		if fanout < 2 {
			fanout = 2
		}
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
		topo := &Topo{Nodes: []simnet.NodeID{root}, SenderAttach: root}
		level := []simnet.NodeID{root}
		for d := 0; d < t.Depth; d++ {
			var next []simnet.NodeID
			for _, parent := range level {
				for k := 0; k < fanout; k++ {
					child := net.AddNode(fmt.Sprintf("tree-%d-%d", d+1, len(next)))
					down, up := net.AddDuplex(parent, child, t.Core.BW, t.Core.Delay, t.Core.Queue)
					down.LossProb, up.LossProb = t.Core.Loss, t.Core.Loss
					topo.Nodes = append(topo.Nodes, child)
					topo.Links = append(topo.Links, down, up)
					next = append(next, child)
				}
			}
			level = next
		}
		topo.Attach = level
		return topo, nil
	case Chain:
		hops := t.Hops
		if hops < 1 {
			hops = 1
		}
		if hops > maxCoreNodes {
			return nil, fmt.Errorf("chain topology too large: topology.hops %d exceeds %d nodes", hops, maxCoreNodes)
		}
		topo := &Topo{}
		prev := net.AddNode("chain-0")
		topo.Nodes = append(topo.Nodes, prev)
		for i := 1; i <= hops; i++ {
			n := net.AddNode(fmt.Sprintf("chain-%d", i))
			down, up := net.AddDuplex(prev, n, t.Core.BW, t.Core.Delay, t.Core.Queue)
			down.LossProb, up.LossProb = t.Core.Loss, t.Core.Loss
			topo.Nodes = append(topo.Nodes, n)
			topo.Links = append(topo.Links, down, up)
			prev = n
		}
		topo.SenderAttach = topo.Nodes[0]
		topo.Attach = []simnet.NodeID{prev}
		return topo, nil
	case TransitStub:
		transit := t.Transit
		if transit < 1 {
			transit = 1
		}
		stubs := t.Stubs
		if stubs < 1 {
			stubs = 1
		}
		// transit*(stubs+1) nodes, compared by division so it cannot wrap.
		if transit > maxCoreNodes || stubs >= maxCoreNodes/transit {
			return nil, fmt.Errorf("transit-stub topology too large: topology.transit %d x (topology.stubs %d + 1) exceeds %d nodes",
				transit, stubs, maxCoreNodes)
		}
		topo := &Topo{}
		var core []simnet.NodeID
		for i := 0; i < transit; i++ {
			n := net.AddNode(fmt.Sprintf("transit-%d", i))
			// Region hints for the parallel engine: the transit backbone is
			// one region, and each stub domain below a transit router is its
			// own — the classic transit-stub cut.
			net.SetRegionHint(n, 0)
			topo.Nodes = append(topo.Nodes, n)
			if i > 0 {
				down, up := net.AddDuplex(core[i-1], n, t.Core.BW, t.Core.Delay, t.Core.Queue)
				down.LossProb, up.LossProb = t.Core.Loss, t.Core.Loss
				topo.Links = append(topo.Links, down, up)
			}
			core = append(core, n)
		}
		for i, tn := range core {
			for s := 0; s < stubs; s++ {
				sn := net.AddNode(fmt.Sprintf("stub-%d-%d", i, s))
				net.SetRegionHint(sn, 1+i*stubs+s)
				down, up := net.AddDuplex(tn, sn, t.StubLink.BW, t.StubLink.Delay, t.StubLink.Queue)
				down.LossProb, up.LossProb = t.StubLink.Loss, t.StubLink.Loss
				topo.Nodes = append(topo.Nodes, sn)
				topo.Links = append(topo.Links, down, up)
				topo.Attach = append(topo.Attach, sn)
			}
		}
		topo.SenderAttach = core[0]
		return topo, nil
	}
	return nil, fmt.Errorf("unknown topology kind %d", t.Kind)
}
