// Package fbtree implements the feedback aggregation tree sketched in the
// paper (sections 2.5 and 6.1): receivers are organised into a tree whose
// interior nodes aggregate reports, forwarding only the minimum rate
// towards the root. The paper notes that "if such a tree exists it should
// clearly be used" instead of pure end-to-end suppression; its future
// work proposes a hybrid TFMCC variant with suppression inside the
// aggregation nodes. This package provides the aggregation logic and an
// analytic/simulation comparison point against flat timer suppression.
//
// No command or registered experiment runs it; it is reachable through
// the cross-commit benchmark only, whose fbtree.probe.round_us_n10000
// probe (bench/probes.go) times SimulateRound.
package fbtree

import (
	"math"

	"repro/internal/sim"
)

// Report is the value aggregated up the tree: the minimum calculated rate
// in the subtree and which receiver it came from.
type Report struct {
	Receiver int
	Rate     float64
}

// Node is one vertex of the aggregation tree. Leaves are receivers;
// interior nodes aggregate children reports for HoldTime before
// forwarding one combined report upward.
type Node struct {
	ID       int
	Parent   *Node
	Children []*Node

	// HoldTime is the aggregation delay at this node: reports received
	// within the window are merged into one.
	HoldTime sim.Time

	sch     *sim.Scheduler
	pending *Report
	timer   sim.Timer

	// Deliver is called at the root for each aggregated report.
	Deliver func(Report)

	// Stats.
	ReportsIn  int64
	ReportsOut int64
}

// NewTree builds a balanced tree with the given fanout over n leaf
// receivers and returns (root, leaves). Interior nodes use holdTime.
func NewTree(sch *sim.Scheduler, n, fanout int, holdTime sim.Time) (*Node, []*Node) {
	if fanout < 2 {
		fanout = 2
	}
	id := 0
	leaves := make([]*Node, n)
	for i := range leaves {
		leaves[i] = &Node{ID: id, sch: sch}
		id++
	}
	level := leaves
	for len(level) > 1 {
		var next []*Node
		for i := 0; i < len(level); i += fanout {
			end := i + fanout
			if end > len(level) {
				end = len(level)
			}
			parent := &Node{ID: id, sch: sch, HoldTime: holdTime}
			id++
			for _, c := range level[i:end] {
				c.Parent = parent
				parent.Children = append(parent.Children, c)
			}
			next = append(next, parent)
		}
		level = next
	}
	return level[0], leaves
}

// Depth returns the number of aggregation hops from this node to the root.
func (nd *Node) Depth() int {
	d := 0
	for p := nd.Parent; p != nil; p = p.Parent {
		d++
	}
	return d
}

// Submit injects a report at this node (a leaf's own measurement or an
// aggregate from a child). The minimum-rate report within the hold window
// survives; lower rates that arrive later restart nothing — they ride the
// already-armed timer, so a report is delayed at most HoldTime per level.
func (nd *Node) Submit(r Report) {
	nd.ReportsIn++
	if nd.Parent == nil && nd.Children == nil {
		// Degenerate single-node tree.
		nd.emit(r)
		return
	}
	if nd.Children == nil {
		// Leaf: forward straight to the parent.
		nd.Parent.Submit(r)
		return
	}
	if nd.pending == nil || r.Rate < nd.pending.Rate {
		cp := r
		nd.pending = &cp
	}
	if !nd.timer.Active() {
		nd.timer = nd.sch.After(nd.HoldTime, nd.flush)
	}
}

func (nd *Node) flush() {
	if nd.pending == nil {
		return
	}
	r := *nd.pending
	nd.pending = nil
	nd.emit(r)
}

func (nd *Node) emit(r Report) {
	nd.ReportsOut++
	if nd.Parent != nil {
		nd.Parent.Submit(r)
		return
	}
	if nd.Deliver != nil {
		nd.Deliver(r)
	}
}

// CountNodes returns the total number of nodes in the subtree.
func (nd *Node) CountNodes() int {
	n := 1
	for _, c := range nd.Children {
		n += c.CountNodes()
	}
	return n
}

// SimOutcome summarises a tree-aggregation round for comparison against
// flat timer suppression (feedback.SimulateRound).
type SimOutcome struct {
	RootReports int      // reports that reached the root
	BestRate    float64  // lowest rate delivered
	BestAt      sim.Time // when it arrived
	TrueMin     float64
	TotalMsgs   int64 // messages on all tree edges (network load)
}

// SimulateRound plays one feedback round over a fresh tree: every
// receiver submits its rate at t=0 (worst case: all congested). Returns
// how many aggregated reports reach the root, the quality of the best
// one, and the total message load.
func SimulateRound(sch *sim.Scheduler, values []float64, fanout int, holdTime sim.Time) SimOutcome {
	root, leaves := NewTree(sch, len(values), fanout, holdTime)
	out := SimOutcome{TrueMin: math.Inf(1), BestRate: math.Inf(1)}
	root.Deliver = func(r Report) {
		out.RootReports++
		if r.Rate < out.BestRate {
			out.BestRate = r.Rate
			out.BestAt = sch.Now()
		}
	}
	for i, v := range values {
		if v < out.TrueMin {
			out.TrueMin = v
		}
		i, v := i, v
		sch.At(sch.Now(), func() { leaves[i].Submit(Report{Receiver: i, Rate: v}) })
	}
	sch.Run()
	var count func(nd *Node)
	count = func(nd *Node) {
		out.TotalMsgs += nd.ReportsOut
		for _, c := range nd.Children {
			count(c)
		}
	}
	count(root)
	return out
}
