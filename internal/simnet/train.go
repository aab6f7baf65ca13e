package simnet

import "repro/internal/sim"

// Fan-out trains.
//
// A node that fans one multicast packet out over many fixed-delay links
// (Link.fixedDelay) produces copies that differ only in link and arrival
// time. Giving each its own link timer costs a heap push and pop per copy;
// instead the node runs every such child's entry modules in tree order —
// Link.admit, the same Stats, RNG draws and drop accounting as Link.send,
// and one reserved scheduler seq per surviving copy — and parks the
// survivors in one train sorted by (arrival time, seq). The sort is free:
// seqs are reserved in tree order and a copy arrives Delay after now, so
// the order is the children's order by (Delay, tree position), which the
// compiled tree already holds (mcastTree.rank; any delay, membership or
// availability change recompiles the tree). Children that are not
// fixed-delay at that instant go through Link.send at their place in the
// loop.
//
// A node keeps its in-flight trains in a min-heap on their head copies and
// ONE scheduler timer, armed under the key (arrival, seq) of the earliest
// undelivered copy over all of them. When it fires, that copy is delivered
// and the node keeps delivering the next-earliest copy inline for as long
// as the scheduler says it precedes everything queued and lies inside the
// run window (CanInline), counting each as an event (NoteInlineEvent);
// otherwise it re-arms under that copy's key. Every copy is thus
// dispatched at exactly the (time, seq) position its own timer would have
// had: global order, event counts and RunUntil/engine-window behaviour
// are unchanged, and a large fan-out costs about one scheduler heap
// operation per packet instead of two per copy. Trains are the only
// events the scheduler does not hold in its heap; every other packet
// event, link arrivals included, is one heap entry.

// trainEntry is one copy in flight on a train.
type trainEntry struct {
	at  sim.Time
	seq uint64 // reserved scheduler seq; 0 marks a slot whose copy never boarded
	l   *Link
}

// train is the surviving fixed-delay copies of one fanned-out packet,
// sorted by (at, seq). Slots are the tree's ranks, so a child that lost
// its copy (or took Link.send) leaves a hole.
type train struct {
	pkt  *Packet
	ents []trainEntry
	head int // first undelivered copy; never rests on a hole
}

func (t *train) first() *trainEntry { return &t.ents[t.head] }

// fanout is a node's train state, created the first time it sends one.
type fanout struct {
	net    *Network
	sched  *sim.Scheduler // the node's scheduler (its shard's when sharded)
	trains []train        // in flight: a binary min-heap on the head copy's (at, seq)
	spare  [][]trainEntry // entry buffers of finished trains
	held   int64          // undelivered copies over all trains

	timer    sim.Timer
	armed    bool // timer outstanding, standing for the copy arriving at armAt
	armAt    sim.Time
	draining bool // fire is on the stack: it re-arms, fanOut must not
	fireFn   func(any)
}

// fanOut sends pkt over the tree children of node at (one reference per
// child already granted), boarding the fixed-delay ones on a train. rank
// is aligned with children and maps each to its train slot, -1 for a
// child the tree keeps off trains; slots is the train length.
func (n *Network) fanOut(at NodeID, pkt *Packet, children, rank []int32, slots int) {
	f := n.nodes[at].fan
	if f == nil {
		f = &fanout{}
		f.fireFn = f.fire
		n.nodes[at].fan = f
	}
	s := n.schedForNode(at)
	f.net, f.sched = n, s
	ents := f.entryBuf(slots)
	now := s.Now()
	boarded := 0
	for i, li := range children {
		l := n.linkList[li]
		r := rank[i]
		if r < 0 {
			l.send(pkt)
			continue
		}
		e := &ents[r]
		e.seq = 0
		if !l.fixedDelay() {
			l.send(pkt)
		} else if l.admit(pkt) {
			e.at, e.seq, e.l = now+l.Delay, s.ReserveSeq(), l
			boarded++
		}
	}
	if boarded == 0 {
		f.spare = append(f.spare, ents)
		return
	}
	tr := train{pkt: pkt, ents: ents}
	for ents[tr.head].seq == 0 {
		tr.head++
	}
	h := tr.first() // into ents: stays put while the heap moves the train
	f.trains = append(f.trains, tr)
	f.up(len(f.trains) - 1)
	f.held += int64(boarded)
	if f.draining {
		return
	}
	// Later seqs never precede an equal arrival time, so only a strictly
	// earlier head displaces the outstanding timer.
	if f.armed {
		if h.at >= f.armAt {
			return
		}
		f.timer.Stop()
	}
	f.arm(h)
}

func (f *fanout) arm(h *trainEntry) {
	f.armed, f.armAt = true, h.at
	f.timer = f.sched.AtSeqArg(h.at, h.seq, f.fireFn, nil)
}

// entryBuf returns a train buffer of the given length, recycled when a
// finished train left one big enough. Every slot is written by fanOut.
func (f *fanout) entryBuf(slots int) []trainEntry {
	if k := len(f.spare); k > 0 {
		b := f.spare[k-1]
		f.spare[k-1] = nil
		f.spare = f.spare[:k-1]
		if cap(b) >= slots {
			return b[:slots]
		}
	}
	return make([]trainEntry, slots)
}

// fire is the node timer's callback: the timer stood for the earliest
// copy, so that one is delivered as the timer's own event; the rest drain
// inline while the scheduler allows.
func (f *fanout) fire(any) {
	f.draining = true
	f.deliver()
	s := f.sched
	for len(f.trains) > 0 {
		h := f.trains[0].first()
		if !s.CanInline(h.at, h.seq) {
			f.draining = false
			f.arm(h)
			return
		}
		s.NoteInlineEvent(h.at)
		f.deliver()
	}
	f.draining, f.armed = false, false
}

// deliver hands the earliest copy — the head of the heap's root train — to
// its link's far node. All train state is settled before the call:
// delivery runs handlers, which may send a packet that fans out at this
// very node.
func (f *fanout) deliver() {
	tr := &f.trains[0]
	l, pkt := tr.ents[tr.head].l, tr.pkt
	tr.head++
	for tr.head < len(tr.ents) && tr.ents[tr.head].seq == 0 {
		tr.head++
	}
	if tr.head == len(tr.ents) {
		f.spare = append(f.spare, tr.ents)
		last := len(f.trains) - 1
		f.trains[0] = f.trains[last]
		f.trains[last] = train{}
		f.trains = f.trains[:last]
	}
	f.down(0)
	f.held--
	l.deliver(f.net, pkt)
}

// The train heap. A node behind a slow link holds a handful of trains, one
// behind a fast link holds the delay spread of its children over the packet
// spacing — hundreds — so the earliest copy is kept at the root rather
// than searched for.

func (f *fanout) before(i, j int) bool {
	a, b := f.trains[i].first(), f.trains[j].first()
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (f *fanout) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !f.before(i, p) {
			return
		}
		f.trains[i], f.trains[p] = f.trains[p], f.trains[i]
		i = p
	}
}

func (f *fanout) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(f.trains) {
			return
		}
		if c+1 < len(f.trains) && f.before(c+1, c) {
			c++
		}
		if !f.before(c, i) {
			return
		}
		f.trains[i], f.trains[c] = f.trains[c], f.trains[i]
		i = c
	}
}

// clear drops every in-flight train (their packet references with them)
// and disarms the node.
func (f *fanout) clear() {
	for i := range f.trains {
		f.spare = append(f.spare, f.trains[i].ents)
		f.trains[i] = train{}
	}
	f.trains = f.trains[:0]
	f.held = 0
	f.timer.Stop()
	f.timer = sim.Timer{}
	f.armed, f.draining = false, false
}
