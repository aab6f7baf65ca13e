package simnet

import (
	"testing"

	"repro/internal/sim"
)

// countHandler counts the packets delivered to it.
type countHandler struct{ n int }

func (c *countHandler) Recv(*Packet) { c.n++ }

// deliverTo hands node at one packet for port, as an arriving packet is.
func deliverTo(net *Network, at NodeID, port Port) {
	net.deliverLocal(at, &Packet{Dst: Addr{Node: at, Port: port}})
}

// TestSingleBindingNodeHasNoPortTable: a node bound on one port answers
// from h/hport alone. It allocates no port table, which is what a
// thousand receiver nodes each save.
func TestSingleBindingNodeHasNoPortTable(t *testing.T) {
	net := New(sim.NewScheduler(), sim.NewRand(1))
	nd := net.AddNode("r")
	c := &countHandler{}
	net.Bind(Addr{nd, 100}, c)
	if hs := net.nodes[nd].handlers; len(hs) != 0 || cap(hs) != 0 {
		t.Fatalf("one binding built a port table of len %d, cap %d", len(hs), cap(hs))
	}
	deliverTo(net, nd, 100)
	deliverTo(net, nd, 99)
	if c.n != 1 {
		t.Fatalf("delivered %d packets to port 100, want 1", c.n)
	}
	net.Bind(Addr{nd, 7}, nil) // unbinding a port that holds nothing
	if hs := net.nodes[nd].handlers; len(hs) != 0 {
		t.Fatalf("unbinding an empty port built a port table of len %d", len(hs))
	}
	deliverTo(net, nd, 100)
	if c.n != 2 {
		t.Fatalf("port 100 lost its handler to an unbind of port 7")
	}
}

// TestMultiPortBindings: a second port builds the table holding both;
// rebinding either port, and unbinding each, takes effect; a rewound
// node starts again without a table.
func TestMultiPortBindings(t *testing.T) {
	net := New(sim.NewScheduler(), sim.NewRand(1))
	nd := net.AddNode("core")
	var a, b, a2 countHandler
	want := func(step string, na, nb, na2 int) {
		t.Helper()
		deliverTo(net, nd, 100)
		deliverTo(net, nd, 10)
		if a.n != na || b.n != nb || a2.n != na2 {
			t.Fatalf("%s: deliveries (a, b, a2) = (%d, %d, %d), want (%d, %d, %d)",
				step, a.n, b.n, a2.n, na, nb, na2)
		}
	}
	net.Bind(Addr{nd, 100}, &a)
	net.Bind(Addr{nd, 10}, &b)
	if got := len(net.nodes[nd].handlers); got != 101 {
		t.Fatalf("second port built a table of %d entries, want 101", got)
	}
	want("two ports", 1, 1, 0)
	net.Bind(Addr{nd, 10}, &b) // rebinding the fast-path port
	want("fast-path port rebound", 2, 2, 0)
	net.Bind(Addr{nd, 100}, &a2) // rebinding the table-only port
	want("other port rebound", 2, 3, 1)
	net.Bind(Addr{nd, 10}, nil)
	want("port 10 unbound", 2, 3, 2)
	net.Bind(Addr{nd, 100}, nil)
	want("both unbound", 2, 3, 2)
	net.Bind(Addr{nd, 10}, &b)
	want("port 10 bound again", 2, 4, 2)

	net.Reset()
	nd = net.AddNode("core")
	if hs := net.nodes[nd].handlers; len(hs) != 0 {
		t.Fatalf("rewound node kept a port table of len %d", len(hs))
	}
	want("rewound", 2, 4, 2)
	net.Bind(Addr{nd, 100}, &a)
	want("rewound, one port", 3, 4, 2)
	if hs := net.nodes[nd].handlers; len(hs) != 0 {
		t.Fatalf("rewound node built a port table of len %d for one binding", len(hs))
	}
	net.Bind(Addr{nd, 10}, &b)
	want("rewound, two ports", 4, 5, 2)
}
