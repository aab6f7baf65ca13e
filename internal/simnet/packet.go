// Package simnet is a packet-level network simulator: nodes, queued
// links with bandwidth and propagation delay, drop-tail queues,
// per-link random loss, shortest-path unicast routing and source-rooted
// multicast distribution trees. It plays the role ns-2 plays in the
// TFMCC paper's evaluation. Every network is rewindable: Reset empties
// it for the next run and keeps its storage and its arena's objects.
package simnet

import "repro/internal/sim"

// NodeID identifies a node in a Network.
type NodeID int

// GroupID identifies a multicast group.
type GroupID int

// Port identifies a protocol endpoint within a node, so several agents
// (e.g. a TCP sink and a TFMCC receiver) can share one node.
type Port int

// Addr is a node/port pair.
type Addr struct {
	Node NodeID
	Port Port
}

// Packet is the unit of transmission. Payload carries the protocol
// header/body as a Go value; Size alone determines transmission time.
//
// Packets built with a composite literal work as before and are never
// recycled. Packets from Network.AllocPacket belong to the network once
// sent: the network reference-counts the multicast fan-out and returns
// them to a free list after the last delivery or drop, so handlers must
// copy anything they keep. A recycled packet retains its Payload so
// protocols can reuse a pooled header box (see AllocPacket).
type Packet struct {
	Size    int  // bytes on the wire
	Src     Addr // originating agent
	Dst     Addr // unicast destination; ignored for multicast
	Group   GroupID
	IsMcast bool
	SentAt  sim.Time // stamped by Network.Send for tracing
	Payload any

	tree    *mcastTree // compiled tree cache, valid while treeVer matches
	treeVer uint32
	refs    int32 // outstanding forwarding tokens
	pooled  bool  // came from AllocPacket; recycle at refs==0
	class   uint8 // recycling class (AllocPacketClass); keeps box types stable
}

// Handler consumes packets delivered to a port.
type Handler interface {
	Recv(pkt *Packet)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(pkt *Packet)

// Recv implements Handler.
func (f HandlerFunc) Recv(pkt *Packet) { f(pkt) }
