package simnet

import "repro/internal/sim"

// DropTail is the FIFO queue of every link, the discipline used in all of
// the paper's simulations. It is a fixed ring buffer: steady-state
// enqueue/dequeue never allocates (the old slice version re-grew its
// backing array continuously).
type DropTail struct {
	Limit int // capacity in packets
	buf   []*Packet
	head  int
	n     int
}

// NewDropTail returns a FIFO queue holding at most limit packets.
func NewDropTail(limit int) *DropTail {
	d := &DropTail{}
	d.reset(limit)
	return d
}

// Enqueue appends pkt and reports false when the queue is full and the
// packet is dropped.
func (d *DropTail) Enqueue(pkt *Packet, _ sim.Time) bool {
	if d.n >= d.Limit {
		return false
	}
	if d.n == len(d.buf) {
		d.grow()
	}
	d.buf[(d.head+d.n)%len(d.buf)] = pkt
	d.n++
	return true
}

// grow resizes the ring to the current Limit (which is exported and may
// have been raised after construction).
func (d *DropTail) grow() {
	nb := make([]*Packet, d.Limit)
	for i := 0; i < d.n; i++ {
		nb[i] = d.buf[(d.head+i)%len(d.buf)]
	}
	d.buf = nb
	d.head = 0
}

// reset empties the queue and re-arms it for limit packets, keeping the
// ring storage when it is already large enough.
func (d *DropTail) reset(limit int) {
	if limit <= 0 {
		limit = 50
	}
	clear(d.buf)
	d.Limit, d.head, d.n = limit, 0, 0
}

// Dequeue removes and returns the oldest packet, nil when empty.
func (d *DropTail) Dequeue(_ sim.Time) *Packet {
	if d.n == 0 {
		return nil
	}
	pkt := d.buf[d.head]
	d.buf[d.head] = nil
	d.head = (d.head + 1) % len(d.buf)
	d.n--
	return pkt
}

// Len returns the number of queued packets.
func (d *DropTail) Len() int { return d.n }
