package simnet

import "testing"

func TestDropTailFIFO(t *testing.T) {
	q := NewDropTail(3)
	p1, p2, p3, p4 := &Packet{Size: 1}, &Packet{Size: 2}, &Packet{Size: 3}, &Packet{Size: 4}
	for _, p := range []*Packet{p1, p2, p3} {
		if !q.Enqueue(p, 0) {
			t.Fatal("enqueue within capacity failed")
		}
	}
	if q.Enqueue(p4, 0) {
		t.Fatal("enqueue above capacity should drop")
	}
	if q.Len() != 3 {
		t.Fatalf("len = %d", q.Len())
	}
	if q.Dequeue(0) != p1 || q.Dequeue(0) != p2 || q.Dequeue(0) != p3 {
		t.Fatal("not FIFO")
	}
	if q.Dequeue(0) != nil {
		t.Fatal("empty dequeue should be nil")
	}
}

func TestDropTailDefaultLimit(t *testing.T) {
	q := NewDropTail(0)
	if q.Limit != 50 {
		t.Fatalf("default limit = %d, want 50", q.Limit)
	}
}
