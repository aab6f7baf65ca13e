package tfmcc

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// bareReceiver wires one receiver to a fake sender address so tests can
// feed it crafted Data packets and capture its reports.
type bareRig struct {
	sch     *sim.Scheduler
	net     *simnet.Network
	rcv     *Receiver
	reports []Report
}

func newBareRig(cfg Config) *bareRig {
	sch := sim.NewScheduler()
	net := simnet.New(sch, sim.NewRand(1))
	snd := net.AddNode("snd")
	rn := net.AddNode("rcv")
	net.AddDuplex(snd, rn, 0, sim.Millisecond, 0)
	rig := &bareRig{sch: sch, net: net}
	senderAddr := simnet.Addr{Node: snd, Port: 100}
	net.Bind(senderAddr, simnet.HandlerFunc(func(p *simnet.Packet) {
		if rep, ok := p.Payload.(*Report); ok {
			rig.reports = append(rig.reports, *rep)
		}
	}))
	rig.rcv = NewReceiver(0, net, rn, 100, senderAddr, 1, cfg, sim.NewRand(2))
	return rig
}

// inject delivers a Data packet to the receiver as if multicast. The
// header is boxed as *Data, matching what Sender.transmit sends.
func (r *bareRig) inject(d Data, size int) {
	r.net.Send(&simnet.Packet{
		Size: size, Src: simnet.Addr{Node: 0, Port: 100},
		Dst: simnet.Addr{Port: 100}, Group: 1, IsMcast: true,
		Payload: &d,
	})
	r.sch.Run()
}

func baseData(seq int64, now sim.Time) Data {
	return Data{
		Seq: seq, SendTime: now, Rate: 10000, Round: 1,
		RoundT: 2 * sim.Second, MaxRTT: 500 * sim.Millisecond,
		CLR: noReceiver, EchoRcvr: noReceiver,
		SuppressRate: math.Inf(1),
	}
}

func TestReceiverLossDetection(t *testing.T) {
	rig := newBareRig(DefaultConfig())
	rig.inject(baseData(0, 0), 1000)
	rig.inject(baseData(1, 0), 1000)
	d := baseData(4, 0) // seqs 2,3 missing
	rig.inject(d, 1000)
	if rig.rcv.Losses != 2 {
		t.Fatalf("losses = %d, want 2", rig.rcv.Losses)
	}
	// Both within one (initial, 500ms) RTT: one loss event.
	if rig.rcv.LossEvents != 1 {
		t.Fatalf("loss events = %d, want 1", rig.rcv.LossEvents)
	}
}

func TestReceiverDuplicateAndReorderTolerant(t *testing.T) {
	rig := newBareRig(DefaultConfig())
	rig.inject(baseData(0, 0), 1000)
	rig.inject(baseData(1, 0), 1000)
	rig.inject(baseData(1, 0), 1000) // duplicate
	rig.inject(baseData(0, 0), 1000) // late/reordered
	if rig.rcv.Losses != 0 {
		t.Fatalf("dup/reorder counted as loss: %d", rig.rcv.Losses)
	}
}

func TestReceiverRTTMeasurementViaEcho(t *testing.T) {
	rig := newBareRig(DefaultConfig())
	// Make the receiver CLR so it reports immediately; then echo it.
	d := baseData(0, rig.sch.Now())
	d.CLR = 0
	rig.inject(d, 1000)
	if len(rig.reports) != 1 {
		t.Fatalf("CLR should report immediately, got %d reports", len(rig.reports))
	}
	rep := rig.reports[0]
	// Echo the report in the next data packet.
	d2 := baseData(1, rig.sch.Now())
	d2.CLR = 0
	d2.EchoRcvr = 0
	d2.EchoTS = rep.Timestamp
	d2.EchoDelay = 0
	rig.inject(d2, 1000)
	if !rig.rcv.HasValidRTT() {
		t.Fatal("echo should yield a valid RTT")
	}
	// True path RTT = 2ms (1ms each way).
	if got := rig.rcv.rtte.RTT(); got < sim.Millisecond || got > 4*sim.Millisecond {
		t.Fatalf("RTT = %v, want ~2ms", got)
	}
}

func TestReceiverIgnoresForeignEcho(t *testing.T) {
	rig := newBareRig(DefaultConfig())
	d := baseData(0, rig.sch.Now())
	d.EchoRcvr = 42 // someone else
	d.EchoTS = 0
	rig.inject(d, 1000)
	if rig.rcv.HasValidRTT() {
		t.Fatal("echo for another receiver must not produce a measurement")
	}
}

func TestReceiverLeaveSendsReportAndStops(t *testing.T) {
	rig := newBareRig(DefaultConfig())
	rig.inject(baseData(0, 0), 1000)
	rig.rcv.Leave()
	rig.sch.Run()
	found := false
	for _, r := range rig.reports {
		if r.Leave {
			found = true
		}
	}
	if !found {
		t.Fatal("Leave must send a leave report")
	}
	before := rig.rcv.PacketsRecv
	rig.inject(baseData(1, 0), 1000)
	if rig.rcv.PacketsRecv != before {
		t.Fatal("left receiver must ignore further data")
	}
	rig.rcv.Leave() // idempotent
}

func TestReceiverEligibilityRequiresLowerRate(t *testing.T) {
	cfg := DefaultConfig()
	rig := newBareRig(cfg)
	// Normal mode (no slowstart), with a CLR set, no loss experienced:
	// the receiver must stay silent through entire rounds.
	seq := int64(0)
	for round := 1; round <= 5; round++ {
		for i := 0; i < 20; i++ {
			d := baseData(seq, rig.sch.Now())
			seq++
			d.Slowstart = false
			d.CLR = 42
			d.Round = round
			rig.inject(d, 1000)
			rig.sch.RunUntil(rig.sch.Now() + 100*sim.Millisecond)
		}
	}
	if len(rig.reports) != 0 {
		t.Fatalf("no-loss receiver reported %d times with a CLR present", len(rig.reports))
	}
}

func TestRecvWindowRate(t *testing.T) {
	var w recvWindow
	w.reset()
	w.add(0, 1000)
	w.add(100*sim.Millisecond, 1000)
	w.add(200*sim.Millisecond, 1000)
	// Window of 1s from t=200ms covers all three packets.
	if got := w.rate(sim.Second, 200*sim.Millisecond); got != 3000 {
		t.Fatalf("rate = %v, want 3000 B/s", got)
	}
	// Window of 150ms covers the last two.
	if got := w.rate(150*sim.Millisecond, 200*sim.Millisecond); math.Abs(got-2000/0.15) > 1 {
		t.Fatalf("rate = %v, want %v", got, 2000/0.15)
	}
	if w.rate(0, 0) != 0 {
		t.Fatal("zero window should be 0")
	}
	var empty recvWindow
	if empty.rate(sim.Second, 0) != 0 {
		t.Fatal("empty window should be 0")
	}
}

func TestRecvWindowPruning(t *testing.T) {
	var w recvWindow
	w.reset()
	for i := 0; i < 2000; i++ {
		w.add(sim.Time(i)*sim.Millisecond, 100)
	}
	if w.n > 512 {
		t.Fatalf("window not pruned: %d samples", w.n)
	}
	// Recent rate still correct after pruning.
	got := w.rate(100*sim.Millisecond, 1999*sim.Millisecond)
	if math.Abs(got-100*101/0.1) > 2000 {
		t.Fatalf("post-prune rate = %v", got)
	}
}

func TestClamp01(t *testing.T) {
	f := func(x float64) bool {
		v := clamp01(x)
		return v >= 0 && v <= 1 && (x < 0 || x > 1 || v == x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCLRReportsUnsuppressed(t *testing.T) {
	rig := newBareRig(DefaultConfig())
	now := rig.sch.Now()
	// CLR with an active suppression echo far below: must report anyway.
	d := baseData(0, now)
	d.CLR = 0
	d.SuppressRate = 1 // absurdly low echo
	rig.inject(d, 1000)
	if len(rig.reports) == 0 {
		t.Fatal("CLR must report regardless of suppression")
	}
}

func TestCLRReportRateLimitedPerRTT(t *testing.T) {
	rig := newBareRig(DefaultConfig())
	now := rig.sch.Now()
	for i := 0; i < 10; i++ {
		d := baseData(int64(i), now)
		d.CLR = 0
		rig.inject(d, 1000)
	}
	// All ten packets arrive within far less than the 500ms initial RTT:
	// only the first may trigger a CLR report.
	if len(rig.reports) != 1 {
		t.Fatalf("CLR reported %d times within one RTT, want 1", len(rig.reports))
	}
}

// TestReceiverLineBudget pins the layout contract in Receiver's doc
// comment: every field an in-order data packet reads or writes lies in
// the first three 64-byte lines; the struct stays in a size class the
// allocator aligns to 64 bytes (a multiple of 64, at most 512, the
// largest without a malloc header in front of the object); and the
// receivers a session builds do land 64-byte aligned. A field added in
// the wrong place — or a per-receiver copy of what the package values
// hold: the protocol constants, the RTT constants or the loss weights —
// fails here rather than in a benchmark.
func TestReceiverLineBudget(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit targets")
	}
	const line, hotLines, maxSize = 64, 3, 512
	var r Receiver
	est := reflect.TypeOf(&r.est).Elem()
	ivBuf, _ := est.FieldByName("ivBuf")
	intervals, _ := est.FieldByName("intervals")
	if intervals.Offset+intervals.Type.Size() > ivBuf.Offset {
		t.Fatal("lossrate.Estimator: the open interval's header no longer precedes ivBuf")
	}
	// The end of each hot field: [offset, end) must lie in the budget.
	for name, end := range map[string]uintptr{
		"sch": unsafe.Offsetof(r.sch) + 8, "id": unsafe.Offsetof(r.id) + 8,
		"round": unsafe.Offsetof(r.round) + 8, "nextSeq": unsafe.Offsetof(r.nextSeq) + 8,
		"lastArrival": unsafe.Offsetof(r.lastArrival) + 8,
		"PacketsRecv": unsafe.Offsetof(r.PacketsRecv) + 8,
		"left":        unsafe.Offsetof(r.left) + 1, "isCLR": unsafe.Offsetof(r.isCLR) + 1,
		"haveSeq": unsafe.Offsetof(r.haveSeq) + 1, "fbPending": unsafe.Offsetof(r.fbPending) + 1,
		"fbHasLoss":           unsafe.Offsetof(r.fbHasLoss) + 1,
		"Meter":               unsafe.Offsetof(r.Meter) + 8,
		"rw":                  unsafe.Offsetof(r.rw) + unsafe.Sizeof(r.rw),
		"rtte":                unsafe.Offsetof(r.rtte) + unsafe.Sizeof(r.rtte),
		"last":                unsafe.Offsetof(r.last) + unsafe.Sizeof(r.last),
		"est (open interval)": unsafe.Offsetof(r.est) + ivBuf.Offset + 8,
	} {
		if end > hotLines*line {
			t.Errorf("hot field %s ends at byte %d, past the %d-line budget", name, end, hotLines)
		}
	}
	if size := unsafe.Sizeof(r); size > maxSize || sizeClass(size)%line != 0 {
		t.Errorf("Receiver is %d bytes: its size class must be a multiple of %d no larger than %d", size, line, maxSize)
	}
	_, _, sess := singleBottleneck(20, 125000, 20*sim.Millisecond, 30, DefaultConfig(), 1)
	for i, rc := range sess.Receivers {
		if a := uintptr(unsafe.Pointer(rc)); a%line != 0 {
			t.Fatalf("receiver %d at %#x is not %d-byte aligned", i, a, line)
		}
	}
}

// sizeClass returns the allocator's size class for an object of at most
// 512 bytes.
func sizeClass(size uintptr) uintptr {
	for _, c := range []uintptr{8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224,
		240, 256, 288, 320, 352, 384, 416, 448, 480} {
		if size <= c {
			return c
		}
	}
	return 512
}
