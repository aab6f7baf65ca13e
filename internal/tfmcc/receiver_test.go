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
	w.add(0)
	w.add(100 * sim.Millisecond)
	w.add(200 * sim.Millisecond)
	// Window of 1s from t=200ms covers all three packets.
	if got := w.rate(sim.Second, 200*sim.Millisecond); got != 3*float64(PacketSize) {
		t.Fatalf("rate = %v, want %d B/s", got, 3*PacketSize)
	}
	// Window of 150ms covers the last two.
	if got, want := w.rate(150*sim.Millisecond, 200*sim.Millisecond), 2*float64(PacketSize)/0.15; got != want {
		t.Fatalf("rate = %v, want %v", got, want)
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
		w.add(sim.Time(i) * sim.Millisecond)
	}
	if w.n > 512 {
		t.Fatalf("window not pruned: %d samples", w.n)
	}
	// Recent rate still correct after pruning: arrivals 1899..1999 ms.
	if got, want := w.rate(100*sim.Millisecond, 1999*sim.Millisecond), 101*float64(PacketSize)/0.1; got != want {
		t.Fatalf("post-prune rate = %v, want %v", got, want)
	}
}

// refWindow is the receive window as it was when every sample carried its
// size beside its time: the oracle recvWindow's count·PacketSize must
// match bit for bit on PacketSize arrivals.
type refWindow struct {
	s    []refSample
	head int32
	n    int32
}

type refSample struct {
	t sim.Time
	b int
}

func (w *refWindow) slot(i int32) int32 { return (w.head + i) & (recvWindowCap - 1) }

func (w *refWindow) reset() {
	if w.s == nil {
		w.s = make([]refSample, recvWindowCap)
	}
	w.head, w.n = 0, 0
}

func (w *refWindow) add(now sim.Time, bytes int) {
	e := &w.s[w.slot(w.n)]
	e.t, e.b = now, bytes
	w.n++
	if w.n > 512 {
		w.head = w.slot(256)
		w.n -= 256
	}
}

func (w *refWindow) rate(window, now sim.Time) float64 {
	if window <= 0 || w.n == 0 {
		return 0
	}
	cut := now - window
	var bytes int64
	for i := w.n - 1; i >= 0; i-- {
		e := &w.s[w.slot(i)]
		if e.t < cut {
			break
		}
		bytes += int64(e.b)
	}
	return float64(bytes) / window.Seconds()
}

// TestRecvWindowMatchesSizedRing feeds the window and its sized-sample
// oracle the same random arrival streams — back-to-back bursts, ordinary
// spacing and silences longer than any window, thousands of arrivals so
// pruning wraps the ring many times — and queries random windows after
// each arrival: 0, longer than the whole stream, and starting exactly at
// a held arrival. Every rate must be bit-equal.
func TestRecvWindowMatchesSizedRing(t *testing.T) {
	rng := sim.NewRand(7)
	queries, pruned := 0, 0
	for stream := 0; stream < 20; stream++ {
		var w recvWindow
		var ref refWindow
		w.reset()
		ref.reset()
		now := sim.Time(rng.Intn(int(sim.Second)))
		arrivals := 2000 + rng.Intn(3000)
		for i := 0; i < arrivals; i++ {
			switch k := rng.Intn(100); {
			case k < 30: // burst: same instant or a few µs apart
				now += sim.Time(rng.Intn(5)) * sim.Microsecond
			case k < 97:
				now += sim.Time(1 + rng.Intn(int(50*sim.Millisecond)))
			default: // a silence longer than most windows queried below
				now += sim.Time(2+rng.Intn(10)) * 10 * sim.Second
			}
			n := w.n
			w.add(now)
			ref.add(now, PacketSize)
			if w.n < n {
				pruned++
			}
			if w.n != ref.n || w.head != ref.head {
				t.Fatalf("stream %d arrival %d: cursors (%d,%d), oracle (%d,%d)", stream, i, w.head, w.n, ref.head, ref.n)
			}
			for q := 0; q < 3; q++ {
				var window sim.Time
				at := now + sim.Time(rng.Intn(int(100*sim.Millisecond)))
				switch k := rng.Intn(10); {
				case k == 0:
					window = 0
				case k == 1: // longer than everything the stream holds
					window = now + sim.Time(1+rng.Intn(int(sim.Second)))
				case k == 2: // starting exactly at a held arrival
					window = at - ref.s[ref.slot(int32(rng.Intn(int(ref.n))))].t
				default:
					window = sim.Time(1 + rng.Intn(int(20*sim.Second)))
				}
				got, want := w.rate(window, at), ref.rate(window, at)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("stream %d arrival %d: rate(%v, %v) = %v, oracle %v", stream, i, window, at, got, want)
				}
				queries++
			}
		}
	}
	if pruned == 0 {
		t.Fatal("no stream pruned its ring")
	}
	t.Logf("%d queries bit-equal across %d prunes", queries, pruned)
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

// TestReceiverBytesPinned pins what one receiver costs: a 488-byte
// struct in the 512-byte size class plus a 4 KB receive-window ring of
// arrival times. A sample that grows back a size field, or a ring that
// grows past 512 slots, fails here.
func TestReceiverBytesPinned(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit targets")
	}
	const receiverBytes, ringBytes = 488, 4096
	var r Receiver
	if size := unsafe.Sizeof(r); size != receiverBytes || sizeClass(size) != 512 {
		t.Errorf("Receiver is %d bytes in the %d-byte class, want %d in the 512-byte class",
			size, sizeClass(size), receiverBytes)
	}
	_, _, sess := singleBottleneck(3, 125000, 20*sim.Millisecond, 30, DefaultConfig(), 1)
	for i, rc := range sess.Receivers {
		if b := uintptr(cap(rc.rw.s)) * unsafe.Sizeof(rc.rw.s[0]); b != ringBytes {
			t.Errorf("receiver %d: ring is %d bytes, want %d", i, b, ringBytes)
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
