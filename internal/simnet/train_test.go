package simnet

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// trainRig is a fan-out node with a deliberately awkward child mix: fixed-
// delay tails of distinct and of equal delays, lossy tails, finite-
// bandwidth tails, and one tail that is itself a fan-out router, so a
// train delivery starts another train one hop down.
type trainRig struct {
	sch    *sim.Scheduler
	net    *Network
	src    NodeID
	leaves []NodeID
	links  []*Link // every downstream link, in creation order
	log    strings.Builder
	held   int64 // peak TrainHeld over the run's slices
}

const trainGroup = GroupID(7)

type trainLeaf struct {
	rig *trainRig
	id  NodeID
}

func (l trainLeaf) Recv(pkt *Packet) {
	fmt.Fprintf(&l.rig.log, "%d %d %d\n", l.rig.sch.Now(), l.id, pkt.Size)
}

// build (re)issues the construction calls; on a rewound network they
// recycle the previous run's node slots and links.
func (r *trainRig) build() {
	net := r.net
	r.leaves, r.links = r.leaves[:0], r.links[:0]
	r.src = net.AddNode("src")
	hub := net.AddNode("hub")
	down := func(a, b NodeID, bw float64, d sim.Time, q int, loss float64) {
		l, _ := net.AddDuplex(a, b, bw, d, q)
		l.LossProb = loss
		r.links = append(r.links, l)
	}
	down(r.src, hub, 0, sim.Millisecond, 0, 0)
	leaf := func(parent NodeID, bw float64, d sim.Time, q int, loss float64) {
		id := net.AddNode("leaf")
		down(parent, id, bw, d, q, loss)
		net.Bind(Addr{id, 1}, trainLeaf{r, id})
		net.Join(trainGroup, id)
		r.leaves = append(r.leaves, id)
	}
	for i := 0; i < 14; i++ {
		switch {
		case i%5 == 3: // finite bandwidth, shallow queue: serialiser + drops
			leaf(hub, 4e5, sim.Time(2+i)*sim.Millisecond, 3, 0)
		case i%4 == 1: // lossy fixed-delay tail
			leaf(hub, 0, sim.Time(3+i%3)*sim.Millisecond, 0, 0.2)
		default: // fixed-delay tails, several sharing a delay
			leaf(hub, 0, sim.Time(3+(i*7)%9)*sim.Millisecond, 0, 0)
		}
	}
	sub := net.AddNode("sub")
	down(hub, sub, 0, 4*sim.Millisecond, 0, 0.05)
	for i := 0; i < 4; i++ {
		leaf(sub, 0, sim.Time(1+i%2)*sim.Millisecond, 0, 0.1)
	}
}

// newTestNet returns a production network or, with oracle set, one on the
// timer-per-packet reference path — every fanned-out copy on its own link
// timer, no fan-out train — which the production path must reproduce byte
// for byte. This file is the seam's only user.
func newTestNet(oracle bool, sch *sim.Scheduler, rng *sim.Rand) *Network {
	n := New(sch, rng)
	n.timerPerPacket = oracle
	return n
}

// trainsEver reports whether any node has fanned out over trains since
// construction or the last Reset. An oracle run must answer false: then
// each delivered copy was one heap push.
func (n *Network) trainsEver() bool {
	for i := range n.nodes {
		if n.nodes[i].fan != nil {
			return true
		}
	}
	return false
}

// requireOracleSplit is the vacuity guard of every production-vs-oracle
// comparison: the production run used trains and the oracle run never did.
func requireOracleSplit(t *testing.T, on, off *Network) {
	t.Helper()
	if !on.trainsEver() {
		t.Fatal("production run never rode a fan-out train")
	}
	if off.trainsEver() {
		t.Fatal("oracle run left the timer-per-packet path: a node fanned out over trains")
	}
}

func newTrainRig(coalesce bool, seed int64) *trainRig {
	r := &trainRig{sch: sim.NewScheduler()}
	r.net = newTestNet(!coalesce, r.sch, sim.NewRand(seed))
	r.net.EnableReuse()
	r.build()
	return r
}

// script schedules the traffic and a seeded storm of mid-flight
// mutations. It draws from its own RNG, never the network's, and every
// mutation is a scheduler event, so both delivery modes see the same
// script at the same (time, seq) positions.
func (r *trainRig) script(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	sch, net := r.sch, r.net
	for i := 0; i < 500; i++ {
		size := 200 + i // the size doubles as the packet's identity in the log
		sch.At(sim.Time(i)*600*sim.Microsecond, func() {
			pkt := net.AllocPacket()
			pkt.Size, pkt.Src, pkt.Dst = size, Addr{r.src, 1}, Addr{Port: 1}
			pkt.Group, pkt.IsMcast = trainGroup, true
			net.Send(pkt)
		})
	}
	for i := 0; i < 60; i++ {
		at := sim.Time(rng.Int63n(int64(300 * sim.Millisecond)))
		l := r.links[1+rng.Intn(len(r.links)-1)]
		leaf := r.leaves[rng.Intn(len(r.leaves))]
		var fn func()
		switch rng.Intn(7) {
		case 0:
			c, d, ro := rng.Float64()*0.2, rng.Float64()*0.2, rng.Float64()*0.3
			fn = func() { l.SetImpairments(c, d, ro, 5*sim.Millisecond) }
		case 1:
			fn = func() { l.SetImpairments(0, 0, 0, 0) }
		case 2:
			d := sim.Time(1+rng.Intn(12)) * sim.Millisecond
			fn = func() { l.SetDelay(d) }
		case 3:
			fn = func() { l.SetDown(!l.IsDown()) }
		case 4:
			fn = func() { net.Leave(trainGroup, leaf) }
		case 5:
			fn = func() { net.Join(trainGroup, leaf) }
		case 6:
			bw := []float64{0, 3e5}[rng.Intn(2)]
			fn = func() { l.SetBandwidth(bw) }
		}
		sch.At(at, fn)
	}
}

// run advances to until in slices of seeded, awkward lengths — zero, a
// few nanoseconds, exact multiples of the link delays — so trains are cut
// by the run bound at every possible place.
func (r *trainRig) run(seed int64, until sim.Time) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for r.sch.Now() < until {
		var step sim.Time
		switch rng.Intn(4) {
		case 0:
			step = 0
		case 1:
			step = sim.Time(rng.Intn(50))
		case 2:
			step = sim.Time(1+rng.Intn(4)) * sim.Millisecond
		case 3:
			step = sim.Time(rng.Int63n(int64(9 * sim.Millisecond)))
		}
		r.sch.RunUntil(min(r.sch.Now()+step, until))
		r.held = max(r.held, r.net.TrainHeld())
	}
}

func (r *trainRig) stats() string {
	var b strings.Builder
	for i, l := range r.links {
		fmt.Fprintf(&b, "%d %+v\n", i, l.Stats)
	}
	fmt.Fprintf(&b, "faults %+v processed %d\n", r.net.Faults(), r.sch.Processed())
	return b.String()
}

// TestTrainIdentity: fan-out trains must reproduce the timer-per-packet
// oracle — the delivery log, every link's counters, the fault counters
// and the processed-event count — under mixed children, per-child loss,
// impairments armed mid-run, delay/availability/membership changes while
// copies are in flight, and awkward RunUntil slicing.
func TestTrainIdentity(t *testing.T) {
	const end = 3 * sim.Second
	for seed := int64(1); seed <= 12; seed++ {
		on, off := newTrainRig(true, seed), newTrainRig(false, seed)
		for _, r := range []*trainRig{on, off} {
			r.script(seed)
			r.run(seed, end)
		}
		if on.log.Len() == 0 {
			t.Fatalf("seed %d: nothing delivered", seed)
		}
		if on.log.String() != off.log.String() {
			t.Fatalf("seed %d: delivery log differs between trains and the timer-per-packet oracle", seed)
		}
		if a, b := on.stats(), off.stats(); a != b {
			t.Fatalf("seed %d: counters differ:\ntrains:\n%s\noracle:\n%s", seed, a, b)
		}
		requireOracleSplit(t, on.net, off.net)
		if on.held == 0 || off.held != 0 {
			t.Fatalf("seed %d: peak TrainHeld %d with trains, %d on the oracle (want > 0, 0)", seed, on.held, off.held)
		}
		for _, r := range []*trainRig{on, off} {
			if live, held := r.net.LivePackets(), r.net.TrainHeld(); live != 0 || held != 0 {
				t.Fatalf("seed %d: after drain %d packets live, %d held", seed, live, held)
			}
		}
	}
}

// TestTrainsCarryTheFanOut guards the test above against vacuity from the
// other side: the production rig's hub really does park copies on trains.
func TestTrainsCarryTheFanOut(t *testing.T) {
	r := newTrainRig(true, 1)
	r.script(1)
	r.sch.RunUntil(20 * sim.Millisecond)
	var onTrains int64
	for i := range r.net.nodes {
		if f := r.net.nodes[i].fan; f != nil {
			onTrains += f.held
		}
	}
	if onTrains == 0 {
		t.Fatal("no copy is riding a train 20 ms into the run")
	}
	if held := r.net.TrainHeld(); held < onTrains {
		t.Fatalf("TrainHeld = %d does not count the %d copies on trains", held, onTrains)
	}
}

// TestTrainResetMidFlight: Reset with trains in flight drops them, and the
// rewound network then reproduces a fresh run exactly.
func TestTrainResetMidFlight(t *testing.T) {
	const end = 3 * sim.Second
	for seed := int64(1); seed <= 4; seed++ {
		fresh := newTrainRig(true, seed)
		fresh.script(seed)
		fresh.run(seed, end)

		r := newTrainRig(true, seed+100)
		r.script(seed + 100)
		r.run(seed+100, 150*sim.Millisecond)
		if r.net.TrainHeld() == 0 {
			t.Fatalf("seed %d: setup: nothing in flight at the rewind point", seed)
		}
		r.sch.Reset()
		if !r.net.Reset() {
			t.Fatal("Reset refused")
		}
		if held, live := r.net.TrainHeld(), r.net.LivePackets(); held != 0 || live != 0 {
			t.Fatalf("seed %d: Reset left %d held, %d live", seed, held, live)
		}
		r.net.Rand().Reseed(seed)
		r.log.Reset()
		r.build()
		r.script(seed)
		r.run(seed, end)
		if r.log.String() != fresh.log.String() {
			t.Fatalf("seed %d: rewound run's delivery log differs from a fresh run's", seed)
		}
		if a, b := r.stats(), fresh.stats(); a != b {
			t.Fatalf("seed %d: rewound counters differ:\n%s\nfresh:\n%s", seed, a, b)
		}
	}
}

// lineBytes is the cache line the layout contracts below are written for.
const lineBytes = 64

// TestLinkLineBudget pins Link's layout contract: every field a copy
// boarding a fan-out train reads or writes lies in the first 64-byte line;
// Link is a multiple of 64 bytes no larger than 512 (a size class the
// allocator aligns to 64, with no header in front of the object); and the
// links AddLink returns are 64-byte aligned. admit's unconditional reads
// are listed here; deliver and fixedDelay are read from the source, so a
// field either of them starts to read off that line fails the test.
func TestLinkLineBudget(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit targets")
	}
	lt := reflect.TypeOf(Link{})
	// fieldEnd returns where the field a selector path names ends, following
	// the path through nested structs (l.Stats.Sent) and stopping at
	// anything else (l.net.arrive reads l.net); ok is false for a method.
	fieldEnd := func(path []string) (field string, end uintptr, ok bool) {
		typ, off := lt, uintptr(0)
		for i, name := range path {
			if typ.Kind() != reflect.Struct {
				path = path[:i]
				break
			}
			f, ok := typ.FieldByName(name)
			if !ok {
				return "", 0, false
			}
			typ, off = f.Type, off+f.Offset
		}
		return strings.Join(path, "."), off + typ.Size(), true
	}
	check := func(who string, path []string) {
		if field, end, ok := fieldEnd(path); ok && end > lineBytes {
			t.Errorf("%s reads Link.%s, which ends at byte %d, off the first line", who, field, end)
		}
	}
	for _, f := range [][]string{{"Stats", "Sent"}, {"down"}, {"LossProb"}, {"impaired"}} {
		check("admit", f)
	}
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "link.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range file.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Recv == nil || (fn.Name.Name != "deliver" && fn.Name.Name != "fixedDelay") {
			continue
		}
		seen[fn.Name.Name] = true
		recv := fn.Recv.List[0].Names[0].Name
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			var path []string
			x := ast.Expr(sel)
			for {
				s, ok := x.(*ast.SelectorExpr)
				if !ok {
					break
				}
				path = append([]string{s.Sel.Name}, path...)
				x = s.X
			}
			if id, ok := x.(*ast.Ident); ok && id.Name == recv {
				check(fn.Name.Name, path)
				return false
			}
			return true
		})
	}
	if !seen["deliver"] || !seen["fixedDelay"] {
		t.Fatalf("link.go: found %v of deliver and fixedDelay", seen)
	}
	if size := unsafe.Sizeof(Link{}); size%lineBytes != 0 || size > 512 {
		t.Errorf("Link is %d bytes: it must be a multiple of %d no larger than 512", size, lineBytes)
	}
	net := New(sim.NewScheduler(), sim.NewRand(1))
	hub := net.AddNode("hub")
	for i := 0; i < 40; i++ {
		down, up := net.AddDuplex(hub, net.AddNode("leaf"), 0, sim.Millisecond, 0)
		for _, l := range []*Link{down, up} {
			if a := uintptr(unsafe.Pointer(l)); a%lineBytes != 0 {
				t.Fatalf("link at %#x is not %d-byte aligned", a, lineBytes)
			}
		}
	}
}

// TestNodeLineBudget pins node's layout contract: a 64-byte record whose
// first bytes are what a delivery reads, the handler and its port. A
// thousand-node array is page-aligned, so every record is one line; in a
// smaller one the handler and port still never straddle two lines.
func TestNodeLineBudget(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit targets")
	}
	var nd node
	if size := unsafe.Sizeof(nd); size != lineBytes {
		t.Errorf("node is %d bytes, want %d", size, lineBytes)
	}
	hotEnd := unsafe.Offsetof(nd.hport) + unsafe.Sizeof(nd.hport)
	if unsafe.Offsetof(nd.h) != 0 || hotEnd > 24 {
		t.Errorf("node: h at %d, hport ending at %d; want them to be the record's first 24 bytes",
			unsafe.Offsetof(nd.h), hotEnd)
	}
	for _, count := range []int{3, 40, 300, 1002} {
		net := New(sim.NewScheduler(), sim.NewRand(1))
		for i := 0; i < count; i++ {
			net.AddNode("n")
		}
		base := uintptr(unsafe.Pointer(&net.nodes[0]))
		if count > 1000 && base%lineBytes != 0 {
			t.Errorf("%d nodes: array at %#x is not %d-byte aligned", count, base, lineBytes)
		}
		for i := range net.nodes {
			if a := uintptr(unsafe.Pointer(&net.nodes[i])); a/lineBytes != (a+hotEnd-1)/lineBytes {
				t.Fatalf("%d nodes: node %d's handler and port straddle a line (at %#x)", count, i, a)
			}
		}
	}
}

// fastStar is a fan-out router behind a fast bottleneck: packets arrive at
// the hub every spacing while the children's delays spread over 1–40 ms,
// so the hub holds about 39 ms / spacing trains at once — hundreds at
// 100 Mbit, where figure 12's 1 Mbit gives five.
type fastStar struct {
	sch  *sim.Scheduler
	net  *Network
	src  NodeID
	hub  NodeID
	sum  uint64 // order-sensitive hash of every (time, leaf, size) delivery
	recv int
}

type fastLeaf struct {
	st *fastStar
	id NodeID
}

func (l fastLeaf) Recv(pkt *Packet) {
	st := l.st
	st.recv++
	for _, v := range [3]uint64{uint64(st.sch.Now()), uint64(l.id), uint64(pkt.Size)} {
		st.sum = (st.sum ^ v) * 1099511628211
	}
}

func newFastStar(coalesce bool, leaves int, seed int64) *fastStar {
	st := &fastStar{sch: sim.NewScheduler()}
	st.net = newTestNet(!coalesce, st.sch, sim.NewRand(seed))
	rng := rand.New(rand.NewSource(seed))
	st.src, st.hub = st.net.AddNode("src"), st.net.AddNode("hub")
	st.net.AddLink(st.src, st.hub, 12.5e6, sim.Millisecond, 1<<20)
	for i := 0; i < leaves; i++ {
		id := st.net.AddNode("leaf")
		// Tenth-of-a-millisecond steps: many equal delays, so ties on the
		// arrival time are settled by seq across trains too.
		d := sim.Millisecond + sim.Time(rng.Intn(390))*100*sim.Microsecond
		l := st.net.AddLink(st.hub, id, 0, d, 0)
		if i%7 == 0 {
			l.LossProb = 0.1
		}
		st.net.Bind(Addr{id, 1}, fastLeaf{st, id})
		st.net.Join(trainGroup, id)
	}
	return st
}

// send schedules count 1000-byte multicast packets spacing apart.
func (st *fastStar) send(count int, spacing sim.Time) {
	for i := 0; i < count; i++ {
		size := 1000 + i%7
		st.sch.At(sim.Time(i)*spacing, func() {
			pkt := st.net.AllocPacket()
			pkt.Size, pkt.Src, pkt.Dst = size, Addr{st.src, 1}, Addr{Port: 1}
			pkt.Group, pkt.IsMcast = trainGroup, true
			st.net.Send(pkt)
		})
	}
}

// TestTrainIdentityManyInFlight: the oracle identity holds, and the train
// heap is really exercised, with hundreds of trains in flight at one node.
func TestTrainIdentityManyInFlight(t *testing.T) {
	const spacing = 80 * sim.Microsecond // 1000 bytes at 100 Mbit
	on, off := newFastStar(true, 200, 3), newFastStar(false, 200, 3)
	peak := 0
	for _, st := range []*fastStar{on, off} {
		st.send(1500, spacing)
		for st.sch.Now() < 200*sim.Millisecond {
			st.sch.RunUntil(st.sch.Now() + 1700*sim.Microsecond)
			if f := st.net.nodes[st.hub].fan; f != nil {
				peak = max(peak, len(f.trains))
			}
			if st == off && st.net.TrainHeld() != 0 {
				t.Fatalf("oracle holds %d arrivals off the heap at %v", st.net.TrainHeld(), st.sch.Now())
			}
		}
	}
	requireOracleSplit(t, on.net, off.net)
	if peak < 300 {
		t.Fatalf("at most %d trains in flight at the hub; the case is meant to hold hundreds", peak)
	}
	if on.recv == 0 || on.recv != off.recv || on.sum != off.sum {
		t.Fatalf("deliveries differ: trains %d (hash %x), oracle %d (hash %x)", on.recv, on.sum, off.recv, off.sum)
	}
	if a, b := on.sch.Processed(), off.sch.Processed(); a != b {
		t.Fatalf("processed %d events with trains, %d with the oracle", a, b)
	}
	for _, st := range []*fastStar{on, off} {
		if live, held := st.net.LivePackets(), st.net.TrainHeld(); live != 0 || held != 0 {
			t.Fatalf("after drain %d packets live, %d held", live, held)
		}
	}
}

// TestTrainArrivalPastMaxTime: a child whose arrival would pass the end of
// sim.Time is timed as the timer-per-packet oracle times it — saturated
// at MaxTime, so it never arrives — instead of wrapping to an instant in
// the scheduler's past, and the other children's copies are unaffected.
// The child's delay is the longest a route still crosses (just under
// 2⁶² ns), so its arrival passes MaxTime once the clock is past 2⁶² ns.
func TestTrainArrivalPastMaxTime(t *testing.T) {
	const start = 1<<62 + sim.Second
	var stars [2]*fastStar
	for i, coalesce := range []bool{true, false} {
		st := newFastStar(coalesce, 12, 5)
		far := st.net.AddNode("far")
		l := st.net.AddLink(st.hub, far, 0, 1<<62-sim.Second, 0)
		st.net.Bind(Addr{far, 1}, fastLeaf{st, far})
		st.net.Join(trainGroup, far)
		st.sch.RunUntil(start)
		for i := 0; i < 40; i++ {
			st.sch.At(start+sim.Time(i)*sim.Millisecond, func() {
				pkt := st.net.AllocPacket()
				pkt.Size, pkt.Src, pkt.Dst = 1000, Addr{st.src, 1}, Addr{Port: 1}
				pkt.Group, pkt.IsMcast = trainGroup, true
				st.net.Send(pkt)
			})
		}
		st.sch.RunUntil(start + 100*sim.Millisecond)
		if l.Stats.Sent == 0 || l.Stats.Deliver != 0 {
			t.Fatalf("coalesce=%v: the far child sent %d and delivered %d copies, want some and none",
				coalesce, l.Stats.Sent, l.Stats.Deliver)
		}
		stars[i] = st
	}
	on, off := stars[0], stars[1]
	requireOracleSplit(t, on.net, off.net)
	if on.recv == 0 || on.recv != off.recv || on.sum != off.sum {
		t.Fatalf("deliveries differ: trains %d (hash %x), oracle %d (hash %x)", on.recv, on.sum, off.recv, off.sum)
	}
	if a, b := on.sch.Processed(), off.sch.Processed(); a != b {
		t.Fatalf("processed %d events with trains, %d with the oracle", a, b)
	}
	if a, b := on.net.LivePackets(), off.net.LivePackets(); a != b {
		t.Fatalf("%d packets live with trains, %d with the oracle", a, b)
	}
}

// BenchmarkFanOutCopy prices one delivered copy of a 1000-child fan-out
// with few (8 ms packet spacing: figure 12's 1 Mbit bottleneck) and many
// (80 us: 100 Mbit) trains in flight, against the timer-per-packet oracle.
func BenchmarkFanOutCopy(b *testing.B) {
	for _, c := range []struct {
		name    string
		spacing sim.Time
	}{{"spacing8ms", 8 * sim.Millisecond}, {"spacing80us", 80 * sim.Microsecond}} {
		for _, coalesce := range []bool{true, false} {
			mode := "trains"
			if !coalesce {
				mode = "timers"
			}
			b.Run(c.name+"/"+mode, func(b *testing.B) {
				st := newFastStar(coalesce, 1000, 1)
				const burst = 800
				for n := 0; n < b.N; n += st.recv {
					st.recv = 0
					st.sch.Reset()
					st.send(burst, c.spacing)
					st.sch.Run()
				}
			})
		}
	}
}
