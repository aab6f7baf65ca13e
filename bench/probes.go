package main

import (
	"math"
	"time"

	"repro/internal/fbtree"
	"repro/internal/feedback"
	"repro/internal/lossrate"
	"repro/internal/rtt"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/tcpmodel"
	"repro/internal/tcpsim"
	"repro/internal/tfmcc"
)

// A probe is a fixed-work driver that calls one layer's public API only,
// so a change in that layer's cost shows without the other layers around
// it. run performs n operations' worth of work (n already scaled) and
// returns the time the measured part took and how many operations it
// covered; the reported value is the minimum over probeReps repetitions of
// elapsed / operations, in the probe's unit (interference on a shared box
// only adds time, and a 10 ms repetition is easily hit).
type probe struct {
	Name string
	PerS float64 // unit per second: 1e9 for ns, 1e6 for us
	N    int     // operations per repetition at scale 1
	Run  func(n int) (time.Duration, int)
}

const probeReps = 5

// sink defeats dead-code elimination of pure probe bodies.
var sink float64

func runProbes(m map[string]float64, scale float64) {
	for _, p := range probes {
		n := p.N
		if scale < 1 {
			n = int(math.Max(1, float64(n)*scale))
		}
		best := math.Inf(1)
		for i := 0; i < probeReps; i++ {
			d, ops := p.Run(n)
			best = math.Min(best, d.Seconds()*p.PerS/float64(ops))
		}
		m[p.Name] = best
	}
}

func timed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

var probes = []probe{
	{"sim.probe.hold_ns_d64", 1e9, 200000, holdProbe(64)},
	{"sim.probe.hold_ns_d16k", 1e9, 200000, holdProbe(16384)},
	{"sim.probe.cancel_ns", 1e9, 200000, cancelProbe},
	{"sim.probe.burst64_ns", 1e9, 200000, burstProbe},
	{"sim.probe.reset_us", 1e6, 20, schedResetProbe},
	{"simnet.probe.hop_ns", 1e9, 20000, hopProbe},
	{"simnet.probe.mcast_copy_ns_f16", 1e9, 100000, mcastProbe(16)},
	{"simnet.probe.mcast_copy_ns_f1000", 1e9, 100000, mcastProbe(1000)},
	{"simnet.probe.queue_ns", 1e9, 500000, queueProbe},
	{"simnet.probe.route_rebuild_us", 1e6, 100, routeProbe},
	{"simnet.probe.join_leave_us", 1e6, 200, joinLeaveProbe},
	{"simnet.probe.reset_us_n1000", 1e6, 10, netResetProbe},
	{"tfmcc.probe.recv_ns_r1", 1e9, 200000, recvProbe(1)},
	{"tfmcc.probe.recv_ns_r1000", 1e9, 200000, recvProbe(1000)},
	{"tfmcc.probe.report_ns", 1e9, 100000, reportProbe},
	{"tfmcc.probe.cohort_round_ns", 1e9, 20000, cohortProbe},
	{"lossrate.probe.packet_ns", 1e9, 2000000, lossPacketProbe},
	{"lossrate.probe.loss_event_ns", 1e9, 200000, lossEventProbe},
	{"lossrate.probe.rate_ns", 1e9, 500000, lossRateProbe},
	{"rtt.probe.measure_ns", 1e9, 1000000, rttProbe},
	{"feedback.probe.round_us_n10000", 1e6, 3, feedbackProbe},
	{"fbtree.probe.round_us_n10000", 1e6, 3, fbtreeProbe},
	{"tcpmodel.probe.throughput_ns", 1e9, 500000, tcpmodelProbe},
	{"tcpsim.probe.ns_per_seg", 1e9, 20000, tcpsimProbe},
	{"stats.probe.meter_add_ns", 1e9, 2000000, meterProbe},
	{"stats.probe.merge_us", 1e6, 5, mergeProbe},
}

// --- sim ---------------------------------------------------------------

// holdProbe is the classic hold model: a heap kept at steady depth, each
// executed event scheduling its successor an exponential delay ahead.
func holdProbe(depth int) func(int) (time.Duration, int) {
	return func(n int) (time.Duration, int) {
		sch, rng := sim.NewScheduler(), sim.NewRand(1)
		var fn func(any)
		fn = func(any) { sch.AfterArg(sim.Time(rng.Exp(1e6))+1, fn, nil) }
		for i := 0; i < depth; i++ {
			sch.AfterArg(sim.Time(rng.Exp(1e6))+1, fn, nil)
		}
		// Mean delay 1e6 ns at the given depth: n events take n*1e6/depth ns.
		until := sim.Time(float64(n) * 1e6 / float64(depth))
		d := timed(func() { sch.RunUntil(until) })
		return d, int(sch.Processed())
	}
}

// cancelProbe stops and re-arms timers in a heap of 1024 pending ones,
// the receiver feedback-timer pattern.
func cancelProbe(n int) (time.Duration, int) {
	sch := sim.NewScheduler()
	fn := func(any) {}
	timers := make([]sim.Timer, 1024)
	for i := range timers {
		timers[i] = sch.AfterArg(sim.Second+sim.Time(i), fn, nil)
	}
	d := timed(func() {
		for i := 0; i < n; i++ {
			k := i & 1023
			timers[k].Stop()
			timers[k] = sch.AfterArg(sim.Second+sim.Time(i), fn, nil)
		}
	})
	return d, n
}

// burstProbe dispatches same-instant runs of 64 events.
func burstProbe(n int) (time.Duration, int) {
	sch := sim.NewScheduler()
	fn := func(any) {}
	bursts := n/64 + 1
	for b := 0; b < bursts; b++ {
		for i := 0; i < 64; i++ {
			sch.AtArg(sim.Time(b+1)*sim.Millisecond, fn, nil)
		}
	}
	d := timed(sch.Run)
	return d, int(sch.Processed())
}

func schedResetProbe(n int) (time.Duration, int) {
	sch := sim.NewScheduler()
	fn := func(any) {}
	var d time.Duration
	for r := 0; r < n; r++ {
		for i := 0; i < 10000; i++ {
			sch.AfterArg(sim.Time(i+1), fn, nil)
		}
		d += timed(sch.Reset)
	}
	return d, n
}

// --- simnet ------------------------------------------------------------

func discard() simnet.Handler { return simnet.HandlerFunc(func(*simnet.Packet) {}) }

// hopProbe forwards unicast packets over a 4-hop chain of queued links.
func hopProbe(n int) (time.Duration, int) {
	sch := sim.NewScheduler()
	net := simnet.New(sch, sim.NewRand(1))
	nodes := make([]simnet.NodeID, 5)
	for i := range nodes {
		nodes[i] = net.AddNode("n")
		if i > 0 {
			net.AddDuplex(nodes[i-1], nodes[i], 1e9, sim.Millisecond, 1000)
		}
	}
	src, dst := simnet.Addr{Node: nodes[0], Port: 1}, simnet.Addr{Node: nodes[4], Port: 1}
	net.Bind(dst, discard())
	net.Send(&simnet.Packet{Size: 1000, Src: src, Dst: dst}) // untimed: computes the routes
	sch.Run()
	d := timed(func() {
		for sent := 0; sent < n; {
			for b := 0; b < 100 && sent < n; b, sent = b+1, sent+1 {
				pkt := net.AllocPacket()
				pkt.Size, pkt.Src, pkt.Dst = 1000, src, dst
				net.Send(pkt)
			}
			sch.Run()
		}
	})
	return d, n * 4
}

// mcastProbe delivers multicast packets to a star of fanout receivers
// over infinite-speed links whose delays take 41 distinct values, as
// figure 12's jittered tails do; the unit of work is one delivered copy.
// The first packet goes untimed: it pays for the route table and the
// distribution tree.
func mcastProbe(fanout int) func(int) (time.Duration, int) {
	return func(n int) (time.Duration, int) {
		sch := sim.NewScheduler()
		net := simnet.New(sch, sim.NewRand(1))
		src, hub := net.AddNode("src"), net.AddNode("hub")
		net.AddDuplex(src, hub, 0, sim.Millisecond, 0)
		const g = simnet.GroupID(1)
		for i := 0; i < fanout; i++ {
			r := net.AddNode("r")
			net.AddDuplex(hub, r, 0, sim.Time(9+i%41)*sim.Millisecond, 0)
			net.Bind(simnet.Addr{Node: r, Port: 1}, discard())
			net.Join(g, r)
		}
		send := func() {
			pkt := net.AllocPacket()
			pkt.Size, pkt.Src, pkt.Dst = 1000, simnet.Addr{Node: src, Port: 1}, simnet.Addr{Port: 1}
			pkt.Group, pkt.IsMcast = g, true
			net.Send(pkt)
			sch.Run()
		}
		send()
		pkts := n/fanout + 1
		d := timed(func() {
			for i := 0; i < pkts; i++ {
				send()
			}
		})
		return d, pkts * fanout
	}
}

func queueProbe(n int) (time.Duration, int) {
	q := simnet.NewDropTail(64)
	p := &simnet.Packet{Size: 1000}
	d := timed(func() {
		for i := 0; i < n; i++ {
			q.Enqueue(p, 0)
			q.Dequeue(0)
		}
	})
	return d, n
}

// transitStub builds a two-level topology by hand: a ring of 8 transit
// routers, 3 stub routers on each, 4 hosts on each stub (128 nodes).
// It returns the hosts and one transit ring link.
func transitStub(net *simnet.Network) (hosts []simnet.NodeID, ring *simnet.Link) {
	transit := make([]simnet.NodeID, 8)
	for i := range transit {
		transit[i] = net.AddNode("t")
	}
	for i := range transit {
		ab, _ := net.AddDuplex(transit[i], transit[(i+1)%len(transit)], 1e8, 5*sim.Millisecond, 100)
		if i == 0 {
			ring = ab
		}
	}
	for _, t := range transit {
		for s := 0; s < 3; s++ {
			stub := net.AddNode("s")
			net.AddDuplex(t, stub, 1e7, 2*sim.Millisecond, 50)
			for h := 0; h < 4; h++ {
				host := net.AddNode("h")
				net.AddDuplex(stub, host, 1e7, sim.Millisecond, 50)
				hosts = append(hosts, host)
			}
		}
	}
	return hosts, ring
}

// routeProbe takes a transit link down and up again; each change
// invalidates the routes, and the next send recomputes them.
func routeProbe(n int) (time.Duration, int) {
	sch := sim.NewScheduler()
	net := simnet.New(sch, sim.NewRand(1))
	hosts, ring := transitStub(net)
	src := simnet.Addr{Node: hosts[0], Port: 1}
	dst := simnet.Addr{Node: hosts[len(hosts)/4], Port: 1} // reached across the ring link
	net.Bind(dst, discard())
	d := timed(func() {
		for i := 0; i < n; i++ {
			ring.SetDown(i%2 == 0)
			net.Send(&simnet.Packet{Size: 100, Src: src, Dst: dst})
			sch.Run()
		}
	})
	return d, n
}

// joinLeaveProbe toggles one member of a 32-member group; the next
// multicast send re-derives the distribution tree.
func joinLeaveProbe(n int) (time.Duration, int) {
	sch := sim.NewScheduler()
	net := simnet.New(sch, sim.NewRand(1))
	hosts, _ := transitStub(net)
	const g = simnet.GroupID(1)
	for i := 1; i <= 32; i++ {
		net.Bind(simnet.Addr{Node: hosts[i*3%len(hosts)], Port: 1}, discard())
		net.Join(g, hosts[i*3%len(hosts)])
	}
	src, toggled := hosts[0], hosts[3]
	d := timed(func() {
		for i := 0; i < n; i++ {
			if i%2 == 0 {
				net.Leave(g, toggled)
			} else {
				net.Join(g, toggled)
			}
			net.Send(&simnet.Packet{Size: 100, Src: simnet.Addr{Node: src, Port: 1}, Dst: simnet.Addr{Port: 1}, Group: g, IsMcast: true})
			sch.Run()
		}
	})
	return d, n
}

// netResetProbe rewinds a 1000-receiver star and replays its
// construction, the per-run price of arena reuse on large_group.
func netResetProbe(n int) (time.Duration, int) {
	sch := sim.NewScheduler()
	net := simnet.New(sch, sim.NewRand(1))
	net.EnableReuse()
	build := func() {
		hub := net.AddNode("hub")
		for i := 0; i < 1000; i++ {
			r := net.AddNode("r")
			net.AddDuplex(hub, r, 0, sim.Millisecond, 0)
		}
	}
	build()
	d := timed(func() {
		for i := 0; i < n; i++ {
			sch.Reset()
			net.Reset()
			build()
		}
	})
	return d, n
}

// --- tfmcc, lossrate, rtt ----------------------------------------------

// recvProbe feeds in-order data packets of one feedback round straight
// into receivers' Recv, round-robin over r receivers: r=1 keeps the
// receiver state in cache, r=1000 touches a figure-12-sized working set.
func recvProbe(r int) func(int) (time.Duration, int) {
	return func(n int) (time.Duration, int) {
		sch := sim.NewScheduler()
		net := simnet.New(sch, sim.NewRand(1))
		snd := net.AddNode("snd")
		rng := sim.NewRand(2)
		cfg := tfmcc.DefaultConfig()
		rcvs := make([]*tfmcc.Receiver, r)
		for i := range rcvs {
			node := net.AddNode("r")
			net.AddDuplex(snd, node, 0, sim.Millisecond, 0)
			rcvs[i] = tfmcc.NewReceiver(tfmcc.ReceiverID(i), net, node, 1, simnet.Addr{Node: snd, Port: 1}, 1, cfg, rng)
		}
		data := &tfmcc.Data{Rate: 1e5, RoundT: 2 * sim.Second, MaxRTT: 500 * sim.Millisecond,
			CLR: -1, EchoRcvr: -1, SuppressRate: math.Inf(1)}
		pkt := &simnet.Packet{Size: 1000, Payload: data}
		pkts := n/r + 1
		d := timed(func() {
			for seq := 0; seq < pkts; seq++ {
				data.Seq, data.SendTime = int64(seq), sim.Time(seq)*sim.Millisecond
				for _, rc := range rcvs {
					rc.Recv(pkt)
				}
			}
		})
		return d, pkts * r
	}
}

// reportProbe feeds steady-state reports from 1000 receivers into
// Sender.Recv; receiver 0 is the CLR with the lowest rate.
func reportProbe(n int) (time.Duration, int) {
	sch := sim.NewScheduler()
	net := simnet.New(sch, sim.NewRand(1))
	node := net.AddNode("snd")
	snd := tfmcc.NewSender(net, node, 1, 1, tfmcc.DefaultConfig())
	snd.Start()
	rep := &tfmcc.Report{HasRTT: true, RTT: 100 * sim.Millisecond, HasLoss: true, LossRate: 0.01}
	pkt := &simnet.Packet{Size: 40, Payload: rep}
	d := timed(func() {
		for i := 0; i < n; i++ {
			rep.From = tfmcc.ReceiverID(i % 1000)
			rep.Rate = 5e4 + 100*float64(rep.From)
			rep.RecvRate = rep.Rate
			snd.Recv(pkt)
		}
	})
	return d, n
}

// cohortProbe starts a new feedback round on a 10^6-member cohort with
// every packet: the single-draw min-of-N timer and its re-arm.
func cohortProbe(n int) (time.Duration, int) {
	sch := sim.NewScheduler()
	net := simnet.New(sch, sim.NewRand(1))
	snd, node := net.AddNode("snd"), net.AddNode("r")
	net.AddDuplex(snd, node, 0, sim.Millisecond, 0)
	c := tfmcc.NewCohortReceiver(0, net, node, 1, simnet.Addr{Node: snd, Port: 1}, 1, tfmcc.DefaultConfig(), sim.NewRand(2), 1000000)
	data := &tfmcc.Data{Rate: 1e5, RoundT: 2 * sim.Second, MaxRTT: 500 * sim.Millisecond,
		CLR: -1, EchoRcvr: -1, SuppressRate: math.Inf(1)}
	pkt := &simnet.Packet{Size: 1000, Payload: data}
	d := timed(func() {
		for i := 0; i < n; i++ {
			data.Seq, data.Round = int64(i), i
			c.Recv(pkt)
		}
	})
	return d, n
}

func lossPacketProbe(n int) (time.Duration, int) {
	e := lossrate.NewEstimator(lossrate.DefaultWeights)
	d := timed(func() {
		for i := 0; i < n; i++ {
			e.OnPacket()
		}
	})
	sink += float64(e.PacketsSinceLastEvent())
	return d, n
}

// lossEventProbe closes one loss interval per call (every loss is a new
// loss event), as figure 7's estimator loop does.
func lossEventProbe(n int) (time.Duration, int) {
	e := lossrate.NewEstimator(lossrate.DefaultWeights)
	d := timed(func() {
		for i := 0; i < n; i++ {
			e.OnPacket()
			e.OnLoss(sim.Time(i+1)*sim.Second, 50*sim.Millisecond)
		}
	})
	return d, n
}

func lossRateProbe(n int) (time.Duration, int) {
	e := lossrate.NewEstimator(lossrate.DefaultWeights)
	for i := 0; i < 16; i++ {
		for k := 0; k < 50+i; k++ {
			e.OnPacket()
		}
		e.OnLoss(sim.Time(i+1)*sim.Second, 50*sim.Millisecond)
	}
	var acc float64
	d := timed(func() {
		for i := 0; i < n; i++ {
			acc += e.LossEventRate()
		}
	})
	sink += acc
	return d, n
}

func rttProbe(n int) (time.Duration, int) {
	e := rtt.NewEstimator(rtt.DefaultConfig())
	var acc sim.Time
	d := timed(func() {
		for i := 0; i < n; i++ {
			now := sim.Time(i) * sim.Millisecond
			acc += e.Measure(now+80*sim.Millisecond, now, sim.Millisecond, now+40*sim.Millisecond, i&7 == 0)
		}
	})
	sink += float64(acc)
	return d, n
}

// --- feedback, fbtree, tcpmodel, tcpsim, stats ---------------------------

func uniformValues(n int, rng *sim.Rand) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = rng.Float64()
	}
	return vs
}

func feedbackProbe(n int) (time.Duration, int) {
	rng := sim.NewRand(1)
	cfg := feedback.DefaultConfig(sim.Second)
	values := uniformValues(10000, rng)
	d := timed(func() {
		for i := 0; i < n; i++ {
			sink += float64(feedback.SimulateRound(cfg, values, 250*sim.Millisecond, rng).NumSent)
		}
	})
	return d, n
}

func fbtreeProbe(n int) (time.Duration, int) {
	values := uniformValues(10000, sim.NewRand(1))
	d := timed(func() {
		for i := 0; i < n; i++ {
			sink += float64(fbtree.SimulateRound(sim.NewScheduler(), values, 8, 100*sim.Millisecond).RootReports)
		}
	})
	return d, n
}

func tcpmodelProbe(n int) (time.Duration, int) {
	m := tcpmodel.Default()
	var acc float64
	d := timed(func() {
		for i := 0; i < n; i++ {
			acc += m.Throughput(0.001+float64(i&1023)*1e-4, 0.05)
		}
	})
	sink += acc
	return d, n
}

// tcpsimProbe runs one flow over an uncongested two-node link until n
// segments are delivered.
func tcpsimProbe(n int) (time.Duration, int) {
	sch := sim.NewScheduler()
	net := simnet.New(sch, sim.NewRand(1))
	a, b := net.AddNode("a"), net.AddNode("b")
	net.AddDuplex(a, b, 1e8, 5*sim.Millisecond, 10000)
	snd, snk := tcpsim.NewFlow("probe", net, a, b, 1, tcpsim.DefaultConfig())
	snd.Start()
	d := timed(func() {
		for snk.DeliveredPackets < int64(n) {
			sch.RunUntil(sch.Now() + 100*sim.Millisecond)
		}
	})
	return d, int(snk.DeliveredPackets)
}

func meterProbe(n int) (time.Duration, int) {
	m := stats.NewMeter("probe", sim.NewScheduler(), sim.Second)
	d := timed(func() {
		for i := 0; i < n; i++ {
			m.Add(1000)
		}
	})
	sink += float64(m.TotalBytes())
	return d, n
}

// mergeProbe merges 40 runs of 200 points into a CI band.
func mergeProbe(n int) (time.Duration, int) {
	rng := sim.NewRand(1)
	runs := make([][]*stats.Series, 40)
	for i := range runs {
		s := &stats.Series{Name: "x"}
		for t := 0; t < 200; t++ {
			s.Add(sim.Time(t)*sim.Second, rng.Float64())
		}
		runs[i] = []*stats.Series{s}
	}
	d := timed(func() {
		for i := 0; i < n; i++ {
			sink += float64(len(stats.MergeRuns(runs, 0.95)))
		}
	})
	return d, n
}
