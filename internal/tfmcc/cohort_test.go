package tfmcc

import (
	"slices"
	"testing"

	"repro/internal/lossrate"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tcpmodel"
)

// cohortBottleneck builds sender -- r1 ==bw== r2 -- leaf with one
// receiver standing for a cohort of the given size on the leaf as the
// session's receiver 0, runs it for dur and returns the session.
func cohortBottleneck(size int, dur sim.Time, seed int64) (*Session, *Receiver) {
	sch := sim.NewScheduler()
	net := simnet.New(sch, sim.NewRand(seed))
	snd := net.AddNode("sender")
	r1 := net.AddNode("r1")
	r2 := net.AddNode("r2")
	leaf := net.AddNode("leaf")
	net.AddDuplex(snd, r1, 0, sim.Millisecond, 0)
	net.AddDuplex(r1, r2, 125000, 20*sim.Millisecond, 30)
	net.AddDuplex(r2, leaf, 0, sim.Millisecond, 0)
	sess := NewSession(net, snd, 1, 100, DefaultConfig(), sim.NewRand(seed+1))
	c := NewCohortReceiver(0, net, leaf, sess.Port, sess.Sender.addr, sess.Group, DefaultConfig(), sess.rng, size)
	sess.Receivers = append(sess.Receivers, c)
	sess.Start()
	sch.RunUntil(dur)
	return sess, c
}

func TestCohortBecomesCLR(t *testing.T) {
	sess, c := cohortBottleneck(256, 40*sim.Second, 3)
	if !c.isCLR {
		t.Fatalf("sole cohort should be CLR, sender has %d", sess.Sender.CLR())
	}
	if n := sess.ValidRTTCount(); n != 1 {
		t.Fatalf("ValidRTTCount=%d, want 1 (the cohort's one receiver)", n)
	}
	if v := sess.CLRInvariant(); v != "" {
		t.Fatalf("CLR invariant violated: %s", v)
	}
}

// recycleRun builds the bare receiver rig on net — an explicit receiver
// when size is 0, else a cohort receiver of that size — plays rounds of
// data with one loss per round, no CLR and no slowstart (so every round
// draws a feedback timer, and a round outlasts its 2 s timer), and
// returns the receiver and the reports it sent.
func recycleRun(t *testing.T, sch *sim.Scheduler, net *simnet.Network, size, rounds int) (*Receiver, []Report) {
	snd := net.AddNode("snd")
	rn := net.AddNode("rcv")
	net.AddDuplex(snd, rn, 0, sim.Millisecond, 0)
	var reports []Report
	senderAddr := simnet.Addr{Node: snd, Port: 100}
	net.Bind(senderAddr, simnet.HandlerFunc(func(p *simnet.Packet) {
		reports = append(reports, *p.Payload.(*Report))
	}))
	var r *Receiver
	if size == 0 {
		r = NewReceiver(0, net, rn, 100, senderAddr, 1, DefaultConfig(), sim.NewRand(2))
	} else {
		r = NewCohortReceiver(0, net, rn, 100, senderAddr, 1, DefaultConfig(), sim.NewRand(2), size)
	}
	seq := int64(0)
	for round := 1; round <= rounds; round++ {
		for i := 0; i < 10; i++ {
			if seq++; i == 5 {
				continue
			}
			d := baseData(seq, sch.Now())
			d.Round = round
			net.Send(&simnet.Packet{Size: 1000, Src: simnet.Addr{Node: snd, Port: 100},
				Dst: simnet.Addr{Port: 100}, Group: 1, IsMcast: true, Payload: &d})
			sch.RunUntil(sch.Now() + 250*sim.Millisecond)
		}
	}
	return r, reports
}

// TestRecycledReceiverForgetsItsKind: a pooled receiver slot that changes
// kind between runs — cohort receiver, then explicit receiver, then
// cohort again — carries nothing of its previous life. Each run must
// match a never-pooled receiver of the same kind fed the same packets.
func TestRecycledReceiverForgetsItsKind(t *testing.T) {
	sch := sim.NewScheduler()
	net := simnet.New(sch, sim.NewRand(1))
	var first *Receiver
	for run, size := range []int{256, 0, 256} {
		if run > 0 {
			sch.Reset()
			net.Reset()
		}
		r, got := recycleRun(t, sch, net, size, 8)
		if run == 0 {
			first = r
		} else if r != first {
			t.Fatalf("run %d: the receiver was not recycled", run)
		}
		fsch := sim.NewScheduler()
		fresh, want := recycleRun(t, fsch, simnet.New(fsch, sim.NewRand(1)), size, 8)
		if len(want) == 0 {
			t.Fatalf("run %d: the reference receiver sent no reports", run)
		}
		if !slices.Equal(got, want) {
			t.Errorf("run %d: recycled receiver's reports differ from a never-pooled one's\n got %v\nwant %v", run, got, want)
		}
		if r.Stats() != fresh.Stats() || r.timers != fresh.timers || r.LossEventRate() != fresh.LossEventRate() {
			t.Errorf("run %d: recycled stats/timers/loss rate %+v/%d/%v, fresh %+v/%d/%v", run,
				r.Stats(), r.timers, r.LossEventRate(), fresh.Stats(), fresh.timers, fresh.LossEventRate())
		}
		if want := max(size, 1); r.timers != want {
			t.Errorf("run %d: the receiver stands for %d timers, want %d", run, r.timers, want)
		}
	}
}

// TestCohortAllocBudget pins the O(1) memory contract: a session whose
// receiver stands for a million timers must allocate within 2x of one
// standing for a thousand (identical topology, identical run length).
func TestCohortAllocBudget(t *testing.T) {
	run := func(size int) func() {
		return func() { cohortBottleneck(size, 2*sim.Second, 1) }
	}
	small := testing.AllocsPerRun(3, run(1_000))
	large := testing.AllocsPerRun(3, run(1_000_000))
	if large > 2*small {
		t.Fatalf("1e6-member cohort allocates %.0f/run vs %.0f for 1e3 — not O(1) in membership", large, small)
	}
}

// TestRecycledSessionMatchesFresh: a pooled session rebuilt on a rewound
// network — with HalveOnSilence off, on, then off again — takes each
// run's choice and behaves as a never-pooled session built with it. A
// run never writes the package values every session reads: parallel
// sweep workers share them.
func TestRecycledSessionMatchesFresh(t *testing.T) {
	runs := []Config{{}, {HalveOnSilence: true}, {}}
	star := func(sch *sim.Scheduler, net *simnet.Network, cfg Config) *Session {
		snd := net.AddNode("sender")
		hub := net.AddNode("hub")
		net.AddDuplex(snd, hub, 125000, 20*sim.Millisecond, 30)
		sess := NewSession(net, snd, 1, 100, cfg, sim.NewRand(2))
		for i := 0; i < 4; i++ {
			leaf := net.AddNode("leaf")
			down, _ := net.AddDuplex(hub, leaf, 0, sim.Time(5+10*i)*sim.Millisecond, 0)
			down.LossProb = 0.02
			sess.AddReceiver(leaf)
		}
		sess.Start()
		sch.RunUntil(20 * sim.Second)
		return sess
	}

	sch, rng := sim.NewScheduler(), sim.NewRand(1)
	net := simnet.New(sch, rng)
	var first *Session
	for run, cfg := range runs {
		if run > 0 {
			sch.Reset()
			rng.Reseed(1)
			net.Reset()
		}
		sess := star(sch, net, cfg)
		if run == 0 {
			first = sess
		} else if sess != first {
			t.Fatalf("run %d: the session was not recycled", run)
		}
		if sess.Sender.cfg != cfg {
			t.Errorf("run %d: sender runs %+v, want %+v", run, sess.Sender.cfg, cfg)
		}

		fsch := sim.NewScheduler()
		fresh := star(fsch, simnet.New(fsch, sim.NewRand(1)), cfg)
		for i, r := range sess.Receivers {
			f := fresh.Receivers[i]
			if r.Stats() != f.Stats() || r.LossEventRate() != f.LossEventRate() || r.CalcRate() != f.CalcRate() {
				t.Errorf("run %d receiver %d: recycled %+v p=%v X=%v, fresh %+v p=%v X=%v", run, i,
					r.Stats(), r.LossEventRate(), r.CalcRate(), f.Stats(), f.LossEventRate(), f.CalcRate())
			}
		}
	}
	if !slices.Equal(lossWeights, lossrate.Weights(8)) {
		t.Errorf("loss weights are %v after the runs, want %v", lossWeights, lossrate.Weights(8))
	}
	if model != tcpmodel.Default() {
		t.Errorf("TCP model is %+v after the runs, want %+v", model, tcpmodel.Default())
	}
}
