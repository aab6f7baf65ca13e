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
// analytic cohort of the given size on the leaf, runs it for dur and
// returns the session.
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
	c := sess.AddCohort(leaf, size)
	sess.Start()
	sch.RunUntil(dur)
	return sess, c
}

func TestCohortMemberAccounting(t *testing.T) {
	sch := sim.NewScheduler()
	net := simnet.New(sch, sim.NewRand(1))
	snd := net.AddNode("sender")
	hub := net.AddNode("hub")
	net.AddDuplex(snd, hub, 0, sim.Millisecond, 0)
	sess := NewSession(net, snd, 1, 100, DefaultConfig(), sim.NewRand(2))

	a := net.AddNode("a")
	net.AddDuplex(hub, a, 0, sim.Millisecond, 0)
	r := sess.AddReceiver(a)
	if r.id != 0 || r.Members() != 1 {
		t.Fatalf("explicit receiver: id=%d members=%d, want 0/1", r.id, r.Members())
	}
	b := net.AddNode("b")
	net.AddDuplex(hub, b, 0, sim.Millisecond, 0)
	c := sess.AddCohort(b, 64)
	if c.id != 1 || c.Members() != 64 {
		t.Fatalf("cohort: id=%d members=%d, want 1/64", c.id, c.Members())
	}
	// The cohort occupies one id per member, so the next endpoint's id
	// lands past the whole block and MemberCount sums members.
	d := net.AddNode("d")
	net.AddDuplex(hub, d, 0, sim.Millisecond, 0)
	r2 := sess.AddReceiver(d)
	if r2.id != 65 {
		t.Fatalf("receiver after cohort: id=%d, want 65", r2.id)
	}
	if got := sess.MemberCount(); got != 66 {
		t.Fatalf("MemberCount=%d, want 66", got)
	}
}

func TestCohortStatsScaleWithMembership(t *testing.T) {
	_, c := cohortBottleneck(64, 20*sim.Second, 1)
	st := c.Stats()
	if st.PacketsRecv == 0 {
		t.Fatal("cohort received no packets")
	}
	if st.PacketsRecv != 64*c.PacketsRecv {
		t.Fatalf("PacketsRecv=%d, want 64x endpoint count %d", st.PacketsRecv, c.PacketsRecv)
	}
	// Wire-level stats stay endpoint-true: the cohort sends one
	// endpoint's worth of reports, not 64.
	if st.ReportsSent != c.ReportsSent {
		t.Fatalf("ReportsSent=%d, want endpoint-true %d", st.ReportsSent, c.ReportsSent)
	}
}

func TestCohortBecomesCLR(t *testing.T) {
	sess, c := cohortBottleneck(256, 40*sim.Second, 3)
	if !c.isCLR {
		t.Fatalf("sole cohort should be CLR, sender has %d", sess.Sender.CLR())
	}
	if n := sess.ValidRTTCount(); n != 256 {
		t.Fatalf("ValidRTTCount=%d, want 256 (cohort members)", n)
	}
	if v := sess.CLRInvariant(); v != "" {
		t.Fatalf("CLR invariant violated: %s", v)
	}
}

func TestCohortExpectedFeedbackAccrues(t *testing.T) {
	for _, n := range []int{16, 64} {
		_, c := cohortBottleneck(n, 30*sim.Second, 4)
		em, rounds := c.ExpectedReportsPerRound()
		if rounds == 0 {
			t.Fatalf("n=%d: no feedback rounds accrued", n)
		}
		// Per round at least the first timer to fire reports, and at most
		// every member does.
		if em < 1 || em > float64(n) {
			t.Errorf("n=%d: E[M] per round = %.2f, want in [1, %d]", n, em, n)
		}
	}
}

// recycleRun builds the bare receiver rig on net — an explicit receiver
// when size is 0, else a cohort probe of that size with loss spread 0.1
// — plays rounds of data with one loss per round, no CLR and no
// slowstart (so every round draws a feedback timer, and a round outlasts
// its 2 s timer), and returns the receiver and the reports it sent.
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
		r.SetLossSpread(0.1)
		if _, n := r.ExpectedReportsPerRound(); n != 0 {
			t.Fatalf("a new cohort starts with %d accrued rounds", n)
		}
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
// kind between runs — cohort probe, then explicit receiver, then cohort
// again — carries nothing of its previous life. Each run must match a
// never-pooled receiver of the same kind fed the same packets.
func TestRecycledReceiverForgetsItsKind(t *testing.T) {
	sch := sim.NewScheduler()
	net := simnet.New(sch, sim.NewRand(1))
	net.EnableReuse()
	var first *Receiver
	for run, size := range []int{256, 0, 256} {
		if run > 0 {
			sch.Reset()
			if !net.Reset() {
				t.Fatal("network did not rewind")
			}
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
		if r.Stats() != fresh.Stats() || r.Members() != fresh.Members() || r.LossEventRate() != fresh.LossEventRate() {
			t.Errorf("run %d: recycled stats/members/loss rate %+v/%d/%v, fresh %+v/%d/%v", run,
				r.Stats(), r.Members(), r.LossEventRate(), fresh.Stats(), fresh.Members(), fresh.LossEventRate())
		}
		em, rounds := r.ExpectedReportsPerRound()
		if fem, frounds := fresh.ExpectedReportsPerRound(); em != fem || rounds != frounds {
			t.Errorf("run %d: recycled E[M] %v over %d rounds, fresh %v over %d", run, em, rounds, fem, frounds)
		}
		if size == 0 {
			if r.Members() != 1 || r.LossEventRate() != r.est.LossEventRate() || em != 0 || rounds != 0 {
				t.Errorf("explicit run: members %d, loss rate %v (estimator %v), E[M] (%v, %d); want 1, the estimator's, (0, 0)",
					r.Members(), r.LossEventRate(), r.est.LossEventRate(), em, rounds)
			}
			if st := r.Stats(); st.PacketsRecv != r.PacketsRecv || st.Losses != r.Losses || st.LossEvents != r.LossEvents {
				t.Errorf("explicit run: stats %+v scaled", st)
			}
		} else if rounds == 0 || r.Stats().PacketsRecv != 256*r.PacketsRecv {
			t.Errorf("cohort run %d: %d rounds accrued, stats %+v; want rounds and scaled counters", run, rounds, r.Stats())
		}
	}
}

// TestCohortAllocBudget pins the O(1) memory contract: a
// million-member cohort session must allocate within 2x of a
// thousand-member one (identical topology, identical run length).
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

// TestCohortLossSpreadRaisesRate: a positive loss spread models member
// heterogeneity as a higher aggregate loss-event rate, so the reported
// rate must drop relative to a spread-free cohort on the same path.
func TestCohortLossSpreadRaisesRate(t *testing.T) {
	sch := sim.NewScheduler()
	net := simnet.New(sch, sim.NewRand(1))
	snd := net.AddNode("sender")
	hub := net.AddNode("hub")
	leaf := net.AddNode("leaf")
	net.AddDuplex(snd, hub, 0, sim.Millisecond, 0)
	down, _ := net.AddDuplex(hub, leaf, 0, 10*sim.Millisecond, 0)
	down.LossProb = 0.02
	sess := NewSession(net, snd, 1, 100, DefaultConfig(), sim.NewRand(2))
	c := sess.AddCohort(leaf, 256)
	c.SetLossSpread(0.1)
	sess.Start()
	sch.RunUntil(30 * sim.Second)
	base := c.est.LossEventRate()
	seen := c.LossEventRate()
	if base <= 0 {
		t.Fatal("no loss events measured on a 2% lossy path")
	}
	if seen <= base {
		t.Fatalf("spread did not raise the aggregate loss-event rate: base=%.4f seen=%.4f", base, seen)
	}
	if seen > 1 {
		t.Fatalf("aggregate loss-event rate %.4f exceeds 1", seen)
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
	net.EnableReuse()
	var first *Session
	for run, cfg := range runs {
		if run > 0 {
			sch.Reset()
			rng.Reseed(1)
			if !net.Reset() {
				t.Fatal("network did not rewind")
			}
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
