package tfmcc

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// Sender is the TFMCC multicast sender: it paces data packets at the
// TCP-friendly rate dictated by the current limiting receiver, runs the
// feedback rounds, echoes receiver timestamps for RTT measurement and
// performs slowstart (section 2.6).
type Sender struct {
	cfg   Config
	net   *simnet.Network
	sch   *sim.Scheduler
	addr  simnet.Addr
	group simnet.GroupID

	running bool
	seq     int64
	rate    float64 // current sending rate, bytes/s
	target  float64 // rate the sender is ramping towards

	slowstart    bool
	minRecvRound float64 // minimum receive rate reported this round

	round      int
	roundT     sim.Time
	roundStart sim.Time
	roundTimer sim.Timer

	suppressRate float64
	suppressLoss bool

	maxRTT     sim.Time
	roundRTT   sim.Time // max RTT reported this round
	roundNoRTT bool     // a report without valid RTT arrived this round
	rttWindow  []sim.Time

	clr           ReceiverID
	clrRate       float64
	clrRTT        sim.Time
	lastCLRReport sim.Time

	// clrSilentRounds counts consecutive completed feedback rounds in
	// which the CLR stayed silent. Purely observational (the timeout
	// decision stays time-based, below): it gives the invariant checker
	// the paper's own "silent rounds" unit, which stays meaningful when
	// the low-rate guard stretches a round to tens of seconds and the
	// instantaneous roundT no longer describes the elapsed silence.
	clrSilentRounds int

	echoQ   []echoEntry
	clrEcho echoEntry // last CLR report, echoed when the queue is empty
	reports map[ReceiverID]reportInfo

	rampTimer sim.Timer

	// roundReports counts valid (non-leave, non-discarded) reports received
	// in the current feedback round; a round that ends at zero with no CLR
	// triggers the no-feedback rate halving (Config.HalveOnSilence).
	roundReports int

	// Stats.
	PacketsSent      int64
	ReportsRecv      int64
	CLRChanges       int64
	ReportsDiscarded int64 // stale/malformed reports dropped unprocessed
	SilenceHalvings  int64 // rate halvings from feedback-free rounds

	// Recovery metrics: pure observation counters around CLR loss (a crash,
	// timeout or leave that no surviving report could immediately replace).
	// They consume no randomness and schedule nothing, so enabling nothing —
	// they are always on — changes no run output. Durations are maxima over
	// the run's loss episodes; re-attainment means the rate climbed back to
	// RateReattainFrac of its value at the moment the CLR was lost.
	CLRLosses      int64    // CLR lost with no immediately elected successor
	Reelections    int64    // successors elected after such a loss
	RateRecoveries int64    // losses whose rate re-attained the pre-loss level
	ReelectTime    sim.Time // max loss-to-re-election sim-time
	RateRecovery   sim.Time // max loss-to-rate-re-attainment sim-time

	clrLost     bool     // a loss episode is open (no CLR since clrLostAt)
	recoverWait bool     // re-elected, waiting for rate re-attainment
	clrLostAt   sim.Time // when the open episode began
	lostRate    float64  // sending rate at that moment
}

type echoEntry struct {
	rcvr    ReceiverID
	ts      sim.Time // receiver timestamp to echo
	arrived sim.Time // when the report arrived (for EchoDelay)
	class   int      // echo priority class, lower first (section 2.4.2)
	rate    float64  // tie-break: lowest reported rate first
	valid   bool
}

type reportInfo struct {
	at      sim.Time
	rate    float64 // RTT-adjusted rate
	hasRTT  bool
	rtt     sim.Time
	hasLoss bool
}

// Echo priority classes (section 2.4.2).
const (
	echoClassNewCLR = iota
	echoClassNoRTT
	echoClassOther
	echoClassCLR
)

// staleReportRounds bounds how far behind the sender's round a report may
// claim to be before it is discarded as stale. Healthy receivers lag the
// sender by at most about one round of propagation; four rounds of slack
// tolerates any transient reordering while still rejecting reports held
// captive by a partition.
const staleReportRounds = 4

// senderArenaKey pools senders on reuse-enabled networks, so rewound
// runs recycle the sender struct, its report map and echo queue instead
// of rebuilding them.
const senderArenaKey = "tfmcc.Sender"

// NewSender creates a sender on the given node sending to group. Reports
// are received on addr. On a reuse-enabled network the sender built at
// the same point of a previous run is re-initialised and returned instead
// of allocating a new one.
func NewSender(net *simnet.Network, node simnet.NodeID, port simnet.Port,
	group simnet.GroupID, cfg Config) *Sender {
	s := sim.Pooled[Sender](net.Arena(), senderArenaKey)
	s.init(net, node, port, group, cfg)
	return s
}

// init puts a new or recycled sender into its pre-run state. Only the
// report map, echo queue and RTT window storage carry over, emptied.
func (s *Sender) init(net *simnet.Network, node simnet.NodeID, port simnet.Port,
	group simnet.GroupID, cfg Config) {
	reports := s.reports
	if reports == nil {
		reports = map[ReceiverID]reportInfo{}
	}
	clear(reports)
	*s = Sender{
		cfg:          cfg,
		net:          net,
		sch:          net.SchedFor(node),
		addr:         simnet.Addr{Node: node, Port: port},
		group:        group,
		rate:         InitialRate,
		target:       InitialRate,
		slowstart:    true,
		suppressRate: math.Inf(1),
		maxRTT:       initialRTT,
		clr:          noReceiver,
		reports:      reports,
		minRecvRound: math.Inf(1),
		rttWindow:    s.rttWindow[:0],
		echoQ:        s.echoQ[:0],
	}
	net.Bind(s.addr, s)
}

// Start begins transmission and the feedback round schedule.
func (s *Sender) Start() {
	if s.running {
		return
	}
	s.running = true
	s.roundT = roundDuration(s.maxRTT, s.rate)
	s.advanceRound()
	s.sendLoop()
}

// Stop halts transmission.
func (s *Sender) Stop() { s.running = false }

// Rate returns the current sending rate in bytes/s.
func (s *Sender) Rate() float64 { return s.rate }

// InSlowstart reports whether the sender is still in slowstart.
func (s *Sender) InSlowstart() bool { return s.slowstart }

// CLR returns the current limiting receiver (noReceiver == -1 if none).
func (s *Sender) CLR() ReceiverID { return s.clr }

// Round returns the current feedback round number.
func (s *Sender) Round() int { return s.round }

// MaxRTT returns the sender's view of the maximum receiver RTT.
func (s *Sender) MaxRTT() sim.Time { return s.maxRTT }

// RoundT returns the current feedback round duration.
func (s *Sender) RoundT() sim.Time { return s.roundT }

// RoundStart returns when the current feedback round opened.
func (s *Sender) RoundStart() sim.Time { return s.roundStart }

// CLRSilentRounds returns how many consecutive completed feedback
// rounds passed without a report from the current CLR.
func (s *Sender) CLRSilentRounds() int { return s.clrSilentRounds }

// Running reports whether the sender has been started and not stopped.
func (s *Sender) Running() bool { return s.running }

// InvariantViolation checks the sender's rate against the protocol's
// safety bounds and returns a description of the first violated one, or
// "" when all hold. Outside slowstart the rate must never exceed the
// CLR-authorized target (modulo the MinRate floor); it must always be a
// positive finite number.
func (s *Sender) InvariantViolation() string {
	if !s.running {
		return ""
	}
	r := s.rate
	if math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 {
		return fmt.Sprintf("sender rate %v is not a positive finite number", r)
	}
	if !s.slowstart {
		bound := math.Max(s.target, MinRate)
		if r > bound*(1+rateTolerance) {
			return fmt.Sprintf("sender rate %.1f B/s exceeds authorized bound %.1f B/s (target %.1f, MinRate %.1f)",
				r, bound, s.target, MinRate)
		}
	}
	return ""
}

// rateTolerance absorbs float rounding in rate comparisons.
const rateTolerance = 1e-9

// RateReattainFrac is the fraction of the pre-loss sending rate at which a
// recovery episode counts as re-attained. Full equality would never trigger
// (the equation-based rate keeps drifting); 80% is the recovery criterion
// the hypothesis harness judges against.
const RateReattainFrac = 0.8

// Closure-free scheduler callbacks: one package-level function per event
// kind, with the sender as the argument, so the steady-state send loop
// and round clock never allocate (sim.AfterArg boxes nothing for
// pointers).
func senderSendLoop(a any)     { a.(*Sender).sendLoop() }
func senderAdvanceRound(a any) { a.(*Sender).advanceRound() }
func senderRampTick(a any)     { a.(*Sender).rampTick() }

func (s *Sender) sendLoop() {
	if !s.running {
		return
	}
	s.transmit()
	gap := sim.FromSeconds(float64(PacketSize) / s.rate)
	s.sch.AfterArg(gap, senderSendLoop, s)
}

func (s *Sender) transmit() {
	now := s.sch.Now()
	pkt := s.net.AllocPacket()
	// Recycled packets keep their header box: reusing it makes the
	// steady-state data path allocation-free (see Network.AllocPacket).
	d, ok := pkt.Payload.(*Data)
	if !ok {
		d = new(Data)
		pkt.Payload = d
	}
	*d = Data{
		Seq:          s.seq,
		SendTime:     now,
		Rate:         s.rate,
		Round:        s.round,
		RoundT:       s.roundT,
		MaxRTT:       s.maxRTT,
		Slowstart:    s.slowstart,
		CLR:          s.clr,
		EchoRcvr:     noReceiver,
		SuppressRate: s.suppressRate,
		SuppressLoss: s.suppressLoss,
	}
	if e := s.popEcho(); e.valid {
		d.EchoRcvr = e.rcvr
		d.EchoTS = e.ts
		d.EchoDelay = now - e.arrived
	}
	s.seq++
	s.PacketsSent++
	pkt.Size = PacketSize
	pkt.Src = s.addr
	pkt.Dst = simnet.Addr{Port: s.addr.Port}
	pkt.Group = s.group
	pkt.IsMcast = true
	s.net.Send(pkt)
}

// popEcho picks the highest-priority pending echo, falling back to the
// CLR's last report. The queue is kept sorted with a hand-rolled stable
// insertion sort — identical ordering to the sort.SliceStable it
// replaces, but allocation-free on the per-packet path — and popped by
// copying down so the backing array never drifts.
func (s *Sender) popEcho() echoEntry {
	if len(s.echoQ) == 0 {
		return s.clrEcho
	}
	sortEchoes(s.echoQ)
	e := s.echoQ[0]
	copy(s.echoQ, s.echoQ[1:])
	s.echoQ = s.echoQ[:len(s.echoQ)-1]
	return e
}

func echoLess(a, b echoEntry) bool {
	if a.class != b.class {
		return a.class < b.class
	}
	return a.rate < b.rate
}

// sortEchoes is a stable insertion sort (the queue is capped at 64
// entries and usually nearly sorted already).
func sortEchoes(q []echoEntry) {
	for i := 1; i < len(q); i++ {
		e := q[i]
		j := i
		for j > 0 && echoLess(e, q[j-1]) {
			q[j] = q[j-1]
			j--
		}
		q[j] = e
	}
}

// Recv implements simnet.Handler (binding the sender itself avoids the
// per-run closure a HandlerFunc wrapper would allocate). Reports are
// carried as pooled *Report boxes owned by the packet; everything kept
// past this call is copied.
func (s *Sender) Recv(pkt *simnet.Packet) {
	rp, ok := pkt.Payload.(*Report)
	if !ok || !s.running {
		return
	}
	rep := *rp
	now := s.sch.Now()
	s.ReportsRecv++

	if rep.Leave {
		s.onLeave(rep.From, now)
		return
	}

	// Discard corrupted/stale reports instead of acting on them: a report
	// with a nonsensical rate or sender ID is corruption debris, and one
	// more than staleReportRounds behind the current round (or claiming a
	// future round) was delayed far beyond what healthy transit allows —
	// adopting its rate (or electing its sender CLR) would steer the
	// session by dead state.
	if rep.From < 0 || rep.Rate <= 0 || math.IsNaN(rep.Rate) || math.IsInf(rep.Rate, 0) ||
		rep.Round > s.round || rep.Round < s.round-staleReportRounds {
		s.ReportsDiscarded++
		return
	}
	s.roundReports++

	// Sender-side RTT measurement (section 2.4.4): adjust the reported
	// rate when the receiver is still using the initial RTT.
	adj := rep.Rate
	sampleRTT := rep.RTT
	if !rep.HasRTT {
		measured := now - rep.EchoTS - rep.EchoDelay
		if measured < sim.Millisecond {
			measured = sim.Millisecond
		}
		sampleRTT = measured
		if rep.HasLoss && rep.LossRate > 0 {
			adj = model.Throughput(rep.LossRate, measured.Seconds())
		}
	}

	s.reports[rep.From] = reportInfo{
		at: now, rate: adj, hasRTT: rep.HasRTT, rtt: sampleRTT, hasLoss: rep.HasLoss,
	}
	s.trackRTT(rep, sampleRTT)
	// Suppression compares like with like: receivers judge their own
	// X_calc against the echo, so the echo must carry the rate exactly as
	// reported, not the sender-side RTT-adjusted value.
	s.updateSuppression(rep, rep.Rate)
	s.queueEcho(rep, now, adj)

	if s.slowstart {
		s.slowstartReport(rep, adj, now)
		return
	}
	s.steadyReport(rep, adj, now)
}

func (s *Sender) trackRTT(rep Report, sample sim.Time) {
	if rep.HasRTT {
		if sample > s.roundRTT {
			s.roundRTT = sample
		}
	} else {
		s.roundNoRTT = true
	}
}

func (s *Sender) updateSuppression(rep Report, adj float64) {
	// Echo the lowest rate of the round so receivers can cancel timers.
	// During slowstart, loss reports dominate non-loss reports.
	if s.slowstart && rep.HasLoss && !s.suppressLoss {
		s.suppressRate = adj
		s.suppressLoss = true
		return
	}
	if adj < s.suppressRate && (!s.suppressLoss || rep.HasLoss) {
		s.suppressRate = adj
		s.suppressLoss = rep.HasLoss
	}
}

func (s *Sender) queueEcho(rep Report, now sim.Time, adj float64) {
	e := echoEntry{rcvr: rep.From, ts: rep.Timestamp, arrived: now, rate: adj, valid: true}
	switch {
	case rep.From == s.clr:
		e.class = echoClassCLR
		s.clrEcho = e
		return // the CLR is echoed in all otherwise-unused packets
	case !rep.HasRTT:
		e.class = echoClassNoRTT
	default:
		e.class = echoClassOther
	}
	s.echoQ = append(s.echoQ, e)
	if len(s.echoQ) > 64 {
		s.echoQ = s.echoQ[len(s.echoQ)-64:]
	}
}

func (s *Sender) slowstartReport(rep Report, adj float64, now sim.Time) {
	if rep.HasLoss {
		// First loss terminates slowstart; the reporter becomes CLR.
		s.slowstart = false
		s.setCLR(rep.From, adj, rep.RTT, now)
		if adj < s.rate {
			s.setRate(adj)
		}
		s.target = adj
		return
	}
	if rep.RecvRate > 0 && rep.RecvRate < s.minRecvRound {
		s.minRecvRound = rep.RecvRate
	}
}

func (s *Sender) steadyReport(rep Report, adj float64, now sim.Time) {
	if rep.From == s.clr {
		s.lastCLRReport = now
		s.clrRate = adj
		if rep.HasRTT {
			s.clrRTT = rep.RTT
		}
		if adj < s.rate {
			s.setRate(adj)
			s.target = adj
		} else {
			s.target = adj
			s.ensureRamp()
		}
		return
	}
	// Feedback lower than the current rate: immediate reduction, and the
	// reporter becomes the new CLR (section 2.2). With no CLR at all, any
	// report is adopted; increases then ramp at one packet per RTT.
	if adj < s.rate || s.clr == noReceiver {
		s.setCLR(rep.From, adj, rep.RTT, now)
		if adj < s.rate {
			s.setRate(adj)
			s.target = adj
		} else {
			s.target = adj
			s.ensureRamp()
		}
	}
}

func (s *Sender) setCLR(id ReceiverID, rate float64, rttEst sim.Time, now sim.Time) {
	if s.clrLost {
		// This election closes an open loss episode.
		s.clrLost = false
		s.Reelections++
		if d := now - s.clrLostAt; d > s.ReelectTime {
			s.ReelectTime = d
		}
		s.recoverWait = true
		s.noteReattained(now)
	}
	if s.clr != id {
		s.CLRChanges++
	}
	s.clr = id
	s.clrRate = rate
	if rttEst > 0 {
		s.clrRTT = rttEst
	}
	s.lastCLRReport = now
	// Promote the new CLR's echo to the front of the queue.
	for i := range s.echoQ {
		if s.echoQ[i].rcvr == id {
			s.echoQ[i].class = echoClassNewCLR
		}
	}
}

func (s *Sender) onLeave(id ReceiverID, now sim.Time) {
	delete(s.reports, id)
	if id != s.clr {
		return
	}
	s.clr = noReceiver
	s.clrEcho = echoEntry{}
	lostRate := s.rate
	s.pickBackupCLR(now)
	if id != noReceiver && s.clr == noReceiver && !s.clrLost {
		// No surviving report could replace the CLR: open a loss episode.
		// Its closure (setCLR) and the subsequent rate re-attainment feed
		// the RecoverWithin/CLRReelectedBy hypothesis judging.
		s.clrLost = true
		s.recoverWait = false
		s.clrLostAt = now
		s.lostRate = lostRate
		s.CLRLosses++
	}
}

// pickBackupCLR selects the lowest-rate receiver heard from recently.
// The rate then ramps towards the new CLR's rate at one packet per RTT
// (section 2.2).
func (s *Sender) pickBackupCLR(now sim.Time) {
	best := noReceiver
	bestRate := math.Inf(1)
	var bestRTT sim.Time
	horizon := now - s.roundT.Scale(2*float64(CLRTimeoutRounds))
	for id, info := range s.reports {
		if info.at < horizon {
			continue
		}
		if info.rate < bestRate {
			best, bestRate, bestRTT = id, info.rate, info.rtt
		}
	}
	if best == noReceiver {
		return // no increase without feedback
	}
	s.setCLR(best, bestRate, bestRTT, now)
	if bestRate < s.rate {
		s.setRate(bestRate)
		s.target = bestRate
	} else {
		s.target = bestRate
		s.ensureRamp()
	}
}

func (s *Sender) setRate(r float64) {
	s.rate = max(r, MinRate)
	if s.recoverWait {
		s.noteReattained(s.sch.Now())
	}
}

// noteReattained closes a recovery episode's rate leg once the sending
// rate is back at RateReattainFrac of its pre-loss level.
func (s *Sender) noteReattained(now sim.Time) {
	if !s.recoverWait || s.rate < RateReattainFrac*s.lostRate {
		return
	}
	s.recoverWait = false
	s.RateRecoveries++
	if d := now - s.clrLostAt; d > s.RateRecovery {
		s.RateRecovery = d
	}
}

// ensureRamp arms the additive-increase clock: at most one packet per RTT
// of rate increase towards the target.
func (s *Sender) ensureRamp() {
	if s.rampTimer.Active() {
		return
	}
	rtt := s.rampRTT()
	s.rampTimer = s.sch.AfterArg(rtt, senderRampTick, s)
}

func (s *Sender) rampRTT() sim.Time {
	rtt := s.clrRTT
	if rtt <= 0 {
		rtt = s.maxRTT
	}
	if rtt < sim.Millisecond {
		rtt = sim.Millisecond
	}
	return rtt
}

func (s *Sender) rampTick() {
	if !s.running || s.clr == noReceiver {
		return
	}
	if s.target > s.rate {
		step := float64(PacketSize) / s.rampRTT().Seconds()
		s.setRate(math.Min(s.target, s.rate+step))
	}
	if s.target > s.rate {
		s.rampTimer = s.sch.AfterArg(s.rampRTT(), senderRampTick, s)
	}
}

// advanceRound closes the current feedback round and opens the next
// (section 2.5): apply the slowstart target, age the RTT window, check
// the CLR timeout, reset suppression state.
func (s *Sender) advanceRound() {
	if !s.running {
		return
	}
	now := s.sch.Now()

	if s.slowstart && !math.IsInf(s.minRecvRound, 1) {
		target := SlowstartFactor * s.minRecvRound
		if target > s.rate {
			s.setRate(target)
		}
		s.target = s.rate
	}
	s.minRecvRound = math.Inf(1)

	// Maximum-RTT tracking: while any receiver reports without a valid
	// RTT, stay at the conservative initial value (footnote 7).
	if s.roundNoRTT {
		s.rttWindow = s.rttWindow[:0]
		s.maxRTT = initialRTT
	} else if s.roundRTT > 0 {
		s.rttWindow = append(s.rttWindow, s.roundRTT)
		if len(s.rttWindow) > 4 {
			s.rttWindow = s.rttWindow[1:]
		}
		// Only move off the conservative initial RTT after several
		// consecutive rounds in which every reporter had a valid RTT
		// (footnote 7: the initial RTT governs feedback suppression
		// until the receiver set has measured its RTTs).
		if len(s.rttWindow) >= 4 {
			max := sim.Time(0)
			for _, v := range s.rttWindow {
				if v > max {
					max = v
				}
			}
			s.maxRTT = max
		}
	}
	s.roundRTT = 0
	s.roundNoRTT = false

	// Silent-round accounting for the liveness invariant: the round that
	// just closed counts as silent when no CLR report arrived inside it.
	if s.clr == noReceiver || s.lastCLRReport >= s.roundStart {
		s.clrSilentRounds = 0
	} else {
		s.clrSilentRounds++
	}

	// CLR timeout: assume the CLR left if it has been silent too long.
	if s.clr != noReceiver && s.lastCLRReport > 0 &&
		now-s.lastCLRReport > s.roundT.Scale(float64(CLRTimeoutRounds)) {
		s.onLeave(s.clr, now)
	}

	// No-feedback failure mode (section 5): with the CLR gone, no survivor
	// elected and an entire round without a single valid report, halve the
	// rate — the receiver set may be unreachable, and holding the old rate
	// would flood a healing network. Gated on clr == noReceiver so mere
	// report-path loss with a live CLR never triggers it.
	if s.cfg.HalveOnSilence && !s.slowstart &&
		s.clr == noReceiver && s.roundReports == 0 {
		s.setRate(s.rate / 2)
		s.target = s.rate
		s.SilenceHalvings++
	}
	s.roundReports = 0

	s.round++
	s.roundStart = now
	s.suppressRate = math.Inf(1)
	s.suppressLoss = false
	s.roundT = roundDuration(s.maxRTT, s.rate)
	s.roundTimer = s.sch.AfterArg(s.roundT, senderAdvanceRound, s)
}
