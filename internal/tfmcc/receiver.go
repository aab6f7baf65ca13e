package tfmcc

import (
	"math"

	"repro/internal/feedback"
	"repro/internal/lossrate"
	"repro/internal/rtt"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// Receiver is one TFMCC multicast receiver. It measures loss event rate
// and RTT, computes its TCP-friendly rate and takes part in the biased
// feedback suppression process.
//
// Field order is a performance contract. With a thousand receivers the
// per-packet cost is the cache lines Recv pulls in, so everything an
// in-order data packet reads or writes — scalars first, then the RTT
// estimator, the last-header snapshot and the loss history, all held by
// value — forms one contiguous prefix ending at est. Configuration,
// identity, counters and hooks follow it, and the 8 KB of receive-window
// samples sit at the very end, where add touches one line of them per
// packet. TestReceiverHotPrefix pins the prefix's extent.
type Receiver struct {
	sch   *sim.Scheduler
	id    ReceiverID
	round int

	left      bool
	isCLR     bool
	haveSeq   bool
	fbHasLoss bool

	nextSeq     int64
	lastArrival sim.Time
	clrNextAt   sim.Time
	PacketsRecv int64
	Meter       *stats.Meter // optional throughput meter
	rw          recvWindow

	fbTimer      sim.Timer
	lastSuppress float64
	fbValue      float64 // planned report rate (bytes/s) guarding cancellation

	rtte rtt.Estimator
	last lastHeader
	est  lossrate.Estimator // end of the hot prefix

	// cohort, when non-nil, marks this receiver as the probe standing in
	// for a whole cohort: the feedback draw becomes the minimum of the
	// cohort's timers and the reported loss state is the worst member's
	// (see cohort.go). Nil for explicit receivers — every cohort delta
	// gates on this single check.
	cohort *cohortState

	cfg    Config
	net    *simnet.Network
	rng    *sim.Rand
	addr   simnet.Addr
	sender simnet.Addr
	group  simnet.GroupID

	fbSlowstart bool // the pending feedback's round started in slowstart
	crashed     bool
	leftAt      sim.Time // when the receiver left or crashed (0 = still joined)

	// Appendix A/B bookkeeping: the first loss event was aggregated and
	// initialised using the conservative initial RTT.
	firstLossWithInitRTT bool

	// Stats for the experiments.
	ReportsSent     int64
	SuppressCancels int64
	Losses          int64
	LossEvents      int64
	StaleDiscards   int64 // stale/malformed data packets discarded unprocessed

	samples recvSamples
}

// lastHeader is what the receiver keeps of the newest data header: the
// fields a later feedback timer or report reads back.
type lastHeader struct {
	SendTime sim.Time
	Rate     float64
	RoundT   sim.Time
	CLR      ReceiverID
}

// staleDataRounds bounds how far behind the receiver's current feedback
// round a data packet may lag before it is discarded as stale.
const staleDataRounds = 2

// receiverArenaKey pools receivers on reuse-enabled networks: the
// receiver is by far the heaviest per-scenario allocation (the receive
// window ring alone is 8 KB), so rewound runs take it back from the
// network's arena instead of rebuilding it.
const receiverArenaKey = "tfmcc.Receiver"

// NewReceiver creates a receiver on the given node and joins the group.
// sender is the sender's unicast address for reports. On a reuse-enabled
// network the receiver built at the same point of a previous run is
// re-initialised and returned instead of allocating a new one.
func NewReceiver(id ReceiverID, net *simnet.Network, node simnet.NodeID, port simnet.Port,
	sender simnet.Addr, group simnet.GroupID, cfg Config, rng *sim.Rand) *Receiver {
	r := sim.Pooled[Receiver](net.Arena(), receiverArenaKey)
	r.init(id, net, node, port, sender, group, cfg, rng)
	return r
}

// init puts a new or recycled receiver into its pre-run state field by
// field, reusing the loss/RTT estimator storage and the receive-window
// ring (whose stale contents are unreachable once the cursors are
// zeroed; a whole-struct assignment would clear its 8 KB). Bit-for-bit
// equivalence of recycled and fresh receivers is what keeps rewound
// sweep runs deterministic.
func (r *Receiver) init(id ReceiverID, net *simnet.Network, node simnet.NodeID, port simnet.Port,
	sender simnet.Addr, group simnet.GroupID, cfg Config, rng *sim.Rand) {
	// A fresh receiver (nil net) has no weights to keep yet.
	if r.net != nil && cfg.NumLossIntervals == r.cfg.NumLossIntervals {
		r.est.ResetKeepWeights()
	} else {
		r.est.Reset(lossrate.Weights(cfg.NumLossIntervals))
	}
	r.cfg = cfg
	r.id = id
	r.net = net
	r.sch = net.SchedFor(node)
	r.rng = net.ProtoRandFor(node, rng)
	r.addr = simnet.Addr{Node: node, Port: port}
	r.sender = sender
	r.group = group
	r.rtte.Reset(cfg.RTT)
	r.haveSeq = false
	r.nextSeq = 0
	r.lastArrival = 0
	r.last = lastHeader{}
	r.rw.reset()
	r.round = -1
	r.fbTimer = sim.Timer{}
	r.fbSlowstart = false
	r.fbValue = 0
	r.fbHasLoss = false
	r.isCLR = false
	r.clrNextAt = 0
	r.left = false
	r.crashed = false
	r.leftAt = 0
	r.cohort = nil
	r.firstLossWithInitRTT = false
	r.ReportsSent = 0
	r.SuppressCancels = 0
	r.Losses = 0
	r.LossEvents = 0
	r.PacketsRecv = 0
	r.StaleDiscards = 0
	r.Meter = nil
	r.lastSuppress = 0
	net.Bind(r.addr, r)
	net.Join(group, node)
}

// Members returns how many receivers this endpoint represents: 1 for an
// explicit receiver, the cohort size for a cohort probe.
func (r *Receiver) Members() int {
	if r.cohort != nil {
		return r.cohort.size
	}
	return 1
}

// Stats returns the counter snapshot: per-member counters scaled by
// Members, wire-level counters the endpoint's own (see ReceiverStats).
func (r *Receiver) Stats() ReceiverStats {
	n := int64(r.Members())
	return ReceiverStats{
		ReportsSent:     r.ReportsSent,
		SuppressCancels: r.SuppressCancels,
		Losses:          n * r.Losses,
		LossEvents:      n * r.LossEvents,
		PacketsRecv:     n * r.PacketsRecv,
		StaleDiscards:   n * r.StaleDiscards,
	}
}

// HasValidRTT reports whether the receiver has a real RTT measurement
// (Figure 12's metric).
func (r *Receiver) HasValidRTT() bool { return r.rtte.Valid() }

// LossEventRate returns the loss event rate of the receiver this
// endpoint would offer as CLR candidate: the measured rate for an
// explicit receiver, the spread-inflated worst member's for a cohort
// probe.
func (r *Receiver) LossEventRate() float64 {
	p := r.est.LossEventRate()
	if c := r.cohort; c != nil && c.spread > 0 && p > 0 {
		p *= 1 + c.spread*math.Log2(float64(c.size))
		if p > 1 {
			p = 1
		}
	}
	return p
}

// CalcRate returns X_calc in bytes/s (+Inf before the first loss event),
// computed from the CLR-candidate loss event rate (for a cohort probe:
// the worst member's).
func (r *Receiver) CalcRate() float64 {
	p := r.LossEventRate()
	if p <= 0 {
		return math.Inf(1)
	}
	return r.cfg.Model.Throughput(p, r.rtte.RTT().Seconds())
}

// Crash kills the receiver: it stops processing traffic and leaves the
// multicast group, but — unlike Leave — sends no departure report. The
// sender only discovers the silence through its CLR feedback timeout,
// which is exactly the failure mode the paper's CLR re-election handles.
func (r *Receiver) Crash() {
	if r.left {
		return
	}
	r.left = true
	r.crashed = true
	r.leftAt = r.sch.Now()
	r.cancelTimer()
	r.net.Leave(r.group, r.addr.Node)
}

// Leave announces departure to the sender and leaves the multicast group.
func (r *Receiver) Leave() {
	if r.left {
		return
	}
	r.left = true
	r.leftAt = r.sch.Now()
	r.cancelTimer()
	pkt := r.net.AllocPacket()
	pkt.Size = r.cfg.ReportSize
	pkt.Src = r.addr
	pkt.Dst = r.sender
	*reportBox(pkt) = Report{
		From:      r.id,
		Timestamp: r.sch.Now(),
		Leave:     true,
	}
	r.net.Send(pkt)
	r.net.Leave(r.group, r.addr.Node)
}

// Recv implements simnet.Handler (binding the receiver itself avoids the
// per-run closure a HandlerFunc wrapper would allocate). Data headers are
// pooled *Data boxes owned by the packet: helpers read the box in place,
// and only the fields that outlive this call are copied out (last,
// fbSlowstart) — the box is recycled with the packet.
func (r *Receiver) Recv(pkt *simnet.Packet) {
	d, ok := pkt.Payload.(*Data)
	if !ok || r.left {
		return
	}
	// Discard malformed and badly stale data instead of acting on it. A
	// data packet more than staleDataRounds behind the receiver's round is
	// stale beyond anything in-order delivery or a mid-run delay change can
	// produce (those overtake by at most a fraction of a round) — it is
	// reordering-module debris or corruption, and feeding it into the loss
	// detector or round state would poison the estimators.
	if d.Seq < 0 || d.Rate < 0 || math.IsNaN(d.Rate) ||
		(r.round >= 0 && d.Round < r.round-staleDataRounds) {
		r.StaleDiscards++
		return
	}
	now := r.sch.Now()
	r.PacketsRecv++
	if r.Meter != nil {
		r.Meter.Add(pkt.Size)
	}

	r.detectLosses(d, now)
	r.est.OnPacket()
	r.rw.add(&r.samples, now, pkt.Size)

	wasCLR := r.isCLR
	r.isCLR = d.CLR == r.id
	if !r.isCLR && wasCLR {
		r.clrNextAt = 0
	}

	r.updateRTT(d, now)

	r.haveSeq = true
	r.nextSeq = d.Seq + 1
	r.lastArrival = now
	r.last = lastHeader{SendTime: d.SendTime, Rate: d.Rate, RoundT: d.RoundT, CLR: d.CLR}

	if d.Round != r.round {
		r.round = d.Round
		r.startRound(d, now)
	} else {
		r.maybeSuppress(d)
	}

	if r.isCLR && now >= r.clrNextAt {
		// The CLR reports immediately, unsuppressed, about once per RTT.
		r.sendReport(now)
		r.clrNextAt = now + r.rtte.RTT()
	}
}

// detectLosses turns sequence gaps into loss events, interpolating the
// loss times between the previous and current arrival.
func (r *Receiver) detectLosses(d *Data, now sim.Time) {
	if !r.haveSeq || d.Seq <= r.nextSeq {
		return
	}
	missing := d.Seq - r.nextSeq
	if missing > 1000 {
		missing = 1000 // sanity bound after long partitions
	}
	span := now - r.lastArrival
	for i := int64(0); i < missing; i++ {
		tLost := r.lastArrival + span.Scale(float64(i+1)/float64(missing+1))
		r.Losses++
		first := !r.est.HaveLoss()
		if r.est.OnLoss(tLost, r.rtte.RTT()) {
			r.LossEvents++
			if first {
				r.initLossHistory(d)
			}
		}
	}
}

// initLossHistory implements Appendix B: derive the first loss interval
// from the receive rate when the first loss occurred rather than from the
// packet count so far.
func (r *Receiver) initLossHistory(d *Data) {
	// Appendix B uses the sending rate at which the first loss occurred
	// as the bottleneck indicator; the measured receive rate is only a
	// fallback (it is unreliable when few packets have arrived).
	rate := d.Rate
	if rate <= 0 {
		rate = r.recvRate(d.Rate, r.sch.Now())
	}
	// Slowstart overshoots to at most twice the bottleneck bandwidth, so
	// half the receive rate approximates the fair rate.
	p := r.cfg.Model.SimpleLossRate(rate/2, r.rtte.RTT().Seconds())
	if p <= 0 {
		return
	}
	l0 := int(1/p + 0.5)
	if l0 < 1 {
		l0 = 1
	}
	r.est.InitFirstInterval(l0)
	r.firstLossWithInitRTT = !r.rtte.Valid()
}

func (r *Receiver) updateRTT(d *Data, now sim.Time) {
	if d.EchoRcvr == r.id {
		wasValid := r.rtte.Valid()
		r.rtte.Measure(now, d.EchoTS, d.EchoDelay, d.SendTime, r.isCLR)
		if !wasValid {
			r.onFirstRTTMeasurement(d)
		}
		if r.isCLR {
			r.rtte.DiscardOneWay()
		}
		return
	}
	if r.rtte.Valid() {
		r.rtte.AdjustOneWay(now, d.SendTime)
	}
}

// onFirstRTTMeasurement applies the Appendix A/B corrections: loss events
// aggregated with the too-high initial RTT are split, and the synthetic
// first loss interval is rescaled by (R/R_init)².
func (r *Receiver) onFirstRTTMeasurement(*Data) {
	if !r.est.HaveLoss() {
		return
	}
	r.est.Reaggregate(r.rtte.RTT())
	if r.firstLossWithInitRTT {
		ratio := float64(r.rtte.RTT()) / float64(r.cfg.RTT.InitialRTT)
		r.est.AdjustInitInterval(ratio * ratio)
	}
}

// window returns the averaging window for receive-rate measurement at the
// sender's current rate: a
// few RTTs, but always enough to span several packets — at very low
// sending rates a short window quantises the measured rate so coarsely
// that feedback suppression cannot match values across receivers.
func (r *Receiver) window(sendRate float64) sim.Time {
	w := r.rtte.RTT().Scale(4)
	if sendRate > 0 {
		minW := sim.FromSeconds(8 * float64(r.cfg.PacketSize) / sendRate)
		w = sim.MaxOf(w, minW)
	}
	return w
}

// recvRate returns the receive rate in bytes/s over the averaging window
// for the given sending rate.
func (r *Receiver) recvRate(sendRate float64, now sim.Time) float64 {
	return r.rw.rate(&r.samples, r.window(sendRate), now)
}

// startRound resets suppression state and draws a biased feedback timer
// when this receiver has something to report (section 2.5.1).
func (r *Receiver) startRound(d *Data, now sim.Time) {
	r.cancelTimer()
	r.lastSuppress = math.Inf(1)
	if r.isCLR {
		return // the CLR reports outside the suppression process
	}

	var value, x float64
	var hasLoss bool
	if d.Slowstart {
		// During slowstart every receiver reports its receive rate (the
		// sender needs the round's minimum to set the target); the first
		// lossy receiver reports X_calc and terminates slowstart.
		if r.est.HaveLoss() {
			value, hasLoss = r.CalcRate(), true
		} else {
			recv := r.recvRate(d.Rate, now)
			if recv <= 0 || d.Rate <= 0 {
				return
			}
			value = recv
		}
		x = clamp01(value / d.Rate)
	} else {
		xc := r.CalcRate()
		noCLR := d.CLR == noReceiver
		if !noCLR && (math.IsInf(xc, 1) || xc >= d.Rate) {
			return // feedback only when the calculated rate is lower
		}
		// With no CLR the sender cannot increase without feedback, so
		// every receiver becomes eligible; lossless receivers report
		// their receive rate as a safe upper bound.
		if math.IsInf(xc, 1) {
			recv := r.recvRate(d.Rate, now)
			if recv <= 0 {
				return
			}
			value = recv
		} else {
			value, hasLoss = xc, true
		}
		x = clamp01(value / d.Rate)
	}

	fb := r.roundConfig(d.RoundT)
	delay := fb.Delay(x, r.feedbackDraw())
	if c := r.cohort; c != nil {
		c.accrueExpectedFeedback(fb, r.rtte.RTT())
	}
	r.fbValue = value
	r.fbHasLoss = hasLoss
	r.fbSlowstart = d.Slowstart
	r.fbTimer = r.sch.AfterArg(delay, receiverFireFeedback, r)
}

// feedbackDraw returns the uniform variate for this round's suppression
// timer. An explicit receiver draws once from the run RNG; a cohort
// probe transforms that same single draw by the minimum-of-N-uniforms
// map u -> 1-(1-u)^(1/N). Delay is monotone increasing in u, so the
// result is distributed exactly as the minimum of N independent member
// timers while consuming one RNG value either way — the draw sequence
// shape (and with it cross-run determinism) is preserved.
func (r *Receiver) feedbackDraw() float64 {
	u := r.rng.Float64()
	if c := r.cohort; c != nil && c.size > 1 {
		u = 1 - math.Pow(1-u, 1/float64(c.size))
	}
	return u
}

// receiverFireFeedback is the feedback timer's closure-free callback:
// what it needs of the round-start header rides in r.fbSlowstart instead
// of a per-round closure capture.
func receiverFireFeedback(a any) { a.(*Receiver).fireFeedback() }

func (r *Receiver) roundConfig(roundT sim.Time) feedback.Config {
	return feedback.Config{
		T:     roundT,
		N:     r.cfg.FeedbackN,
		Delta: r.cfg.FeedbackDelta,
		Eps:   r.cfg.FeedbackEps,
		Bias:  r.cfg.FeedbackBias,
	}
}

// maybeSuppress applies the ε-cancellation rule when the sender echoes a
// lower report (section 2.5.2). During slowstart, a loss report can only
// be suppressed by another loss report; conversely a receive-rate report
// is moot once any loss has been echoed (slowstart is ending).
func (r *Receiver) maybeSuppress(d *Data) {
	if !r.fbTimer.Active() {
		return
	}
	if math.IsInf(d.SuppressRate, 1) {
		return
	}
	if r.fbHasLoss && !d.SuppressLoss {
		return
	}
	if !r.fbHasLoss && d.SuppressLoss {
		r.SuppressCancels++
		r.cancelTimer()
		return
	}
	if d.SuppressRate < r.lastSuppress {
		r.lastSuppress = d.SuppressRate
	}
	// Compare against the value the report would carry *now*, not the one
	// planned at round start: receive rates drift as the sending rate
	// moves, and a stale low value must not defeat suppression.
	if v := r.currentValue(d.Rate); v > 0 && !math.IsInf(v, 1) {
		r.fbValue = v
	}
	if r.roundConfig(d.RoundT).Cancel(r.fbValue, r.lastSuppress) {
		r.SuppressCancels++
		r.cancelTimer()
	}
}

// currentValue returns the rate a report sent right now, at the given
// sending rate, would carry.
func (r *Receiver) currentValue(sendRate float64) float64 {
	if r.est.HaveLoss() {
		return r.CalcRate()
	}
	return r.recvRate(sendRate, r.sch.Now())
}

func (r *Receiver) fireFeedback() {
	// Re-check eligibility: the sending rate may have dropped below our
	// calculated rate since the timer was set. (Not applicable during
	// slowstart or when the sender has no CLR and is soliciting.)
	if !r.fbSlowstart && r.last.CLR != noReceiver {
		xc := r.CalcRate()
		if math.IsInf(xc, 1) || xc >= r.last.Rate {
			return
		}
	}
	// Re-check suppression with the value the report will actually carry.
	if !math.IsInf(r.lastSuppress, 1) {
		v := r.currentValue(r.last.Rate)
		if v > 0 && !math.IsInf(v, 1) &&
			r.roundConfig(r.last.RoundT).Cancel(v, r.lastSuppress) {
			r.SuppressCancels++
			return
		}
	}
	r.sendReport(r.sch.Now())
}

func (r *Receiver) sendReport(now sim.Time) {
	rate := r.fbValue
	if r.est.HaveLoss() {
		rate = r.CalcRate()
	} else if recv := r.recvRate(r.last.Rate, now); recv > 0 {
		rate = recv
	}
	if rate <= 0 || math.IsInf(rate, 1) {
		return
	}
	r.ReportsSent++
	pkt := r.net.AllocPacket()
	pkt.Size = r.cfg.ReportSize
	pkt.Src = r.addr
	pkt.Dst = r.sender
	*reportBox(pkt) = Report{
		From:      r.id,
		Timestamp: now,
		EchoTS:    r.last.SendTime,
		EchoDelay: now - r.lastArrival,
		Rate:      rate,
		RecvRate:  r.recvRate(r.last.Rate, now),
		HasRTT:    r.rtte.Valid(),
		RTT:       r.rtte.RTT(),
		LossRate:  r.LossEventRate(),
		HasLoss:   r.est.HaveLoss(),
		Round:     r.round,
	}
	r.net.Send(pkt)
}

// reportBox returns the packet's pooled Report header, allocating one
// only the first time a recycled packet carries a report (recycled
// packets keep their header box; see Network.AllocPacket).
func reportBox(pkt *simnet.Packet) *Report {
	rp, ok := pkt.Payload.(*Report)
	if !ok {
		rp = new(Report)
		pkt.Payload = rp
	}
	return rp
}

func (r *Receiver) cancelTimer() {
	r.fbTimer.Stop()
	r.fbTimer = sim.Timer{}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// recvWindow measures receive rate over a sliding time window. Samples
// live in a fixed ring so the per-packet add never allocates; pruning
// keeps the same samples the old slice version kept (drop the oldest 256
// once 512 is exceeded). The cursors and the ring are separate types so a
// Receiver can keep the cursors among its hot fields and the ring out of
// their way.
type recvWindow struct {
	head  int // index of the oldest sample
	n     int
	total int64
}

// recvSamples is a recvWindow's ring, time and size of one arrival side
// by side so add writes a single cache line.
type recvSamples [recvWindowCap]struct {
	t sim.Time
	b int
}

// recvWindowCap is the ring size: the pruning rule never lets more than
// 513 samples live, and the ring is most of a receiver's memory, so it is
// sized to that rule rather than to the next power of two (indices wrap by
// compare, not by mask).
const recvWindowCap = 520

// slot returns the ring index of the i-th oldest sample, 0 <= i <= n.
func (w *recvWindow) slot(i int) int {
	j := w.head + i
	if j >= recvWindowCap {
		j -= recvWindowCap
	}
	return j
}

// reset empties the window. The ring keeps its contents — with n == 0
// nothing can read them — so rewinding costs three stores instead of an
// 8 KB clear.
func (w *recvWindow) reset() { w.head, w.n, w.total = 0, 0, 0 }

func (w *recvWindow) add(s *recvSamples, now sim.Time, bytes int) {
	e := &s[w.slot(w.n)]
	e.t, e.b = now, bytes
	w.n++
	w.total += int64(bytes)
	// Amortised pruning: keep at most ~512 samples.
	if w.n > 512 {
		w.head = w.slot(256)
		w.n -= 256
	}
}

// rate returns bytes/second received over the trailing window.
func (w *recvWindow) rate(s *recvSamples, window, now sim.Time) float64 {
	if window <= 0 || w.n == 0 {
		return 0
	}
	cut := now - window
	var bytes int64
	for i := w.n - 1; i >= 0; i-- {
		e := &s[w.slot(i)]
		if e.t < cut {
			break
		}
		bytes += int64(e.b)
	}
	return float64(bytes) / window.Seconds()
}
