// Package invariant implements a run-level invariant checker for the
// simulation: named read-only predicates sampled on a scheduler ticker,
// producing structured violations instead of panics. Predicates must not
// mutate simulation state or consume randomness. Enabling the checker
// then changes nothing about a run except the processed-event count
// (which callers can correct for via Ticks), on either engine: on the
// region engine its ticks clip windows, but a crossing send is scheduled
// when it is sent, so no event waits for a barrier whose place a tick
// could move (TestGoldenLedger's checked pass).
package invariant

import (
	"fmt"

	"repro/internal/sim"
)

// DefaultInterval is the sampling period when New is given zero.
const DefaultInterval = 100 * sim.Millisecond

// maxViolations bounds the stored violation list; further ones only
// increment Dropped so a persistently broken invariant cannot eat the
// heap of a long run.
const maxViolations = 64

// Violation is one observed invariant breach.
type Violation struct {
	At    sim.Time // simulation time of the sampling tick
	Name  string   // the registered predicate (or built-in check) name
	Msg   string   // predicate's description of what is wrong
	Count int      // consecutive ticks this exact breach persisted
}

func (v Violation) String() string {
	s := fmt.Sprintf("[%v] %s: %s", v.At, v.Name, v.Msg)
	if v.Count > 1 {
		s += fmt.Sprintf(" (persisted %d ticks)", v.Count)
	}
	return s
}

// Predicate inspects simulation state and returns "" when the invariant
// holds, or a description of the breach. Predicates run on every
// sampling tick and must be cheap, read-only and RNG-free.
type Predicate func() string

// Checker samples registered predicates on a scheduler ticker.
type Checker struct {
	sch      *sim.Scheduler
	interval sim.Time

	names []string
	preds []Predicate
	last  []string // previous tick's message per predicate, for dedup

	violations []Violation
	dropped    int64
	ticks      uint64
	lastNow    sim.Time
	active     bool
}

// New returns a checker ticking every interval (DefaultInterval if <= 0).
func New(sch *sim.Scheduler, interval sim.Time) *Checker {
	if interval <= 0 {
		interval = DefaultInterval
	}
	return &Checker{sch: sch, interval: interval}
}

// Register adds a named predicate. Registration order is evaluation
// order.
func (c *Checker) Register(name string, p Predicate) {
	c.names = append(c.names, name)
	c.preds = append(c.preds, p)
	c.last = append(c.last, "")
}

// Start arms the sampling ticker (idempotent). The first tick fires one
// interval from now; scheduler monotonicity is checked on every tick
// regardless of registered predicates.
func (c *Checker) Start() {
	if c.active {
		return
	}
	c.active = true
	c.lastNow = c.sch.Now()
	c.sch.AfterArg(c.interval, checkerTick, c)
}

// Stop disarms the ticker; the pending tick becomes a no-op.
func (c *Checker) Stop() { c.active = false }

// Reset returns the checker to its post-New state: predicates,
// violations and counters cleared, ticker stopped. Rewound runs
// re-register their predicates against the new run's objects.
func (c *Checker) Reset() {
	c.names = c.names[:0]
	c.preds = c.preds[:0]
	c.last = c.last[:0]
	c.violations = c.violations[:0]
	c.dropped = 0
	c.ticks = 0
	c.lastNow = 0
	c.active = false
}

// Ticks returns how many sampling ticks have run. Each tick is one
// scheduler event; deterministic event accounting subtracts this.
func (c *Checker) Ticks() uint64 { return c.ticks }

// Violations returns the recorded breaches (capped; see Dropped).
func (c *Checker) Violations() []Violation { return c.violations }

// Dropped returns how many breaches were discarded after the cap.
func (c *Checker) Dropped() int64 { return c.dropped }

// checkerTick is the package-level scheduler callback (closure-free; see
// sim.AfterArg).
func checkerTick(a any) { a.(*Checker).tick() }

func (c *Checker) tick() {
	if !c.active {
		return
	}
	now := c.sch.Now()
	c.ticks++
	if now < c.lastNow {
		c.record(now, "sched-monotonic",
			fmt.Sprintf("scheduler time ran backwards: %v after %v", now, c.lastNow))
	}
	c.lastNow = now
	for i, p := range c.preds {
		msg := p()
		if msg != "" && msg != c.last[i] {
			c.record(now, c.names[i], msg)
		} else if msg != "" {
			// Same breach as last tick: bump its count instead of
			// flooding the list.
			for j := len(c.violations) - 1; j >= 0; j-- {
				if c.violations[j].Name == c.names[i] && c.violations[j].Msg == msg {
					c.violations[j].Count++
					break
				}
			}
		}
		c.last[i] = msg
	}
	c.sch.AfterArg(c.interval, checkerTick, c)
}

func (c *Checker) record(now sim.Time, name, msg string) {
	if len(c.violations) >= maxViolations {
		c.dropped++
		return
	}
	c.violations = append(c.violations, Violation{At: now, Name: name, Msg: msg, Count: 1})
}
