package invariant

import (
	"fmt"

	"repro/internal/sim"
)

// ShardState exposes a sharded (region) engine run to the
// cross-shard predicates. The checker ticks on the control scheduler
// while shards are quiesced, so all reads here are race-free.
type ShardState interface {
	// ControlNow is the control scheduler's clock.
	ControlNow() sim.Time
	// ShardClocks returns each shard scheduler's clock.
	ShardClocks() []sim.Time
	// HandoffCounts returns cross-region handoffs pushed by source shards
	// and handoffs drained into destination shards so far.
	HandoffCounts() (sent, recv uint64)
}

// RegisterShardPredicates registers the conservative-execution
// invariants of a sharded run:
//
//   - shard-skew: no shard clock ever lags the control clock. Shards run
//     ahead of control within a lookahead window; a shard *behind* the
//     control clock could be handed an event in its past, which is
//     exactly the unsoundness conservative synchronization exists to
//     rule out.
//   - handoff-conservation: handoffs drained into destinations never
//     exceed handoffs pushed by sources (packets cannot materialise in
//     an inbound ring). The end-of-run equality — nothing still parked
//     in an outbox — is pinned by the engine's tests and bench/.
func RegisterShardPredicates(c *Checker, s ShardState) {
	c.Register("shard-skew", func() string {
		ctl := s.ControlNow()
		for i, t := range s.ShardClocks() {
			if t < ctl {
				return fmt.Sprintf("shard %d clock %v lags control clock %v", i, t, ctl)
			}
		}
		return ""
	})
	c.Register("handoff-conservation", func() string {
		sent, recv := s.HandoffCounts()
		if recv > sent {
			return fmt.Sprintf("drained %d handoffs but only %d were sent", recv, sent)
		}
		return ""
	})
}
