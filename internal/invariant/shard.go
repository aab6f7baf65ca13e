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
}

// RegisterShardPredicates registers the conservative-execution invariant
// of a sharded run, shard-skew: no shard clock ever lags the control
// clock. Shards run ahead of control within a lookahead window; a shard
// *behind* the control clock could be handed an event in its past, which
// is exactly the unsoundness conservative synchronization exists to rule
// out.
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
}
