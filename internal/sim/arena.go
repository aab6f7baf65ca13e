package sim

import "reflect"

// Arena pools allocation-heavy protocol objects across repeated runs of
// any scenario. Constructors call Pooled to get the object built at the
// same point of the previous runs (the same type, the same position in
// construction order), or a new one it records, and initialise it in
// place. Rewind starts a new run: every pooled object becomes available
// again in construction order.
//
// Objects are pooled by type, so unrelated constructors never receive
// each other's state; within a type, hand-out order is construction
// order, which keeps rewound runs deterministic. An arena is
// single-goroutine, like the scenario it backs.
type Arena struct {
	pools map[reflect.Type]*arenaPool
}

type arenaPool struct {
	objs []any
	next int
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{pools: map[reflect.Type]*arenaPool{}} }

// Rewind makes every pooled object available again, in the order it was
// first recorded. Call it at the start of each rerun.
func (a *Arena) Rewind() {
	for _, p := range a.pools {
		p.next = 0
	}
}

// Pooled is the take-or-allocate step shared by every pooled constructor:
// it returns the *T handed out at the same point of a previous run, or a
// new zero one that it records. Either way the caller runs the type's
// one initialiser on it, so a recycled object and a fresh one go through
// the same code.
func Pooled[T any](a *Arena) *T {
	key := reflect.TypeFor[T]()
	p := a.pools[key]
	if p == nil {
		p = &arenaPool{}
		a.pools[key] = p
	}
	if p.next == len(p.objs) {
		p.objs = append(p.objs, new(T))
	}
	p.next++
	return p.objs[p.next-1].(*T)
}
