package sim

// Arena pools allocation-heavy protocol objects across repeated runs of
// any scenario. Constructors call Pooled to get the object built at the
// same point of the previous runs (the same key, the same position in
// construction order), or a new one it records, and initialise it in
// place. Rewind starts a new run: every pooled object becomes available
// again in construction order.
//
// Objects are keyed so unrelated constructors never receive each other's
// state; within a key, hand-out order is construction order, which keeps
// rewound runs deterministic. An arena is single-goroutine, like the
// scenario it backs.
type Arena struct {
	pools map[string]*arenaPool
}

type arenaPool struct {
	objs []any
	next int
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{pools: map[string]*arenaPool{}} }

// Rewind makes every pooled object available again, in the order it was
// first recorded. Call it at the start of each rerun.
func (a *Arena) Rewind() {
	for _, p := range a.pools {
		p.next = 0
	}
}

// Take returns the next pooled object for key, or nil when this run has
// already consumed everything the previous runs built. The caller owns
// rewinding the object's state before use.
func (a *Arena) Take(key string) any {
	p := a.pools[key]
	if p == nil || p.next >= len(p.objs) {
		return nil
	}
	x := p.objs[p.next]
	p.next++
	return x
}

// Pooled is the take-or-allocate step shared by every pooled constructor:
// it returns the object handed out at the same point of a previous run,
// or a new zero one that it records. Either way the caller runs the
// type's one initialiser on it, so a recycled object and a fresh one go
// through the same code. A nil arena (reuse disabled) always allocates.
func Pooled[T any](a *Arena, key string) *T {
	if a == nil {
		return new(T)
	}
	if old := a.Take(key); old != nil {
		return old.(*T)
	}
	x := new(T)
	a.Put(key, x)
	return x
}

// Put records a freshly built object so later runs can reuse it.
func (a *Arena) Put(key string, x any) {
	p := a.pools[key]
	if p == nil {
		p = &arenaPool{}
		a.pools[key] = p
	}
	p.objs = append(p.objs, x)
	p.next = len(p.objs)
}
