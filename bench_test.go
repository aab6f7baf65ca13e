// Package repro's root benchmarks regenerate every figure of the TFMCC
// paper and the scenario presets. Run with:
//
//	go test -bench=. -benchmem
//
// Each registry sub-benchmark executes the full scenario behind its
// entry once per iteration and logs the headline numbers via b.Log. The
// session benchmarks live with their fixture in internal/experiments.
package repro

import (
	"testing"

	"repro/internal/experiments"
)

// BenchmarkRegistry runs every registry entry, the paper's figures and
// the scenario presets alike, as one sub-benchmark named by its id
// (-bench 'Registry/^12$' selects figure 12). One context serves all
// iterations of an entry: after the first (cold) run, each iteration
// rewinds the cached scenario arena instead of rebuilding.
func BenchmarkRegistry(b *testing.B) {
	for _, e := range experiments.Entries() {
		b.Run(e.ID, func(b *testing.B) {
			b.ReportAllocs()
			ctx := experiments.NewRunCtx()
			var res *experiments.Result
			for i := 0; i < b.N; i++ {
				r, err := experiments.RunWith(ctx, e.ID, 1)
				if err != nil {
					b.Fatal(err)
				}
				res = r
			}
			if res != nil {
				b.Log(res.Summary())
			}
		})
	}
}
