package sim

import (
	"fmt"
	"testing"
)

func BenchmarkSchedulerScheduleRun(b *testing.B) {
	b.ReportAllocs()
	s := NewScheduler()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(Millisecond, func() {})
		s.Step()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkSchedulerHold is the hold model of bench/'s sim.probe.hold_ns
// probes: a heap kept at a steady depth, each executed event scheduling
// its successor an exponential delay (mean 1 ms) ahead, drained by
// RunUntil. It puts a layer number on a heap-kernel change without the
// benchmark module.
func BenchmarkSchedulerHold(b *testing.B) {
	for _, depth := range []int{64, 1024, 16384} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			s, rng := NewScheduler(), NewRand(1)
			var fn func(any)
			fn = func(any) { s.AfterArg(Time(rng.Exp(1e6))+1, fn, nil) }
			for i := 0; i < depth; i++ {
				fn(nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			// Mean delay 1e6 ns at this depth: N events take N*1e6/depth ns.
			s.RunUntil(Time(float64(b.N) * 1e6 / float64(depth)))
			b.StopTimer()
			if n := s.Processed(); n > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/event")
			}
		})
	}
}

func BenchmarkSchedulerChurn1k(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		s := NewScheduler()
		for j := 0; j < 1000; j++ {
			j := j
			s.At(Time(j)*Microsecond, func() {
				if j%2 == 0 {
					s.After(Millisecond, func() {})
				}
			})
		}
		s.Run()
		events = s.Processed()
	}
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(float64(events)*float64(b.N)/sec, "events/sec")
	}
}

func BenchmarkTimerCancel(b *testing.B) {
	b.ReportAllocs()
	s := NewScheduler()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := s.After(Second, func() {})
		tm.Stop() // reaps automatically once >50% of the queue is dead
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cancels/sec")
}

func BenchmarkRandGeometric(b *testing.B) {
	r := NewRand(1)
	for i := 0; i < b.N; i++ {
		_ = r.Geometric(0.02)
	}
}

func BenchmarkRandGamma(b *testing.B) {
	r := NewRand(1)
	for i := 0; i < b.N; i++ {
		_ = r.Gamma(8, 1)
	}
}

// BenchmarkCancelHeavyDrain measures the pop path after a burst of
// cancellations — the regression benchmark for reaping on pop. Each
// iteration queues a live horizon plus a slightly-smaller cancelled
// block (below the stopSlot threshold), then drains; without the
// pop-path reap the drain re-pops the dead block across the run.
func BenchmarkCancelHeavyDrain(b *testing.B) {
	const n = 1024
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewScheduler()
		for j := 0; j < n; j++ {
			s.At(Time(j), fn)
		}
		var timers [n - 1]Timer
		for j := range timers {
			timers[j] = s.At(Time(10*n+j), fn)
		}
		for _, tm := range timers {
			tm.Stop()
		}
		s.RunUntil(Time(20 * n))
	}
}
