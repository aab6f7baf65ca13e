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

// BenchmarkSchedulerRearm is figure 9's RTO shape on the hold model:
// the heap held at depth 64, plus 16 long timers of which one is pushed
// back 200 ms with RearmArg every 4th event, so none of them fires. It
// reports ns per executed (hold) event.
func BenchmarkSchedulerRearm(b *testing.B) {
	const depth, long = 64, 16
	s, rng := NewScheduler(), NewRand(1)
	var rto [long]Timer
	nop := func(any) {}
	events := 0
	var fn func(any)
	fn = func(any) {
		s.AfterArg(Time(rng.Exp(1e6))+1, fn, nil)
		if events++; events%4 == 0 {
			i := events / 4 % long
			rto[i] = s.RearmArg(rto[i], 200*Millisecond, nop, nil)
		}
	}
	for i := 0; i < depth; i++ {
		fn(nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.RunUntil(Time(float64(b.N) * 1e6 / depth))
	b.StopTimer()
	if n := s.Processed(); n > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/event")
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

// BenchmarkRandGeometric draws figure 7's loss gaps: ln(1−p) once, then
// one uniform and one logarithm per draw.
func BenchmarkRandGeometric(b *testing.B) {
	r := NewRand(1)
	lnq := GeometricParam(0.02)
	for i := 0; i < b.N; i++ {
		_ = r.Geometric(lnq)
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
