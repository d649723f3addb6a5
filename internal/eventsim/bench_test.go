package eventsim

import "testing"

// noopFn is a shared non-capturing callback so the benchmark measures
// scheduler allocation, not closure allocation at the call sites.
func noopFn() {}

// BenchmarkSchedulerHot exercises the scheduler's steady-state hot
// mix at wardrive horizons: per iteration it schedules a SIFS-scale
// event (µs), a dwell-scale event (tens of ms), and a long-horizon
// event (seconds), cancels one pending handle (the awaited-ACK
// tombstone path), and fires two events — so the pending population
// stays bounded and the free list reaches steady state.
//
// CI's bench-smoke step runs this with -benchmem and fails the build
// if allocs/op exceeds schedulerHotAllocBudget: the Event pool keeps
// the hot path allocation-free, and this is the regression tripwire
// for anyone reintroducing a per-event alloc.
func BenchmarkSchedulerHot(b *testing.B) {
	s := NewScheduler()
	rng := NewRNG(0x5EED)
	// Pre-warm the Event pool and the heap's backing slice so the
	// measured loop sees steady state, as a long drive would.
	for i := 0; i < 4096; i++ {
		s.Schedule(s.Now()+Time(1+rng.Intn(int(50*Millisecond))), noopFn)
	}
	for i := 0; i < 4096; i++ {
		s.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(s.Now()+Time(1+rng.Intn(int(Millisecond))), noopFn)
		s.Schedule(s.Now()+Time(1+rng.Intn(int(50*Millisecond))), noopFn)
		h := s.Schedule(s.Now()+2*Second+Time(rng.Intn(int(Second))), noopFn)
		h.Cancel()
		s.Step()
		s.Step()
	}
	b.StopTimer()
	for s.Step() {
	}
}
