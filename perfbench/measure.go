package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// processCPU returns this process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeCounters reads the cumulative heap allocation and GC cycle
// counters from runtime/metrics.
func runtimeCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// usage is a snapshot of the process counters a timed region is
// charged with.
type usage struct {
	wall   time.Time
	cpu    time.Duration
	alloc  uint64
	cycles uint64
}

func readUsage() usage {
	alloc, cycles := runtimeCounters()
	return usage{wall: time.Now(), cpu: processCPU(), alloc: alloc, cycles: cycles}
}

// delta is the usage accumulated over a timed region.
type delta struct {
	wall, cpu     time.Duration
	alloc, cycles uint64
}

// since returns the usage accumulated between u and now.
func (u usage) since() delta {
	now := readUsage()
	return delta{
		wall:   now.wall.Sub(u.wall),
		cpu:    now.cpu - u.cpu,
		alloc:  now.alloc - u.alloc,
		cycles: now.cycles - u.cycles,
	}
}

func (d *delta) add(o delta) {
	d.wall += o.wall
	d.cpu += o.cpu
	d.alloc += o.alloc
	d.cycles += o.cycles
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEndValues turns a finished session into the end-to-end
// metrics. Per-job CPU and allocation are the timed work's totals
// divided by its jobs, which also holds when jobs overlap.
func endToEndValues(s *session) map[string]float64 {
	n := float64(len(s.walls))
	return map[string]float64{
		"setup_s":    median(s.setups),
		"wall_s":     median(s.walls),
		"cpu_s":      s.work.cpu.Seconds() / n,
		"alloc_mb":   float64(s.work.alloc) / 1e6 / n,
		"jobs_per_s": n / s.work.wall.Seconds(),
	}
}

// jobSeed is the input seed of a workload's i-th job or set-up: each
// drives a different city, so a run's figures average over cities, and
// runs with nearby seeds share none.
func jobSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// session is the untraced part of a run: the workload is set up again
// before every unit of timed work, so its set-ups, like its jobs, are
// sampled across the whole run rather than in the first second or two
// of it, when one slow patch of a shared host would move them all.
type session struct {
	setups []float64 // seconds of each set-up
	walls  []float64 // seconds of each job
	work   delta     // usage summed over the timed work, set-ups excluded
}

// runSession spends budget seconds in rounds. A round sets the
// workload up setupsPerRound times, then runs one unit of timed work,
// which returns the wall seconds of each job it ran. Another round
// starts only if it is predicted, at the last round's pace, to finish
// in time; at least one round always runs. setup receives the index of
// the set-up within the run, so that the set-ups of one run can warm
// up on different cities and setup_s does not hang on one city's size.
func runSession(budget float64, setupsPerRound int, setup func(k int) error, work func() []float64) (*session, error) {
	s := &session{}
	dl := newDeadline(budget)
	for dl.more() {
		round := time.Now()
		for k := 0; k < setupsPerRound; k++ {
			t := time.Now()
			if err := setup(len(s.setups)); err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			s.setups = append(s.setups, time.Since(t).Seconds())
		}
		before := readUsage()
		walls := work()
		s.work.add(before.since())
		s.walls = append(s.walls, walls...)
		dl.done(time.Since(round))
	}
	return s, nil
}

// profiled runs fn, the traced job, with the CPU profile on, adds the
// profile's ledger rows to values and returns the usage fn accumulated.
func profiled(values map[string]float64, fn func()) (delta, error) {
	start := readUsage()
	prof, err := startProfile()
	if err != nil {
		return delta{}, err
	}
	fn()
	if err := prof.stop(values); err != nil {
		return delta{}, err
	}
	return start.since(), nil
}

// deadline tells a timed loop whether to start another round or job:
// at least one always runs, and another starts only if it is predicted
// to finish, at the last one's pace, before the loop's time is up.
type deadline struct {
	start time.Time
	limit time.Duration
	last  time.Duration
	count int
}

func newDeadline(seconds float64) *deadline {
	return &deadline{start: time.Now(), limit: time.Duration(seconds * float64(time.Second))}
}

func (d *deadline) more() bool {
	return d.count == 0 || time.Since(d.start)+d.last <= d.limit
}

func (d *deadline) done(took time.Duration) {
	d.count++
	d.last = took
}
