package eventsim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.Schedule(30, func() { got = append(got, 3) })
	s.Schedule(10, func() { got = append(got, 1) })
	s.Schedule(20, func() { got = append(got, 2) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30 {
		t.Fatalf("Now() = %v, want 30", s.Now())
	}
}

func TestSchedulerStableTies(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(100, func() { got = append(got, i) })
	}
	s.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("tie order = %v, want insertion order", got)
		}
	}
}

func TestSchedulePastClamps(t *testing.T) {
	s := NewScheduler()
	s.Schedule(100, func() {
		s.Schedule(50, func() {
			if s.Now() != 100 {
				t.Errorf("past event ran at %v, want 100", s.Now())
			}
		})
	})
	s.Run()
}

func TestAfter(t *testing.T) {
	s := NewScheduler()
	fired := Time(-1)
	s.Schedule(40, func() {
		s.After(5, func() { fired = s.Now() })
	})
	s.Run()
	if fired != 45 {
		t.Fatalf("After fired at %v, want 45", fired)
	}
}

func TestCancel(t *testing.T) {
	s := NewScheduler()
	ran := false
	e := s.Schedule(10, func() { ran = true })
	e.Cancel()
	if !e.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
	s.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	// Double-cancel and zero-Handle cancel must not panic.
	e.Cancel()
	var zero Handle
	zero.Cancel()
	if zero.Valid() || zero.Cancelled() {
		t.Fatal("zero Handle reports Valid or Cancelled")
	}
}

func TestRunUntil(t *testing.T) {
	s := NewScheduler()
	var count int
	s.Every(10, func() { count++ })
	if err := s.RunUntil(95); err != nil {
		t.Fatal(err)
	}
	if count != 9 {
		t.Fatalf("ticks = %d, want 9", count)
	}
	if s.Now() != 95 {
		t.Fatalf("Now() = %v, want 95 (clock advances to deadline)", s.Now())
	}
	// Event exactly at the deadline fires.
	s.Schedule(100, func() { count = 100 })
	s.RunUntil(100)
	if count != 100 {
		t.Fatalf("event at deadline did not fire")
	}
}

func TestRunFor(t *testing.T) {
	s := NewScheduler()
	s.RunFor(50)
	s.RunFor(50)
	if s.Now() != 100 {
		t.Fatalf("Now() = %v, want 100", s.Now())
	}
}

func TestTickerStop(t *testing.T) {
	s := NewScheduler()
	var count int
	var tk *Ticker
	tk = s.Every(10, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	s.RunUntil(1000)
	if count != 3 {
		t.Fatalf("ticks after Stop = %d, want 3", count)
	}
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) did not panic")
		}
	}()
	NewScheduler().Every(0, func() {})
}

func TestStop(t *testing.T) {
	s := NewScheduler()
	var count int
	s.Every(10, func() {
		count++
		if count == 2 {
			s.Stop()
		}
	})
	if err := s.RunUntil(1000); err != ErrStopped {
		t.Fatalf("RunUntil err = %v, want ErrStopped", err)
	}
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

func TestFiredCounter(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 7; i++ {
		s.Schedule(Time(i), func() {})
	}
	s.Run()
	if s.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", s.Fired())
	}
}

func TestStepEmpty(t *testing.T) {
	s := NewScheduler()
	if s.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestTimeConversions(t *testing.T) {
	if Duration(1500*time.Microsecond) != 1500*Microsecond {
		t.Fatal("Duration conversion wrong")
	}
	if (2 * Second).Std() != 2*time.Second {
		t.Fatal("Std conversion wrong")
	}
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Fatalf("Seconds() = %v, want 1.5", got)
	}
	if got := (25 * Microsecond).Micros(); got != 25 {
		t.Fatalf("Micros() = %v, want 25", got)
	}
	if got := (1234567 * Microsecond).String(); got != "1.234567s" {
		t.Fatalf("String() = %q", got)
	}
}

// Property: however a batch of events is scheduled, they execute in
// nondecreasing time order and the clock never runs backwards.
func TestEventOrderProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		s := NewScheduler()
		var times []Time
		for _, off := range offsets {
			at := Time(off)
			s.Schedule(at, func() { times = append(times, s.Now()) })
		}
		s.Run()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(offsets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: two schedulers fed the same schedule fire identically.
func TestDeterminismProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		run := func() []Time {
			s := NewScheduler()
			var times []Time
			for _, off := range offsets {
				s.Schedule(Time(off), func() { times = append(times, s.Now()) })
			}
			s.Run()
			return times
		}
		a, b := run(), run()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerRandomizedOrder drives the scheduler with a randomized
// schedule/cancel workload — same-instant ties, sub-µs through 2^40 ns
// delays, delays past the run deadline, and cancels of pending and
// already-fired events — and checks the firing sequence against an
// independent reference: every scheduled, uncancelled event sorted by
// (time, scheduling order).
func TestSchedulerRandomizedOrder(t *testing.T) {
	type ev struct {
		at        Time
		cancelled bool
		fired     bool
	}
	const deadline = Time(2 << 43)
	for trial := 0; trial < 50; trial++ {
		s := NewScheduler()
		src := rand.New(rand.NewSource(int64(trial)*7919 + 1))
		var evs []ev
		var handles []Handle
		var fired []int
		var step func()
		step = func() {
			// Each firing randomly schedules more work, cancels
			// something, or does nothing — the mix a wardrive stop
			// produces.
			for k := src.Intn(4); k > 0 && len(evs) < 4000; k-- {
				var d Time
				switch src.Intn(6) {
				case 0: // same-instant tie
					d = 0
				case 1: // sub-µs
					d = Time(src.Intn(1024))
				case 2: // SIFS/slot scale
					d = Time(src.Intn(1 << 18))
				case 3: // beacon scale
					d = Time(src.Intn(1 << 30))
				case 4: // long horizon
					d = Time(src.Intn(1 << 40))
				default: // may land past the deadline
					d = Time(1<<42 + src.Intn(1<<43))
				}
				id := len(evs)
				evs = append(evs, ev{at: s.Now() + d})
				handles = append(handles, s.After(d, func() {
					evs[id].fired = true
					fired = append(fired, id)
					step()
				}))
			}
			if len(handles) > 0 && src.Intn(3) == 0 {
				id := src.Intn(len(handles))
				handles[id].Cancel()
				if !evs[id].fired {
					evs[id].cancelled = true
				}
			}
		}
		step()
		step()
		check := func(stage string, horizon Time) {
			t.Helper()
			var want []int
			for id, e := range evs {
				if !e.cancelled && e.at <= horizon {
					want = append(want, id)
				}
			}
			sort.SliceStable(want, func(i, j int) bool { return evs[want[i]].at < evs[want[j]].at })
			if len(fired) != len(want) {
				t.Fatalf("trial %d %s: fired %d events, reference %d", trial, stage, len(fired), len(want))
			}
			for i := range want {
				if fired[i] != want[i] {
					t.Fatalf("trial %d %s: firing order diverges at %d: got event %d, reference %d",
						trial, stage, i, fired[i], want[i])
				}
			}
		}
		if err := s.RunUntil(deadline); err != nil {
			t.Fatal(err)
		}
		if s.Now() != deadline {
			t.Fatalf("trial %d: Now() = %v after RunUntil, want %v", trial, s.Now(), deadline)
		}
		check("RunUntil", deadline)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		check("Run", Time(1<<62))
		if s.Len() != 0 {
			t.Fatalf("trial %d: %d events left after Run", trial, s.Len())
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGCoin(t *testing.T) {
	g := NewRNG(1)
	if g.Coin(0) {
		t.Fatal("Coin(0) = true")
	}
	if !g.Coin(1) {
		t.Fatal("Coin(1) = false")
	}
	heads := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if g.Coin(0.3) {
			heads++
		}
	}
	frac := float64(heads) / n
	if frac < 0.27 || frac > 0.33 {
		t.Fatalf("Coin(0.3) frequency = %v", frac)
	}
}

func TestRNGUniform(t *testing.T) {
	g := NewRNG(7)
	for i := 0; i < 1000; i++ {
		v := g.Uniform(5, 10)
		if v < 5 || v >= 10 {
			t.Fatalf("Uniform(5,10) = %v out of range", v)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	g := NewRNG(11)
	const n = 20000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := g.Normal(3, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if mean < 2.9 || mean > 3.1 {
		t.Fatalf("mean = %v, want ~3", mean)
	}
	if variance < 3.6 || variance > 4.4 {
		t.Fatalf("variance = %v, want ~4", variance)
	}
}

func TestRNGFork(t *testing.T) {
	g := NewRNG(5)
	f1 := g.Fork()
	g2 := NewRNG(5)
	f2 := g2.Fork()
	for i := 0; i < 50; i++ {
		if f1.Float64() != f2.Float64() {
			t.Fatal("forked streams not reproducible")
		}
	}
}

func TestHighWater(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 5; i++ {
		s.Schedule(Time(i), func() {})
	}
	if s.HighWater() != 5 {
		t.Fatalf("HighWater = %d, want 5", s.HighWater())
	}
	s.Run()
	// Draining must not lower the mark.
	if s.HighWater() != 5 {
		t.Fatalf("HighWater after drain = %d, want 5", s.HighWater())
	}
	// The mark tracks the worst depth, including nested scheduling.
	s.Schedule(s.Now()+1, func() {
		for i := 0; i < 10; i++ {
			s.After(Time(i+1), func() {})
		}
	})
	s.Run()
	if s.HighWater() != 10 {
		t.Fatalf("HighWater after nested burst = %d, want 10", s.HighWater())
	}
}

func TestFiredByOrigin(t *testing.T) {
	s := NewScheduler()
	rx := s.Origin("radio.rx")
	if again := s.Origin("radio.rx"); again != rx {
		t.Fatalf("Origin not interned: %d vs %d", rx, again)
	}
	tx := s.Origin("radio.tx")
	s.ScheduleTagged(rx, 10, func() {})
	s.ScheduleTagged(rx, 20, func() {})
	s.AfterTagged(tx, 30, func() {})
	s.Schedule(40, func() {}) // untagged
	s.Run()
	got := s.FiredByOrigin()
	want := map[string]uint64{"radio.rx": 2, "radio.tx": 1, "untagged": 1}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("FiredByOrigin[%s] = %d, want %d (all: %v)", k, got[k], v, got)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("FiredByOrigin = %v, want exactly %v", got, want)
	}
}

func TestObservedNow(t *testing.T) {
	s := NewScheduler()
	if s.ObservedNow() != 0 {
		t.Fatalf("ObservedNow at start = %v", s.ObservedNow())
	}
	var during Time
	s.Schedule(25, func() { during = s.ObservedNow() })
	s.Run()
	if during != 25 {
		t.Fatalf("ObservedNow inside event = %v, want 25", during)
	}
	// RunUntil past the last event advances the mirror to the deadline.
	s.RunUntil(100)
	if s.ObservedNow() != 100 {
		t.Fatalf("ObservedNow after RunUntil = %v, want 100", s.ObservedNow())
	}
}

func TestFireObserver(t *testing.T) {
	s := NewScheduler()
	rx := s.Origin("radio.rx")
	type obs struct {
		origin string
		wall   time.Duration
	}
	var seen []obs
	s.SetFireObserver(func(origin string, wall time.Duration) {
		seen = append(seen, obs{origin, wall})
	}, true)
	s.ScheduleTagged(rx, 10, func() { time.Sleep(time.Millisecond) }) //politevet:allow wallclock(test burns wall time so the measuring observer has something to measure)
	s.Schedule(20, func() {})
	s.Run()
	if len(seen) != 2 {
		t.Fatalf("observer saw %d events, want 2", len(seen))
	}
	if seen[0].origin != "radio.rx" || seen[1].origin != "untagged" {
		t.Fatalf("origins = %v", seen)
	}
	if seen[0].wall < time.Millisecond/2 {
		t.Fatalf("measured wall time %v, want ≥0.5ms", seen[0].wall)
	}
	// measureWall=false reports zero durations; nil uninstalls.
	seen = nil
	s.SetFireObserver(func(origin string, wall time.Duration) {
		seen = append(seen, obs{origin, wall})
	}, false)
	s.Schedule(30, func() { time.Sleep(time.Millisecond) }) //politevet:allow wallclock(non-measuring observer path must still execute a slow callback)
	s.Run()
	if len(seen) != 1 || seen[0].wall != 0 {
		t.Fatalf("non-measuring observer saw %v", seen)
	}
	s.SetFireObserver(nil, false)
	seen = nil
	s.Schedule(40, func() {})
	s.Run()
	if len(seen) != 0 {
		t.Fatal("uninstalled observer still fired")
	}
}

func TestNestedScheduling(t *testing.T) {
	// An event chain where each event schedules the next simulates the
	// MAC's DIFS/SIFS chains; depth must not be limited.
	s := NewScheduler()
	depth := 0
	var next func()
	next = func() {
		depth++
		if depth < 1000 {
			s.After(1, next)
		}
	}
	s.After(1, next)
	s.Run()
	if depth != 1000 {
		t.Fatalf("depth = %d, want 1000", depth)
	}
	if s.Now() != 1000 {
		t.Fatalf("Now() = %v, want 1000", s.Now())
	}
}
