// Package eventsim provides a deterministic discrete-event simulation
// kernel: a nanosecond-resolution virtual clock, a stable-ordered event
// scheduler, and a seeded random number source.
//
// Random sources are minted in three sanctioned ways only: NewRNG from
// an explicit seed, (*RNG).Fork from a parent's stream, and a Scope,
// which does either on a pooled source that it reclaims when its unit
// of work (a wardrive stop) ends.
//
// Every stochastic or time-dependent component in this repository
// (the RF medium, MAC state machines, power accounting, mobility)
// is driven from a single Scheduler so that experiments are exactly
// reproducible from a seed.
//
// # Queue structure
//
// Pending events live in one binary min-heap ordered by (time,
// sequence). Events with equal timestamps fire in scheduling order
// (FIFO tie-break via the sequence number). Push and pop are O(log n),
// and n stays small: a full-scale wardrive stop never holds more than
// a few dozen pending events, so each operation is a handful of
// comparisons on a slice that stays in cache.
//
// # Event pooling and cancellation semantics
//
// Event structs are recycled through a scheduler-owned free list, so
// steady-state schedule/fire/reschedule cycles allocate nothing.
// Schedule and friends therefore return a value-type Handle rather
// than a raw event pointer. Cancellation is an O(1) tombstone:
// Handle.Cancel marks the event dead in place and the queue is never
// restructured. Dead events are discarded — and their structs
// recycled — only when they surface at the head of the queue. A
// Handle is invalidated the moment its event fires or its tombstone
// is collected (a generation counter detects recycled structs), so
// holding a Handle past its event's lifetime is always safe:
// Cancel on a stale or zero Handle is a no-op and can never kill an
// unrelated, recycled event.
package eventsim

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"
)

// Time is a point in simulated time, measured in nanoseconds since the
// start of the simulation. It is deliberately distinct from time.Time:
// simulations never consult the wall clock.
type Time int64

// Common durations in simulation units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Duration converts a standard library duration to simulation time.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Std converts simulation time to a standard library duration.
func (t Time) Std() time.Duration { return time.Duration(t) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String renders the time with microsecond precision, e.g. "1.234567s".
func (t Time) String() string {
	return fmt.Sprintf("%.6fs", t.Seconds())
}

// Event is a scheduled callback. Events compare by time, then by
// insertion sequence, so two events scheduled for the same instant run
// in the order they were scheduled. This stability is what makes the
// simulation deterministic.
//
// Event structs are pooled: once an event fires (or its cancellation
// tombstone is collected) the struct returns to the scheduler's free
// list and may be reused for a later event. External code never holds
// a *Event — it holds a Handle, whose generation check makes stale
// references inert.
type Event struct {
	at     Time
	seq    uint64
	fn     func()
	dead   bool
	gen    uint32
	origin Origin
	next   *Event // free-list link
}

// Handle refers to a scheduled event. The zero Handle refers to
// nothing; all methods on it are safe no-ops. Handles are values —
// copy them freely.
type Handle struct {
	e   *Event
	gen uint32
}

// Valid reports whether the handle still refers to a pending or
// pending-cancelled event. It turns false once the event fires or its
// tombstone is collected.
func (h Handle) Valid() bool { return h.e != nil && h.e.gen == h.gen }

// Cancel prevents a pending event from firing: an O(1) tombstone that
// is collected when the event surfaces at the head of the queue.
// Cancelling an event that already fired, was already cancelled, or a
// zero Handle is a no-op.
func (h Handle) Cancel() {
	if h.e != nil && h.e.gen == h.gen {
		h.e.dead = true
	}
}

// Cancelled reports whether the handle's event is tombstoned but not
// yet collected. Once the event fires or the tombstone is collected
// the handle is simply no longer Valid and Cancelled reports false.
func (h Handle) Cancelled() bool { return h.e != nil && h.e.gen == h.gen && h.e.dead }

// evHeap is a hand-rolled binary min-heap ordered by (at, seq) — the
// scheduler's total order and its only pending queue. Avoiding
// container/heap keeps events out of interface boxes and the
// push/pop calls direct.
type evHeap []*Event

func (h evHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *evHeap) push(e *Event) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *evHeap) pop() *Event {
	q := *h
	n := len(q)
	if n == 0 {
		return nil
	}
	top := q[0]
	n--
	q[0] = q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	i := 0
	for { //politevet:allow simsleep(heap sift-down: each pass swaps toward a leaf and terminates in log n steps; no simulated time passes)
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && q.less(l, small) {
			small = l
		}
		if r < n && q.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	return top
}

// Scheduler is a single-threaded discrete-event executor. It is not
// safe for concurrent use; concurrent producers must funnel work
// through an external synchronisation layer (see package core's
// AirPort implementations).
type Scheduler struct {
	now   Time
	seq   uint64
	q     evHeap
	free  *Event // recycled Event structs, chained on Event.next
	fired uint64

	// Introspection: queue high-water mark, per-origin fired counts,
	// a race-free mirror of the clock, and an optional fire observer.
	highWater     int
	originNames   []string
	originIndex   map[string]Origin
	firedByOrigin []uint64
	nowAtomic     atomic.Int64
	observer      func(origin string, wall time.Duration)
	observeWall   bool
}

// Origin is an interned label identifying where an event was
// scheduled from ("radio.rx", "mac.ack", ...). Origin 0 is the
// untagged default. Interning keeps the per-event accounting to one
// slice increment on the hot path.
type Origin uint16

// NewScheduler returns a scheduler whose clock starts at zero.
func NewScheduler() *Scheduler {
	return &Scheduler{
		originNames:   []string{"untagged"},
		originIndex:   make(map[string]Origin),
		firedByOrigin: make([]uint64, 1),
	}
}

// alloc takes an Event struct from the free list, or mints one if the
// pool is dry. Steady-state schedule/fire cycles never mint.
func (s *Scheduler) alloc() *Event {
	if e := s.free; e != nil {
		s.free = e.next
		e.next = nil
		return e
	}
	return &Event{}
}

// recycle invalidates outstanding Handles (generation bump) and
// returns the struct to the free list.
func (s *Scheduler) recycle(e *Event) {
	e.gen++
	e.fn = nil
	e.dead = false
	e.next = s.free
	s.free = e
}

// Now reports the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// ObservedNow is a race-free snapshot of the virtual clock, readable
// from any goroutine without the simulation lock. It is updated as
// each event fires, so a registry read from another goroutine can
// stamp observations without racing the simulation.
func (s *Scheduler) ObservedNow() Time { return Time(s.nowAtomic.Load()) }

// Len reports the number of pending events. Cancelled events still
// occupy the queue until their tombstones surface, so this is an
// upper bound on live events.
func (s *Scheduler) Len() int { return len(s.q) }

// Fired reports how many events have executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// HighWater reports the maximum queue depth reached so far.
func (s *Scheduler) HighWater() int { return s.highWater }

// Origin interns a label for tagged scheduling. Repeated calls with
// the same name return the same Origin; layers cache the result at
// construction time.
func (s *Scheduler) Origin(name string) Origin {
	if o, ok := s.originIndex[name]; ok {
		return o
	}
	o := Origin(len(s.originNames))
	s.originIndex[name] = o
	s.originNames = append(s.originNames, name)
	s.firedByOrigin = append(s.firedByOrigin, 0)
	return o
}

// FiredByOrigin reports per-origin fired-event counts, including the
// "untagged" default bucket.
func (s *Scheduler) FiredByOrigin() map[string]uint64 {
	out := make(map[string]uint64, len(s.originNames))
	for i, n := range s.firedByOrigin {
		if n > 0 {
			out[s.originNames[i]] = n
		}
	}
	return out
}

// SetFireObserver installs a callback invoked after every executed
// event with the event's origin label. When measureWall is true the
// callback also receives the wall-clock duration of the event's
// function — per-callback-kind timing for profiling — at the cost of
// two clock reads per event; otherwise the duration is zero.
// A nil observer uninstalls.
func (s *Scheduler) SetFireObserver(obs func(origin string, wall time.Duration), measureWall bool) {
	s.observer = obs
	s.observeWall = measureWall
}

// Schedule runs fn at absolute time at. Scheduling in the past (or the
// present) runs the event at the current time, after already-queued
// events for that time.
func (s *Scheduler) Schedule(at Time, fn func()) Handle {
	return s.ScheduleTagged(0, at, fn)
}

// ScheduleTagged is Schedule with an origin label for the
// per-origin fired-event accounting.
func (s *Scheduler) ScheduleTagged(o Origin, at Time, fn func()) Handle {
	if at < s.now {
		at = s.now
	}
	e := s.alloc()
	e.at = at
	e.seq = s.seq
	e.fn = fn
	e.origin = o
	s.seq++
	s.q.push(e)
	if len(s.q) > s.highWater {
		s.highWater = len(s.q)
	}
	return Handle{e: e, gen: e.gen}
}

// After runs fn after delay d.
func (s *Scheduler) After(d Time, fn func()) Handle {
	return s.Schedule(s.now+d, fn)
}

// AfterTagged is After with an origin label.
func (s *Scheduler) AfterTagged(o Origin, d Time, fn func()) Handle {
	return s.ScheduleTagged(o, s.now+d, fn)
}

// Every schedules fn to run now+d, then every d thereafter, until the
// returned ticker is stopped.
func (s *Scheduler) Every(d Time, fn func()) *Ticker {
	if d <= 0 {
		panic("eventsim: non-positive ticker period")
	}
	t := &Ticker{s: s, d: d, fn: fn}
	t.fire = func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.arm()
		}
	}
	t.arm()
	return t
}

// Ticker is a repeating event created by Every.
type Ticker struct {
	s       *Scheduler
	d       Time
	fn      func()
	fire    func() // allocated once; re-armed every period
	h       Handle
	stopped bool
}

// arm (re)schedules the ticker. The fire closure is allocated once at
// construction and the Event struct comes from the scheduler's pool,
// so each tick costs zero allocations in steady state.
func (t *Ticker) arm() {
	t.h = t.s.After(t.d, t.fire)
}

// Stop cancels future firings.
func (t *Ticker) Stop() {
	t.stopped = true
	t.h.Cancel()
}

// peek returns the next live event without removing it, collecting
// (and recycling) any cancellation tombstones that have surfaced at
// the head of the queue. This is the only point where tombstones are
// reclaimed; Cancel itself never touches the queue.
func (s *Scheduler) peek() *Event {
	for len(s.q) > 0 {
		e := s.q[0]
		if !e.dead {
			return e
		}
		s.q.pop()
		s.recycle(e)
	}
	return nil
}

// Step executes the single next pending event, advancing the clock to
// its timestamp. It reports false when the queue is empty.
func (s *Scheduler) Step() bool {
	e := s.peek()
	if e == nil {
		return false
	}
	s.q.pop()
	s.now = e.at
	s.nowAtomic.Store(int64(e.at))
	s.fired++
	s.firedByOrigin[e.origin]++
	fn, origin := e.fn, e.origin
	// Recycle before firing: fn may schedule new events that reuse
	// this struct; any Handle to the fired event is already stale.
	s.recycle(e)
	if obs := s.observer; obs != nil {
		if s.observeWall {
			start := time.Now() //politevet:allow wallclock(opt-in per-event wall profiling behind SetFireObserver measureWall; never feeds sim state)
			fn()
			obs(s.originNames[origin], time.Since(start)) //politevet:allow wallclock(duration of the same profiling measurement)
		} else {
			fn()
			obs(s.originNames[origin], 0)
		}
	} else {
		fn()
	}
	return true
}

// RunUntil executes events until the clock would pass deadline, then
// sets the clock to the deadline. Events scheduled exactly at the
// deadline are executed.
func (s *Scheduler) RunUntil(deadline Time) {
	for e := s.peek(); e != nil && e.at <= deadline; e = s.peek() {
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
		s.nowAtomic.Store(int64(deadline))
	}
}

// RunFor advances the simulation by d.
func (s *Scheduler) RunFor(d Time) { s.RunUntil(s.now + d) }

// RNG is the deterministic random source used throughout the
// simulator — the only sanctioned RNG entry point; politevet's
// globalrand analyzer enforces this. It wraps an explicit, privately
// owned *rand.Rand (never the package-global math/rand source) with
// the distributions the channel and mobility models need, so every
// draw in a run is a pure function of the seed: a single RNG is
// shared per simulation (or seed-forked per shard, see Fork) and
// replaying a seed replays the entire run. Every distribution helper
// below draws from that explicit source and from nothing else.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic generator for the given seed. This,
// (*RNG).Fork and a Scope's NewRNG and Fork are the only places the
// simulator may mint a random source.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform sample in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform sample in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Normal returns a Gaussian sample with the given mean and standard
// deviation.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*g.r.NormFloat64()
}

// Uniform returns a uniform sample in [lo,hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Coin returns true with probability p.
func (g *RNG) Coin(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.r.Float64() < p
}

// Fork derives an independent generator whose stream is a deterministic
// function of this generator's state. Useful for giving subsystems
// their own streams so adding draws in one subsystem does not perturb
// another.
func (g *RNG) Fork() *RNG {
	return NewRNG(g.r.Int63())
}
