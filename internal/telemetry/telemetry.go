// Package telemetry is the simulator's observability substrate: a
// registry of named counters, gauges and fixed-bucket histograms
// whose observations are stamped with *virtual* time
// (eventsim.Time), a frame-lifecycle tracer exportable as Chrome
// trace_event JSON, and a stable machine-readable Report snapshot.
//
// Everything here is zero-dependency (standard library plus the
// eventsim clock type) and safe for concurrent use: counters are
// atomic, gauges and histograms take a short mutex, so instruments
// may be updated from inside the single-threaded simulation while
// other goroutines read them.
//
// Metrics are virtual-time-stamped on purpose: the simulator's
// ground truth is the event clock, not the wall clock. A counter's
// LastUpdate answers "when, in the experiment, did this last
// happen?" — which is the question every paper figure asks — and is
// bit-identical across replays of the same seed, whereas wall-clock
// stamps would differ per host and per run.
//
// Instruments are nil-safe: calling Add/Set/Observe on a nil
// *Counter/*Gauge/*Histogram is a no-op, so instrumented layers hold
// possibly-unset instrument fields and pay nothing when telemetry is
// not attached.
package telemetry

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"politewifi/internal/eventsim"
)

// Clock reads the current virtual time. It must be safe to call from
// any goroutine; eventsim.(*Scheduler).ObservedNow is the canonical
// implementation.
type Clock func() eventsim.Time

// Registry is a namespace of instruments. Instrument constructors
// are get-or-create: asking twice for the same name returns the same
// instrument, which is what lets per-stop simulations (the wardrive)
// accumulate into one shared registry.
//
// Names are dotted paths; the segment before the first dot is the
// metric family ("sched", "medium", "mac", "pipeline", ...).
type Registry struct {
	mu    sync.Mutex
	clock Clock

	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	counterFuncs map[string]*counterFunc
	gaugeFuncs   map[string]*gaugeFunc
	multiFuncs   map[string]*multiCounterFunc
}

type counterFunc struct {
	help string
	fn   func() uint64
}

type gaugeFunc struct {
	help string
	fn   func() float64
}

type multiCounterFunc struct {
	help string
	fn   func() map[string]uint64
}

// NewRegistry creates a registry stamped by the given virtual clock.
// A nil clock stamps everything with time zero.
func NewRegistry(clock Clock) *Registry {
	if clock == nil {
		clock = func() eventsim.Time { return 0 }
	}
	return &Registry{
		clock:        clock,
		counters:     make(map[string]*Counter),
		gauges:       make(map[string]*Gauge),
		hists:        make(map[string]*Histogram),
		counterFuncs: make(map[string]*counterFunc),
		gaugeFuncs:   make(map[string]*gaugeFunc),
		multiFuncs:   make(map[string]*multiCounterFunc),
	}
}

// Now reads the registry's virtual clock.
func (r *Registry) Now() eventsim.Time { return r.clock() }

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name, help: help, clock: r.clock}
	r.counters[name] = c
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name, help: help, clock: r.clock}
	r.gauges[name] = g
	return g
}

// Histogram returns (creating if needed) the named histogram with
// the given bucket upper bounds (ascending; an implicit +Inf bucket
// catches overflow). Buckets are fixed at creation; a second call
// with different bounds returns the existing histogram unchanged.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &Histogram{
		name:   name,
		help:   help,
		clock:  r.clock,
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
	r.hists[name] = h
	return h
}

// CounterFunc registers a counter whose value is read from fn at
// snapshot time — for sources that already keep their own cumulative
// count (scheduler fired-event totals, bridge contention counters).
// Re-registering a name replaces the function.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counterFuncs[name] = &counterFunc{help: help, fn: fn}
}

// GaugeFunc registers a gauge sampled from fn at snapshot time.
// Re-registering a name replaces the function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[name] = &gaugeFunc{help: help, fn: fn}
}

// MultiCounterFunc registers a family of counters expanded at
// snapshot time: fn returns suffix→value pairs that surface as
// prefix.suffix counters. Used for by-origin scheduler counts whose
// key set is not known at attach time.
func (r *Registry) MultiCounterFunc(prefix, help string, fn func() map[string]uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.multiFuncs[prefix] = &multiCounterFunc{help: help, fn: fn}
}

// --- Counter ---------------------------------------------------------

// Counter is a monotonically increasing count. All methods are
// nil-safe and safe for concurrent use.
type Counter struct {
	name, help string
	clock      Clock
	v          atomic.Uint64
	lastAt     atomic.Int64 // eventsim.Time of the last Add
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil || n == 0 {
		return
	}
	c.v.Add(n)
	c.lastAt.Store(int64(c.clock()))
}

// Value reads the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// LastUpdate reports the virtual time of the most recent Add.
func (c *Counter) LastUpdate() eventsim.Time {
	if c == nil {
		return 0
	}
	return eventsim.Time(c.lastAt.Load())
}

// --- Gauge -----------------------------------------------------------

// Gauge is an instantaneous value with a tracked high-water mark.
// All methods are nil-safe and safe for concurrent use.
type Gauge struct {
	name, help string
	clock      Clock

	mu     sync.Mutex
	v      float64
	max    float64
	set    bool
	lastAt eventsim.Time
}

// Set records the current value (and raises the high-water mark).
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v = v
	if !g.set || v > g.max {
		g.max = v
	}
	g.set = true
	g.lastAt = g.clock()
	g.mu.Unlock()
}

// SetInt is Set for integer sources (queue depths).
func (g *Gauge) SetInt(v int) { g.Set(float64(v)) }

// Value reads the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Max reads the high-water mark since creation.
func (g *Gauge) Max() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.max
}

// --- Histogram -------------------------------------------------------

// Histogram accumulates observations into fixed buckets. All methods
// are nil-safe and safe for concurrent use.
type Histogram struct {
	name, help string
	clock      Clock

	mu     sync.Mutex
	bounds []float64 // ascending upper bounds
	counts []uint64  // len(bounds)+1; last is +Inf overflow
	sum    float64
	n      uint64
	min    float64
	max    float64
	lastAt eventsim.Time
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.n++
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.lastAt = h.clock()
	h.mu.Unlock()
}

// ObserveTime records a virtual duration in microseconds — the
// natural unit for SIFS-scale latencies.
func (h *Histogram) ObserveTime(d eventsim.Time) { h.Observe(d.Micros()) }

// Count reports the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Mean reports the average observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// TimeBucketsUS is the default bucket set for sim-time latencies in
// microseconds: spans SIFS (10 µs) through multi-millisecond verdict
// windows.
var TimeBucketsUS = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 50000}

// DepthBuckets is the default bucket set for queue depths.
var DepthBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

func fmtBound(b float64) string {
	if b == math.Trunc(b) {
		return fmt.Sprintf("%g", b)
	}
	return fmt.Sprintf("%.3g", b)
}
