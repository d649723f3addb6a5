package main

import (
	"io"
	"net/http"
	"sync"
	"time"

	"politewifi/internal/serve"
	"politewifi/internal/world"
)

// Spans are recorded only around calls this benchmark makes into the
// simulator: stop tasks handed to world.Config.Submit, the
// Config.Progress callback, io.Writers handed to the flight recorder
// and the frame-log recorder, HTTP requests to the daemon, and one
// span per experiment. They stay in memory and are reduced to ledger
// rows when the traced run ends.

// stopSpan is one drive stop as seen from the executor: when Run
// submitted it, when a pool worker started it, when the task (the
// stop's simulation plus any in-order merges it performed) returned,
// and when Progress reported the stop merged.
type stopSpan struct {
	enqueued, started, ended, merged time.Time
}

// stopTracer wraps a FIFO stop pool of the daemon's kind as a
// world.Config.Submit executor and a Progress hook, recording one
// stopSpan per stop. Run submits stops in street order, so the k-th
// submitted task is stop StartStop+k; Progress reports merged stops in
// the same order.
type stopTracer struct {
	pool    *serve.Pool
	workers int

	mu     sync.Mutex
	spans  []*stopSpan
	merged int
}

func newStopTracer(workers int) *stopTracer {
	return &stopTracer{pool: serve.NewPool(workers), workers: workers}
}

// attach points cfg's executor and progress hook at the tracer.
func (t *stopTracer) attach(cfg *world.Config) {
	cfg.Submit = t.submit
	cfg.Progress = t.progress
}

func (t *stopTracer) submit(task func()) {
	sp := &stopSpan{enqueued: time.Now()}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	t.pool.Submit(func() {
		start := time.Now()
		task()
		end := time.Now()
		t.mu.Lock()
		sp.started, sp.ended = start, end
		t.mu.Unlock()
	})
}

func (t *stopTracer) progress(world.Progress) {
	now := time.Now()
	t.mu.Lock()
	if t.merged < len(t.spans) {
		t.spans[t.merged].merged = now
	}
	t.merged++
	t.mu.Unlock()
}

// close stops the pool; call it once every drive using the tracer has
// returned.
func (t *stopTracer) close() { t.pool.Close() }

// addLedger adds the world.* rows for every stop recorded so far.
// Emit wait is the time from a stop's task returning to Progress
// reporting it merged; a stop merged inside its own task waited 0.
func (t *stopTracer) addLedger(values map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var busy, wait, emit []float64
	var first, last time.Time
	var busyTotal time.Duration
	for _, sp := range t.spans {
		busy = append(busy, millis(sp.ended.Sub(sp.started)))
		wait = append(wait, millis(sp.started.Sub(sp.enqueued)))
		emit = append(emit, millis(max(0, sp.merged.Sub(sp.ended))))
		busyTotal += sp.ended.Sub(sp.started)
		if first.IsZero() || sp.started.Before(first) {
			first = sp.started
		}
		if sp.ended.After(last) {
			last = sp.ended
		}
	}
	values["world.stops"] = float64(len(t.spans))
	values["world.stop_busy_ms_p50"] = quantile(busy, 0.50)
	values["world.stop_busy_ms_p99"] = quantile(busy, 0.99)
	values["world.stop_wait_ms_p99"] = quantile(wait, 0.99)
	values["world.emit_wait_ms_p99"] = quantile(emit, 0.99)
	if span := last.Sub(first); span > 0 {
		values["world.pool_busy_frac"] = busyTotal.Seconds() / (float64(t.workers) * span.Seconds())
	}
}

// timedWriter wraps an io.Writer and accumulates the bytes, calls and
// wall time spent in Write. It is safe for concurrent use.
type timedWriter struct {
	w io.Writer

	mu    sync.Mutex
	bytes int
	calls int
	spent time.Duration
}

func (tw *timedWriter) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := tw.w.Write(p)
	took := time.Since(start)
	tw.mu.Lock()
	tw.bytes += n
	tw.calls++
	tw.spent += took
	tw.mu.Unlock()
	return n, err
}

// routeTimer wraps the daemon's http.Handler and records each
// request's handler time under its routeName.
type routeTimer struct {
	next http.Handler

	mu    sync.Mutex
	times map[string][]float64 // route → handler ms
}

func (rt *routeTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rt.next.ServeHTTP(w, r)
	took := millis(time.Since(start))
	name := routeName(r)
	rt.mu.Lock()
	rt.times[name] = append(rt.times[name], took)
	rt.mu.Unlock()
}

// p50 returns the median handler time of a route.
func (rt *routeTimer) p50(route string) float64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return median(rt.times[route])
}
