package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"

	"politewifi/internal/eventsim"
)

func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry(nil)
	a := reg.Counter("x.hits", "hits")
	b := reg.Counter("x.hits", "hits")
	if a != b {
		t.Fatal("Counter not get-or-create")
	}
	if reg.Gauge("x.depth", "") != reg.Gauge("x.depth", "") {
		t.Fatal("Gauge not get-or-create")
	}
	h1 := reg.Histogram("x.lat", "", []float64{1, 2})
	h2 := reg.Histogram("x.lat", "", []float64{99})
	if h1 != h2 {
		t.Fatal("Histogram not get-or-create")
	}
	h1.Observe(50)
	if h1.counts[2] != 1 {
		t.Fatal("second registration changed the buckets")
	}
}

func TestCounterStampsVirtualTime(t *testing.T) {
	now := eventsim.Time(0)
	reg := NewRegistry(func() eventsim.Time { return now })
	c := reg.Counter("x.hits", "")
	now = 42 * eventsim.Microsecond
	c.Inc()
	if c.Value() != 1 {
		t.Fatalf("Value = %d", c.Value())
	}
	if c.LastUpdate() != 42*eventsim.Microsecond {
		t.Fatalf("LastUpdate = %v, want 42µs of virtual time", c.LastUpdate())
	}
	// Add(0) must not move the stamp.
	now = 99 * eventsim.Microsecond
	c.Add(0)
	if c.LastUpdate() != 42*eventsim.Microsecond {
		t.Fatal("Add(0) moved the time stamp")
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(7)
	g.Set(3)
	g.SetInt(4)
	h.Observe(1)
	h.ObserveTime(eventsim.Millisecond)
	if c.Value() != 0 || c.LastUpdate() != 0 || g.Value() != 0 || g.Max() != 0 ||
		h.Count() != 0 || h.Mean() != 0 {
		t.Fatal("nil instrument returned non-zero")
	}
}

func TestGaugeHighWater(t *testing.T) {
	reg := NewRegistry(nil)
	g := reg.Gauge("q.depth", "")
	g.SetInt(3)
	g.SetInt(9)
	g.SetInt(2)
	if g.Value() != 2 {
		t.Fatalf("Value = %v, want 2", g.Value())
	}
	if g.Max() != 9 {
		t.Fatalf("Max = %v, want 9", g.Max())
	}
	// Negative first value must set the mark, not compare against 0.
	g2 := reg.Gauge("q.neg", "")
	g2.Set(-5)
	if g2.Max() != -5 {
		t.Fatalf("Max after single -5 = %v, want -5", g2.Max())
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry(nil)
	h := reg.Histogram("x.lat", "", []float64{10, 100})
	for _, v := range []float64{5, 10, 11, 100, 1000} {
		h.Observe(v)
	}
	// ≤10: {5,10}, ≤100: {11,100}, +Inf: {1000}
	want := []uint64{2, 2, 1}
	for i, w := range want {
		if h.counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d", i, h.counts[i], w)
		}
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	if got := h.Mean(); math.Abs(got-1126.0/5) > 1e-9 {
		t.Fatalf("Mean = %v", got)
	}
	if h.min != 5 || h.max != 1000 {
		t.Fatalf("min/max = %v/%v", h.min, h.max)
	}
}

func TestObserveTimeUsesMicros(t *testing.T) {
	reg := NewRegistry(nil)
	h := reg.Histogram("x.lat_us", "", TimeBucketsUS)
	h.ObserveTime(16 * eventsim.Microsecond) // SIFS + slop → the "le 20" bucket
	snap := reg.Snapshot().Histograms[0]
	for _, b := range snap.Buckets {
		if b.LE == "20" && b.Count != 1 {
			t.Fatalf("bucket le=20 count = %d, want 1", b.Count)
		}
	}
	if snap.Sum != 16 {
		t.Fatalf("Sum = %v, want 16 (microseconds)", snap.Sum)
	}
}

func TestSampledFuncsAndReplaceSemantics(t *testing.T) {
	reg := NewRegistry(nil)
	v := uint64(7)
	reg.CounterFunc("s.fired", "", func() uint64 { return v })
	reg.GaugeFunc("s.len", "", func() float64 { return 3 })
	reg.MultiCounterFunc("s.by", "", func() map[string]uint64 {
		return map[string]uint64{"a": 1, "b": 2}
	})
	rep := reg.Snapshot()
	if c := rep.Counter("s.fired"); c == nil || c.Value != 7 {
		t.Fatalf("s.fired snapshot = %+v", c)
	}
	if c := rep.Counter("s.by.a"); c == nil || c.Value != 1 {
		t.Fatal("multi counter not expanded")
	}
	// Re-registering replaces the sampling function (per-run attach).
	reg.CounterFunc("s.fired", "", func() uint64 { return 100 })
	if c := reg.Snapshot().Counter("s.fired"); c.Value != 100 {
		t.Fatalf("replaced func not used: %d", c.Value)
	}
}

func TestReportStableJSON(t *testing.T) {
	build := func() *Registry {
		reg := NewRegistry(nil)
		// Insertion order varies; output order must not.
		reg.Counter("b.two", "").Add(2)
		reg.Counter("a.one", "").Inc()
		reg.Gauge("z.g", "").Set(1)
		reg.Gauge("a.g", "").Set(2)
		reg.Histogram("m.h", "", []float64{1}).Observe(0.5)
		return reg
	}
	var bufs [2]bytes.Buffer
	for i := range bufs {
		if err := build().Snapshot().WriteJSON(&bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Fatal("identical registries produced different JSON")
	}
	var rep Report
	if err := json.Unmarshal(bufs[0].Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != ReportSchema {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if rep.Counters[0].Name != "a.one" || rep.Counters[1].Name != "b.two" {
		t.Fatalf("counters not sorted: %+v", rep.Counters)
	}
}

func TestRenderMentionsEveryInstrument(t *testing.T) {
	reg := NewRegistry(nil)
	reg.Counter("mac.acks", "").Inc()
	reg.Gauge("sched.queue_len", "").SetInt(4)
	reg.Histogram("pipeline.lat", "", TimeBucketsUS).Observe(3)
	out := reg.Snapshot().Render()
	for _, want := range []string{"mac.acks", "sched.queue_len", "pipeline.lat", "[mac]", "[sched]", "[pipeline]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentInstrumentUse(t *testing.T) {
	reg := NewRegistry(nil)
	c := reg.Counter("x.c", "")
	g := reg.Gauge("x.g", "")
	h := reg.Histogram("x.h", "", DepthBuckets)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.SetInt(j)
				h.Observe(float64(i))
			}
		}(i)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("Counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("Histogram n = %d, want 8000", h.Count())
	}
}

func TestTracerChromeJSON(t *testing.T) {
	tr := NewTracer()
	id := tr.NextID()
	tr.Span("attacker", "tx Null", 10*eventsim.Microsecond, 40*eventsim.Microsecond, id, 0,
		map[string]string{"bytes": "28"})
	tr.Span("victim", "rx Null", 12*eventsim.Microsecond, 42*eventsim.Microsecond, id, 0, nil)
	tr.Instant("attacker", "probe verified", 60*eventsim.Microsecond, id, 0, nil)
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	phases := map[string]int{}
	for _, e := range events {
		phases[e["ph"].(string)]++
		if _, ok := e["pid"].(float64); !ok {
			t.Fatalf("event missing pid: %v", e)
		}
	}
	// 2 thread_name metadata, 2 complete spans, 1 instant, flow start +
	// 2 flow steps linking the lifecycle.
	if phases["M"] != 2 || phases["X"] != 2 || phases["i"] != 1 || phases["s"] != 1 || phases["t"] != 2 {
		t.Fatalf("phase counts = %v", phases)
	}
	for _, e := range events {
		if e["ph"] == "X" && e["name"] == "tx Null" {
			if e["ts"].(float64) != 10 || *jsonNum(e, "dur") != 30 {
				t.Fatalf("tx span ts/dur wrong: %v", e)
			}
		}
	}
}

func jsonNum(e map[string]any, k string) *float64 {
	if v, ok := e[k].(float64); ok {
		return &v
	}
	return nil
}

func TestTracerNilAndLimit(t *testing.T) {
	var tr *Tracer
	if tr.NextID() != 0 {
		t.Fatal("nil NextID != 0")
	}
	tr.Span("a", "b", 0, 1, 0, 0, nil)
	tr.Instant("a", "b", 0, 0, 0, nil)
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Timeline() != "" {
		t.Fatal("nil tracer not a no-op")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil || buf.String() != "[]" {
		t.Fatalf("nil tracer JSON = %q, %v", buf.String(), err)
	}

	small := &Tracer{limit: 2}
	for i := 0; i < 5; i++ {
		small.Span("t", "s", 0, 1, 0, 0, nil)
	}
	if small.Len() != 2 || small.Dropped() != 3 {
		t.Fatalf("Len/Dropped = %d/%d, want 2/3", small.Len(), small.Dropped())
	}
}

func TestTracerTimeline(t *testing.T) {
	tr := NewTracer()
	// Recorded out of order; the timeline sorts by virtual time.
	tr.Instant("attacker", "timeout", 90*eventsim.Microsecond, 0, 0, nil)
	tr.Span("attacker", "tx Null", 10*eventsim.Microsecond, 40*eventsim.Microsecond, 1, 0,
		map[string]string{"rate": "24 Mbps"})
	out := tr.Timeline()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("timeline lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "tx Null #1") || !strings.Contains(lines[1], "rate=24 Mbps") {
		t.Fatalf("first row = %q", lines[1])
	}
	if !strings.Contains(lines[2], "timeout") {
		t.Fatalf("second row = %q", lines[2])
	}
}

func TestAttachScheduler(t *testing.T) {
	sched := eventsim.NewScheduler()
	reg := NewRegistry(sched.ObservedNow)
	AttachScheduler(reg, sched, true)
	rx := sched.Origin("radio.rx")
	sched.ScheduleTagged(rx, 10, func() {})
	sched.Schedule(20, func() {})
	sched.Run()
	rep := reg.Snapshot()
	if c := rep.Counter("sched.events_fired"); c == nil || c.Value != 2 {
		t.Fatalf("events_fired = %+v", c)
	}
	if c := rep.Counter("sched.fired.radio.rx"); c == nil || c.Value != 1 {
		t.Fatalf("fired.radio.rx = %+v", c)
	}
	var wall *HistogramSnapshot
	for i := range rep.Histograms {
		if rep.Histograms[i].Name == "sched.callback_wall_us.radio.rx" {
			wall = &rep.Histograms[i]
		}
	}
	if wall == nil || wall.Count != 1 {
		t.Fatalf("wall-timing histogram missing or empty: %+v", rep.Histograms)
	}
}
