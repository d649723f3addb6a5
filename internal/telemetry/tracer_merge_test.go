package telemetry

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"politewifi/internal/eventsim"
)

// exchangeExtent is the observed extent of one probe exchange: the
// virtual time between its earliest and latest recorded span.
type exchangeExtent struct {
	exchange   uint64
	start, end eventsim.Time
	spans      int
}

// exchangeExtents computes the extent of every exchange in the trace,
// ordered by exchange ID.
func exchangeExtents(t *Tracer) []exchangeExtent {
	byEx := make(map[uint64]*exchangeExtent)
	for _, s := range t.spans {
		if s.Exchange == 0 {
			continue
		}
		e, ok := byEx[s.Exchange]
		if !ok {
			e = &exchangeExtent{exchange: s.Exchange, start: s.Start, end: s.End}
			byEx[s.Exchange] = e
		}
		e.start = min(e.start, s.Start)
		e.end = max(e.end, s.End)
		e.spans++
	}
	out := make([]exchangeExtent, 0, len(byEx))
	for _, e := range byEx {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].exchange < out[j].exchange })
	return out
}

// recordExchange simulates one stop's worth of a traced probe
// exchange on a private tracer.
func recordExchange(tr *Tracer, track string) uint64 {
	ex := tr.NextExchange()
	flow := tr.NextID()
	tr.Span(track, "tx Null", 10*eventsim.Microsecond, 40*eventsim.Microsecond, flow, ex, nil)
	flow2 := tr.NextID()
	tr.Span(track, "tx ACK", 50*eventsim.Microsecond, 60*eventsim.Microsecond, flow2, ex, nil)
	tr.Instant(track, "probe verified", 60*eventsim.Microsecond, 0, ex, nil)
	return ex
}

// TestTracerMergeRebasesIDs is the shard-merge contract: merging two
// per-stop tracers (each minting flow and exchange IDs from 1) must
// rebase the source's IDs past the destination's so no two exchanges
// or flows collide, while preserving span order and counting drops.
func TestTracerMergeRebasesIDs(t *testing.T) {
	a := NewTracer()
	b := NewTracer()
	exA := recordExchange(a, "stop0")
	exB := recordExchange(b, "stop1")
	if exA != 1 || exB != 1 {
		t.Fatalf("per-stop exchanges = %d, %d; want both 1", exA, exB)
	}

	merged := NewTracer()
	merged.MergeFrom(a)
	merged.MergeFrom(b)

	if merged.Len() != a.Len()+b.Len() {
		t.Fatalf("merged %d spans, want %d", merged.Len(), a.Len()+b.Len())
	}
	lats := exchangeExtents(merged)
	if len(lats) != 2 {
		t.Fatalf("merged exchanges = %d, want 2 (IDs must not collide)", len(lats))
	}
	// Stop 0's exchange keeps ID 1; stop 1's rebases past it to 2.
	if lats[0].exchange != 1 || lats[1].exchange != 2 {
		t.Fatalf("exchange IDs after merge = %d, %d; want 1, 2", lats[0].exchange, lats[1].exchange)
	}
	for _, l := range lats {
		if l.spans != 3 {
			t.Fatalf("exchange %d has %d spans, want 3", l.exchange, l.spans)
		}
		if l.end-l.start != 50*eventsim.Microsecond {
			t.Fatalf("exchange %d latency = %s, want 50µs", l.exchange, l.end-l.start)
		}
	}

	// A fresh ID minted after the merge must not collide either.
	if next := merged.NextExchange(); next <= 2 {
		t.Fatalf("post-merge NextExchange = %d, already in use", next)
	}

	// Nil endpoints are no-ops.
	var nilTr *Tracer
	nilTr.MergeFrom(a)
	merged.MergeFrom(nil)
	if nilTr.NextExchange() != 0 {
		t.Fatal("nil tracer minted an exchange")
	}
}

// TestTracerMergeRespectsLimit asserts the destination's span cap
// still applies during a merge, with overflow and the source's own
// drops both surfacing in Dropped.
func TestTracerMergeRespectsLimit(t *testing.T) {
	src := &Tracer{limit: 10}
	for i := 0; i < 12; i++ {
		src.Span("t", "s", 0, 1, 0, 0, nil)
	}
	dst := &Tracer{limit: 15}
	dst.MergeFrom(src)
	dst.MergeFrom(src)
	if dst.Len() != 15 {
		t.Fatalf("dst.Len() = %d, want 15", dst.Len())
	}
	// 2 src drops per merge, plus 5 overflow on the second merge.
	if dst.Dropped() != 2+2+5 {
		t.Fatalf("dst.Dropped() = %d, want 9", dst.Dropped())
	}
}

// TestChromeJSONExchangeFlows asserts exchange-linked spans render as
// a connected flow-event chain (one "s" start, "t" steps) distinct
// from the frame-lifecycle flows.
func TestChromeJSONExchangeFlows(t *testing.T) {
	tr := NewTracer()
	recordExchange(tr, "attacker")
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	starts, steps := 0, 0
	for _, e := range events {
		if e["cat"] != "exchange" {
			continue
		}
		if !strings.HasPrefix(e["id"].(string), "ex:") {
			t.Fatalf("exchange flow id = %v, want ex:-prefixed", e["id"])
		}
		switch e["ph"] {
		case "s":
			starts++
		case "t":
			steps++
		}
	}
	if starts != 1 || steps != 2 {
		t.Fatalf("exchange flow events: %d starts, %d steps; want 1 and 2", starts, steps)
	}
	// Timeline shows the exchange tag.
	if !strings.Contains(tr.Timeline(), "~ex1") {
		t.Fatalf("timeline missing exchange tag:\n%s", tr.Timeline())
	}
}
