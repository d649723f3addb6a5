package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"politewifi/internal/eventsim"
)

// Tracer records frame-lifecycle spans keyed to virtual time: an
// injected frame produces a tx span on the transmitter's track, an
// rx span on every receiver that locked onto it (linked by flow ID
// through medium propagation), and verdict instants (ack-verified /
// timeout) from the attacker pipeline. The result exports as Chrome
// trace_event JSON (open in about:tracing or https://ui.perfetto.dev)
// or as a plain-text timeline.
//
// Two ID spaces link spans causally:
//
//   - a flow ID ties together the spans of ONE frame's lifecycle
//     (inject → air → receive);
//   - an exchange ID ties together EVERY frame belonging to one probe
//     exchange against one station — the probe tx, its retries, the
//     solicited ACK/CTS response, and the final verdict instant — so
//     a probe exchange renders as a connected tree in the Chrome
//     trace and its end-to-end latency is queryable.
//
// A nil *Tracer is a valid no-op: every method checks the receiver,
// so instrumented layers call unconditionally.
type Tracer struct {
	nextID atomic.Uint64
	nextEx atomic.Uint64

	mu      sync.Mutex
	spans   []TraceSpan
	limit   int
	dropped uint64
}

// TraceSpan is one recorded event. Phase follows the trace_event
// format: 'X' complete span, 'i' instant.
type TraceSpan struct {
	Track string // rendered as a thread lane
	Name  string
	Phase byte
	Start eventsim.Time
	End   eventsim.Time // == Start for instants
	// FlowID links spans belonging to one frame's lifecycle
	// (inject → air → receive → ack); 0 means unlinked.
	FlowID uint64
	// Exchange links spans belonging to one probe exchange (probe →
	// response/retry → verdict) across frames; 0 means unlinked.
	Exchange uint64
	Args     map[string]string
}

// DefaultTraceLimit bounds recorded spans so a long run cannot
// exhaust memory; excess spans are counted and dropped.
const DefaultTraceLimit = 200_000

// NewTracer creates a tracer with the default span limit.
func NewTracer() *Tracer {
	return &Tracer{limit: DefaultTraceLimit}
}

// NextID mints a fresh flow ID for a new frame lifecycle.
func (t *Tracer) NextID() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// NextExchange mints a fresh exchange ID for a new probe exchange.
func (t *Tracer) NextExchange() uint64 {
	if t == nil {
		return 0
	}
	return t.nextEx.Add(1)
}

// Span records a complete span on a track. args may be nil.
func (t *Tracer) Span(track, name string, start, end eventsim.Time, flowID, exchange uint64, args map[string]string) {
	if t == nil {
		return
	}
	t.record(TraceSpan{Track: track, Name: name, Phase: 'X', Start: start, End: end, FlowID: flowID, Exchange: exchange, Args: args})
}

// Instant records a zero-duration event on a track.
func (t *Tracer) Instant(track, name string, at eventsim.Time, flowID, exchange uint64, args map[string]string) {
	if t == nil {
		return
	}
	t.record(TraceSpan{Track: track, Name: name, Phase: 'i', Start: at, End: at, FlowID: flowID, Exchange: exchange, Args: args})
}

func (t *Tracer) record(s TraceSpan) {
	t.mu.Lock()
	if t.limit > 0 && len(t.spans) >= t.limit {
		t.dropped++
	} else {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// Len reports the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Dropped reports spans discarded over the limit.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// MergeFrom appends every span of src, rebasing src's flow and
// exchange IDs past t's so the two ID spaces never collide. It exists
// for sharded workloads (the parallel wardrive): each stop records
// into a private tracer, and the coordinator merges the shards in
// stop-index order, so the merged trace — and its Chrome JSON
// rendering — is identical to a sequential run's for every worker
// count. src must be quiescent; t's span limit still applies, with
// overflow counted into Dropped alongside src's own drops.
func (t *Tracer) MergeFrom(src *Tracer) {
	if t == nil || src == nil {
		return
	}
	src.mu.Lock()
	spans := append([]TraceSpan(nil), src.spans...)
	srcDropped := src.dropped
	src.mu.Unlock()

	flowBase := t.nextID.Load()
	exBase := t.nextEx.Load()
	t.mu.Lock()
	for _, s := range spans {
		if s.FlowID != 0 {
			s.FlowID += flowBase
		}
		if s.Exchange != 0 {
			s.Exchange += exBase
		}
		if t.limit > 0 && len(t.spans) >= t.limit {
			t.dropped++
		} else {
			t.spans = append(t.spans, s)
		}
	}
	t.dropped += srcDropped
	t.mu.Unlock()
	t.nextID.Add(src.nextID.Load())
	t.nextEx.Add(src.nextEx.Load())
}

// snapshotSorted returns a time-ordered copy of the spans. The sort
// is stable, so spans with equal timestamps keep their recording
// order — which is deterministic (simulation event order within a
// stop, stop-index order across merged shards), making the rendered
// output byte-identical across replays and worker counts.
func (t *Tracer) snapshotSorted() []TraceSpan {
	t.mu.Lock()
	out := append([]TraceSpan(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// chromeEvent is the trace_event JSON wire format.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"` // microseconds
	Dur  *float64          `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	ID   string            `json:"id,omitempty"`
	BP   string            `json:"bp,omitempty"`
	S    string            `json:"s,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeJSON exports the trace in Chrome trace_event JSON array
// format, loadable in about:tracing and Perfetto. Tracks become
// threads of one process; frame lifecycles are linked with
// "frame-flow" events and probe exchanges with "exchange" flow
// events, so selecting any probe highlights its whole
// probe→response/retry→verdict tree.
func (t *Tracer) WriteChromeJSON(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "[]")
		return err
	}
	spans := t.snapshotSorted()

	// Assign tids in order of first appearance and name the lanes.
	tids := make(map[string]int)
	var events []chromeEvent
	tidOf := func(track string) int {
		if id, ok := tids[track]; ok {
			return id
		}
		id := len(tids) + 1
		tids[track] = id
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: id,
			Args: map[string]string{"name": track},
		})
		return id
	}

	// Flow bookkeeping: first span of a flow (or exchange) emits a
	// flow-start, every later one a flow-step terminating at that span.
	flowSeen := make(map[uint64]bool)
	exSeen := make(map[uint64]bool)

	for _, s := range spans {
		tid := tidOf(s.Track)
		ev := chromeEvent{
			Name: s.Name, Cat: "frame", Ph: string(s.Phase),
			TS: s.Start.Micros(), PID: 1, TID: tid, Args: s.Args,
		}
		if s.Phase == 'X' {
			d := s.End.Micros() - s.Start.Micros()
			ev.Dur = &d
		}
		if s.Phase == 'i' {
			ev.S = "t" // thread-scoped instant
		}
		events = append(events, ev)
		if s.FlowID != 0 {
			id := fmt.Sprintf("%#x", s.FlowID)
			fe := chromeEvent{
				Name: "frame-flow", Cat: "frame", TS: s.Start.Micros(), PID: 1, TID: tid, ID: id,
			}
			if !flowSeen[s.FlowID] {
				flowSeen[s.FlowID] = true
				fe.Ph = "s"
			} else {
				fe.Ph = "t"
			}
			events = append(events, fe)
		}
		if s.Exchange != 0 {
			id := fmt.Sprintf("ex:%#x", s.Exchange)
			fe := chromeEvent{
				Name: "exchange", Cat: "exchange", TS: s.Start.Micros(), PID: 1, TID: tid, ID: id,
			}
			if !exSeen[s.Exchange] {
				exSeen[s.Exchange] = true
				fe.Ph = "s"
			} else {
				fe.Ph = "t"
				fe.BP = "e" // bind to the enclosing slice, not the next one
			}
			events = append(events, fe)
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(events)
}

// Timeline renders the trace as a plain-text table ordered by
// virtual time — the quick-look alternative to about:tracing.
func (t *Tracer) Timeline() string {
	if t == nil {
		return ""
	}
	spans := t.snapshotSorted()
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-10s %-16s %-26s %s\n", "Start", "Dur(µs)", "Track", "Event", "Args")
	for _, s := range spans {
		dur := ""
		if s.Phase == 'X' {
			dur = fmt.Sprintf("%.1f", (s.End - s.Start).Micros())
		}
		args := ""
		if len(s.Args) > 0 {
			keys := make([]string, 0, len(s.Args))
			for k := range s.Args {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			parts := make([]string, 0, len(keys))
			for _, k := range keys {
				parts = append(parts, k+"="+s.Args[k])
			}
			args = strings.Join(parts, " ")
		}
		name := s.Name
		if s.FlowID != 0 {
			name = fmt.Sprintf("%s #%d", s.Name, s.FlowID)
		}
		if s.Exchange != 0 {
			name = fmt.Sprintf("%s ~ex%d", name, s.Exchange)
		}
		fmt.Fprintf(&b, "%-12s %-10s %-16s %-26s %s\n", s.Start, dur, s.Track, name, args)
	}
	if d := t.Dropped(); d > 0 {
		fmt.Fprintf(&b, "(%d spans dropped over the %d-span limit)\n", d, t.limitSnapshot())
	}
	return b.String()
}

func (t *Tracer) limitSnapshot() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.limit
}
