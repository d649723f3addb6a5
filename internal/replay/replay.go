// Package replay serializes the medium's frame-log records (see
// internal/radio's FrameTx/CCACheck) as a versioned NDJSON format and
// feeds them back for deterministic replay.
//
// The format, politewifi.framelog/v1, is one JSON object per line: a
// head record carrying the schema, stop count and (optionally) the
// jobspec that produced the drive, followed by one record per medium
// event — a transmission's full lifecycle or a carrier-sense check —
// tagged with its 0-based stop index. Records within a stop appear in
// the exact order the stop's scheduler produced them; stops appear in
// stop order because the world's ordered merge flushes them that way.
//
// Replay is lockstep: each stop's Cursor hands records back to the
// medium one at a time and verifies that the live run asks for exactly
// what was recorded (same transmitter, same virtual time, same wire
// bytes, same rate). The first disagreement latches a positioned
// DivergenceError — record index and byte offset, à la stream.PosError
// — and the stop's medium goes inert so the drive still terminates.
package replay

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"politewifi/internal/eventsim"
	"politewifi/internal/phy"
	"politewifi/internal/radio"
)

// Schema identifies the frame-log format version.
const Schema = "politewifi.framelog/v1"

// Head is the first record of a frame log.
type Head struct {
	Schema string `json:"schema"`
	// Stops is the number of stops the recorded drive completed.
	Stops int `json:"stops"`
	// Spec optionally embeds the jobspec JSON that produced the drive,
	// so `politewifi replay` can rebuild the identical world without a
	// side channel. Kept raw to avoid an import cycle.
	Spec json.RawMessage `json:"spec,omitempty"`
}

// Record is one frame-log line after the head: exactly one of TX or
// CCA is set.
type Record struct {
	// Stop is the 0-based stop index the event belongs to.
	Stop int `json:"stop"`
	// TX is a transmission lifecycle.
	TX *radio.FrameTx `json:"tx,omitempty"`
	// CCA is a carrier-sense consultation.
	CCA *radio.CCACheck `json:"cca,omitempty"`
}

// PosError is a frame-log parse failure pinned to its position: the
// 0-based line index (the head is line 0) and the byte offset the
// decoder had reached.
type PosError struct {
	Record int   // 0-based line index of the record being decoded
	Offset int64 // byte offset into the log where decoding stopped
	Err    error
}

func (e *PosError) Error() string {
	return fmt.Sprintf("framelog: record %d (byte offset %d): %v", e.Record, e.Offset, e.Err)
}

func (e *PosError) Unwrap() error { return e.Err }

// DivergenceError reports the first point where a replayed run
// disagreed with its frame log, positioned by stop, log line and byte
// offset so the offending record can be inspected directly.
type DivergenceError struct {
	Stop   int    // 0-based stop index
	Record int    // 0-based line index into the log (head is line 0)
	Offset int64  // byte offset of the record's end in the log
	Msg    string // what disagreed
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("replay diverged: stop %d, record %d (byte offset %d): %s",
		e.Stop, e.Record, e.Offset, e.Msg)
}

// Recorder streams a drive's frame log as NDJSON. Like stream.Writer,
// the first underlying error latches — recording must never alter the
// drive result — and is reported by Err. A nil *Recorder is a valid
// no-op so callers can write unconditionally.
type Recorder struct {
	mu      sync.Mutex
	w       io.Writer
	spec    json.RawMessage
	began   bool
	err     error
	records int
}

// NewRecorder wraps w as a frame-log recorder.
func NewRecorder(w io.Writer) *Recorder {
	return &Recorder{w: w}
}

// SetSpec attaches the jobspec JSON to embed in the head record; call
// before the drive starts.
func (r *Recorder) SetSpec(spec json.RawMessage) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spec = append(json.RawMessage(nil), spec...)
}

// Begin writes the head record. The world calls it once, with the
// drive's stop count, before any stop completes.
func (r *Recorder) Begin(stops int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.began {
		r.fail(errors.New("framelog: Begin called twice"))
		return
	}
	r.began = true
	r.writeLine(Head{Schema: Schema, Stops: stops, Spec: r.spec})
}

// WriteStop appends one stop's records, in their recorded order. The
// world's ordered merge calls this stop-index-ascending, so the log
// bytes are identical at any worker count.
func (r *Recorder) WriteStop(sl *StopLog) {
	if r == nil || sl == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.began {
		r.fail(errors.New("framelog: WriteStop before Begin"))
		return
	}
	for i := range sl.recs {
		if !r.writeLine(&sl.recs[i]) {
			return
		}
		r.records++
	}
}

// writeLine marshals v as one NDJSON line; errors latch. Caller holds
// the mutex.
func (r *Recorder) writeLine(v any) bool {
	if r.err != nil {
		return false
	}
	buf, err := json.Marshal(v)
	if err != nil {
		r.fail(err)
		return false
	}
	buf = append(buf, '\n')
	if _, err := r.w.Write(buf); err != nil {
		r.fail(err)
		return false
	}
	return true
}

func (r *Recorder) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Err reports the latched error, if any.
func (r *Recorder) Err() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Records reports how many event records were successfully written
// (head excluded).
func (r *Recorder) Records() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.records
}

// StopLog is one stop's in-memory shard of the frame log. It
// implements radio.FrameRecorder; the medium appends to it from
// scheduler context, and the world hands it to Recorder.WriteStop once
// the stop's sim loop has finished (RecordTx entries keep mutating
// until then).
type StopLog struct {
	stop int
	recs []Record
}

// NewStopLog creates the shard for the given 0-based stop index.
func NewStopLog(stop int) *StopLog {
	return &StopLog{stop: stop}
}

// RecordTx implements radio.FrameRecorder.
func (s *StopLog) RecordTx(tx *radio.FrameTx) {
	s.recs = append(s.recs, Record{Stop: s.stop, TX: tx})
}

// RecordCCA implements radio.FrameRecorder.
func (s *StopLog) RecordCCA(src string, at eventsim.Time, busy bool) {
	s.recs = append(s.recs, Record{Stop: s.stop, CCA: &radio.CCACheck{Src: src, At: at, Busy: busy}})
}

// logRec is a loaded record with its position in the file, so
// divergence errors can point at the byte.
type logRec struct {
	rec    Record
	index  int   // 0-based line index in the log (head is line 0)
	offset int64 // byte offset of the record's end
}

// Log is a loaded frame log ready to replay: per-stop record shards
// plus divergence bookkeeping shared by the cursors. Shards are keyed
// by stop index and created only as records arrive, so memory tracks
// the log's size, never the head's claimed stop count.
type Log struct {
	head    Head
	stops   map[int][]logRec
	records int

	mu    sync.Mutex
	errs  map[int]error // first divergence per stop
	setup error         // pre-replay failure (spec/stop-count mismatch)
}

// Load parses a frame log. Head validation failures and malformed
// records return a *PosError; a loaded Log is structurally sound (every
// record is a well-formed TX xor CCA with an in-range stop index).
func Load(r io.Reader) (*Log, error) {
	dec := json.NewDecoder(r)
	var head Head
	if err := dec.Decode(&head); err != nil {
		if errors.Is(err, io.EOF) {
			err = errors.New("empty log")
		}
		return nil, &PosError{Record: 0, Offset: dec.InputOffset(), Err: err}
	}
	if head.Schema != Schema {
		return nil, &PosError{
			Record: 0, Offset: dec.InputOffset(),
			Err: fmt.Errorf("head schema %q (want %q)", head.Schema, Schema),
		}
	}
	if head.Stops < 0 {
		return nil, &PosError{
			Record: 0, Offset: dec.InputOffset(),
			Err: fmt.Errorf("head claims %d stops", head.Stops),
		}
	}
	l := &Log{
		head:  head,
		stops: make(map[int][]logRec),
		errs:  make(map[int]error),
	}
	for n := 1; ; n++ {
		var rec Record
		if err := dec.Decode(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				err = fmt.Errorf("truncated record: %w", err)
			}
			return nil, &PosError{Record: n, Offset: dec.InputOffset(), Err: err}
		}
		off := dec.InputOffset()
		if rec.Stop < 0 || rec.Stop >= head.Stops {
			return nil, &PosError{
				Record: n, Offset: off,
				Err: fmt.Errorf("stop index %d out of range (head claims %d stops)", rec.Stop, head.Stops),
			}
		}
		if (rec.TX == nil) == (rec.CCA == nil) {
			return nil, &PosError{
				Record: n, Offset: off,
				Err: errors.New("record must carry exactly one of tx/cca"),
			}
		}
		l.stops[rec.Stop] = append(l.stops[rec.Stop], logRec{rec: rec, index: n, offset: off})
		l.records++
	}
	return l, nil
}

// Stops reports the head's stop count.
func (l *Log) Stops() int { return l.head.Stops }

// Spec returns the embedded jobspec JSON (nil if the recording did not
// attach one).
func (l *Log) Spec() json.RawMessage { return l.head.Spec }

// Records reports the total number of event records.
func (l *Log) Records() int { return l.records }

// Fail latches a pre-replay failure (e.g. the replaying world built a
// different number of stops than the log records). First error wins.
func (l *Log) Fail(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.setup == nil && err != nil {
		l.setup = err
	}
}

// latch records stop's first divergence.
func (l *Log) latch(stop int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.errs[stop]; !ok {
		l.errs[stop] = err
	}
}

// Err reports the replay's first error in deterministic order: a setup
// failure if any, else the lowest-stop divergence. Nil means every
// cursor consumed its shard exactly.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.setup != nil {
		return l.setup
	}
	first := -1
	for stop := range l.errs {
		if first < 0 || stop < first {
			first = stop
		}
	}
	if first < 0 {
		return nil
	}
	return l.errs[first]
}

// Cursor returns the replay feed for one stop. Each cursor is used by
// a single stop's medium (one goroutine); divergences latch into the
// shared Log.
func (l *Log) Cursor(stop int) *Cursor {
	return &Cursor{log: l, stop: stop, recs: l.stops[stop]}
}

// Cursor implements radio.FrameReplayer over one stop's records.
type Cursor struct {
	log  *Log
	stop int
	recs []logRec
	next int
	err  error
}

// diverge latches the cursor's first error, positioned at the record
// that disagreed (or the last record, when the log ran out).
func (c *Cursor) diverge(msg string) {
	if c.err != nil {
		return
	}
	index, offset := 0, int64(0)
	switch {
	case c.next > 0 && c.next <= len(c.recs):
		lr := c.recs[c.next-1]
		index, offset = lr.index, lr.offset
	case len(c.recs) > 0:
		lr := c.recs[len(c.recs)-1]
		index, offset = lr.index, lr.offset
	}
	c.err = &DivergenceError{Stop: c.stop, Record: index, Offset: offset, Msg: msg}
	c.log.latch(c.stop, c.err)
}

// Diverge implements radio.FrameReplayer.
func (c *Cursor) Diverge(format string, args ...any) {
	c.diverge(fmt.Sprintf(format, args...))
}

// take consumes the next record; nil after divergence or when the
// shard is exhausted (which latches).
func (c *Cursor) take(what string) *logRec {
	if c.err != nil {
		return nil
	}
	if c.next >= len(c.recs) {
		c.diverge(fmt.Sprintf("log exhausted after %d records: live run still wants %s", len(c.recs), what))
		return nil
	}
	lr := &c.recs[c.next]
	c.next++
	return lr
}

// ReplayTx implements radio.FrameReplayer.
func (c *Cursor) ReplayTx(src string, at eventsim.Time, data []byte, rate phy.Rate) (*radio.FrameTx, bool) {
	lr := c.take(fmt.Sprintf("a transmission from %q at %d", src, at))
	if lr == nil {
		return nil, false
	}
	tx := lr.rec.TX
	switch {
	case tx == nil:
		c.diverge(fmt.Sprintf("live run transmits from %q at %d, log recorded a cca check by %q", src, at, lr.rec.CCA.Src))
	case tx.Src != src:
		c.diverge(fmt.Sprintf("transmitter mismatch: live %q, log %q", src, tx.Src))
	case tx.Start != at:
		c.diverge(fmt.Sprintf("tx from %q: live at %d, log at %d", src, at, tx.Start))
	case tx.Rate != rate:
		c.diverge(fmt.Sprintf("tx from %q at %d: rate mismatch: live %s, log %s", src, at, rate, tx.Rate))
	case !bytes.Equal(tx.Data, data):
		c.diverge(fmt.Sprintf("tx from %q at %d: wire bytes differ (live %d bytes, log %d bytes)", src, at, len(data), len(tx.Data)))
	default:
		return tx, true
	}
	return nil, false
}

// ReplayCCA implements radio.FrameReplayer.
func (c *Cursor) ReplayCCA(src string, at eventsim.Time) (bool, bool) {
	lr := c.take(fmt.Sprintf("a cca check by %q at %d", src, at))
	if lr == nil {
		return false, false
	}
	cca := lr.rec.CCA
	switch {
	case cca == nil:
		c.diverge(fmt.Sprintf("live run checks cca at %q at %d, log recorded a transmission from %q", src, at, lr.rec.TX.Src))
	case cca.Src != src:
		c.diverge(fmt.Sprintf("cca radio mismatch: live %q, log %q", src, cca.Src))
	case cca.At != at:
		c.diverge(fmt.Sprintf("cca by %q: live at %d, log at %d", src, at, cca.At))
	default:
		return cca.Busy, true
	}
	return false, false
}

// Close validates that the stop consumed its whole shard: a live run
// that stopped asking for events mid-log is as much a divergence as
// one that asked for the wrong event. The world calls it after the
// stop's sim loop finishes.
func (c *Cursor) Close() {
	if c.err == nil && c.next < len(c.recs) {
		lr := c.recs[c.next]
		c.err = &DivergenceError{
			Stop: c.stop, Record: lr.index, Offset: lr.offset,
			Msg: fmt.Sprintf("live run ended after %d of %d recorded events", c.next, len(c.recs)),
		}
		c.log.latch(c.stop, c.err)
	}
}

// Err reports the cursor's latched divergence, if any.
func (c *Cursor) Err() error { return c.err }
