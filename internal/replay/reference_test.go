package replay

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sort"
	"testing"
	"testing/iotest"
)

// loadReference is Load written against encoding/json's Decoder: the
// oracle the hand-written reader is held to.
func loadReference(r io.Reader) (*Log, error) {
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

// isDataArray reports the one shape Load is stricter on than
// encoding/json (see the package doc): a tx "data" member that is a
// JSON array.
func isDataArray(err error) bool {
	var te *typeError
	return errors.As(err, &te) && te.field == "tx.data" && te.value == "array"
}

// chunkReader reads at most n bytes per call.
type chunkReader struct {
	r io.Reader
	n int
}

func (c chunkReader) Read(p []byte) (int, error) {
	return c.r.Read(p[:min(len(p), c.n)])
}

// checkLoad holds Load to loadReference on one input, read whole and
// in short reads, so that buffer refills fall inside values: both
// accept with equal logs, or both reject at the same record and byte
// offset. Load may also reject earlier than the reference where a
// record has the stricter shape.
func checkLoad(t *testing.T, data []byte) {
	t.Helper()
	want, werr := loadReference(bytes.NewReader(data))
	for _, rd := range []struct {
		name string
		r    io.Reader
	}{
		{"whole", bytes.NewReader(data)},
		{"bytewise", iotest.OneByteReader(bytes.NewReader(data))},
		{"eof-with-data", iotest.DataErrReader(chunkReader{bytes.NewReader(data), 7})},
	} {
		got, gerr := Load(rd.r)
		var gp, wp *PosError
		switch {
		case gerr == nil && werr == nil:
			if msg := logDiff(got, want); msg != "" {
				t.Fatalf("%s: logs differ: %s", rd.name, msg)
			}
		case gerr != nil && !errors.As(gerr, &gp):
			t.Fatalf("%s: Load error %v (%T) is not a *PosError", rd.name, gerr, gerr)
		case isDataArray(gerr) && (werr == nil || errors.As(werr, &wp) && wp.Record >= gp.Record):
			// The stricter shape; the reference took it as bytes.
		case gerr == nil || werr == nil:
			t.Fatalf("%s: Load err = %v, reference err = %v", rd.name, gerr, werr)
		default:
			errors.As(werr, &wp)
			if gp.Record != wp.Record || gp.Offset != wp.Offset {
				t.Fatalf("%s: Load rejects at record %d offset %d (%v); reference at record %d offset %d (%v)",
					rd.name, gp.Record, gp.Offset, gerr, wp.Record, wp.Offset, werr)
			}
			if errors.Is(werr, io.ErrUnexpectedEOF) != errors.Is(gerr, io.ErrUnexpectedEOF) {
				t.Fatalf("%s: truncation differs: Load %v, reference %v", rd.name, gerr, werr)
			}
		}
	}
}

// logDiff describes how two loaded logs differ ("" when they do not).
// reflect.DeepEqual keeps nil and empty slices apart.
func logDiff(got, want *Log) string {
	if !reflect.DeepEqual(got.head, want.head) {
		return fmt.Sprintf("head %+v, want %+v", got.head, want.head)
	}
	if got.records != want.records {
		return fmt.Sprintf("%d records, want %d", got.records, want.records)
	}
	if len(got.stops) != len(want.stops) {
		return fmt.Sprintf("%d stops with records, want %d", len(got.stops), len(want.stops))
	}
	stops := make([]int, 0, len(want.stops))
	for stop := range want.stops {
		stops = append(stops, stop)
	}
	sort.Ints(stops)
	for _, stop := range stops {
		w, g := want.stops[stop], got.stops[stop]
		if len(g) != len(w) {
			return fmt.Sprintf("stop %d: %d records, want %d", stop, len(g), len(w))
		}
		for i := range w {
			if !reflect.DeepEqual(g[i], w[i]) {
				gj, _ := json.Marshal(g[i].rec)
				wj, _ := json.Marshal(w[i].rec)
				return fmt.Sprintf("stop %d record %d: index %d offset %d %s (rx nil %v data nil %v), want index %d offset %d %s (rx nil %v data nil %v)",
					stop, i, g[i].index, g[i].offset, gj, rxNil(g[i].rec), dataNil(g[i].rec),
					w[i].index, w[i].offset, wj, rxNil(w[i].rec), dataNil(w[i].rec))
			}
		}
	}
	return ""
}

func rxNil(r Record) bool   { return r.TX != nil && r.TX.Rx == nil }
func dataNil(r Record) bool { return r.TX != nil && r.TX.Data == nil }
