package replay

import (
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
)

const (
	testHead = `{"schema":"politewifi.framelog/v1","stops":2}`
	testCCA  = `{"stop":0,"cca":{"src":"cl-a","at":142000}}`
)

// positionedCases are Load's rejection paths, each with the line
// index and byte offset it is reported at: the end of the offending
// line, or the end of the last complete record when truncated.
var positionedCases = func() []struct {
	name   string
	log    string
	record int
	offset int
	want   string
} {
	tx := `"tx":{"src":"cl-a","start":1,"end":2,"data":"AA=="}`
	badSchema := `{"schema":"politewifi.framelog/v0","stops":1}`
	negStops := `{"schema":"politewifi.framelog/v1","stops":-1}`
	outOfRange := testHead + "\n" + testCCA + "\n" + `{"stop":2,"cca":{"src":"cl-a","at":1}}`
	negStop := testHead + "\n" + `{"stop":-1,"cca":{"src":"cl-a","at":1}}`
	both := testHead + "\n" + `{"stop":0,` + tx + `,"cca":{"src":"cl-a","at":1}}`
	neither := testHead + "\n" + `{"stop":0}`
	return []struct {
		name   string
		log    string
		record int
		offset int
		want   string
	}{
		{"empty", "", 0, 0, "empty log"},
		{"wrong-schema", badSchema + "\n", 0, len(badSchema), `head schema "politewifi.framelog/v0"`},
		{"negative-stops", negStops + "\n", 0, len(negStops), "head claims -1 stops"},
		{"stop-out-of-range", outOfRange + "\n", 2, len(outOfRange), "stop index 2 out of range (head claims 2 stops)"},
		{"negative-stop", negStop + "\n", 1, len(negStop), "stop index -1 out of range"},
		{"both-tx-and-cca", both + "\n", 1, len(both), "exactly one of tx/cca"},
		{"neither-tx-nor-cca", neither + "\n", 1, len(neither), "exactly one of tx/cca"},
		{"truncated-record", testHead + "\n" + `{"stop":0,"cca":{"src":"cl`, 1, len(testHead), "truncated record"},
	}
}()

// TestLoadPositionedErrors pins every rejection path of Load to a
// *PosError carrying the offending line index and the decoder's byte
// offset.
func TestLoadPositionedErrors(t *testing.T) {
	for _, tc := range positionedCases {
		t.Run(tc.name, func(t *testing.T) {
			l, err := Load(strings.NewReader(tc.log))
			if err == nil {
				t.Fatalf("Load accepted the log (%d records)", l.Records())
			}
			var pe *PosError
			if !errors.As(err, &pe) {
				t.Fatalf("error %v (%T) is not a *PosError", err, err)
			}
			if pe.Record != tc.record || pe.Offset != int64(tc.offset) {
				t.Fatalf("position = record %d, offset %d; want record %d, offset %d (%v)",
					pe.Record, pe.Offset, tc.record, tc.offset, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestLoadTruncatedRecordWrapsEOF keeps the truncation cause
// inspectable through the positioned error.
func TestLoadTruncatedRecordWrapsEOF(t *testing.T) {
	_, err := Load(strings.NewReader(testHead + "\n" + `{"stop":0,`))
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want it to wrap io.ErrUnexpectedEOF", err)
	}
}

// TestLoadHugeStopsHeadIsCheap guards against allocating from the
// untrusted head: a tiny log claiming 2^31-1 stops must load with
// memory proportional to its records, not its claim.
func TestLoadHugeStopsHeadIsCheap(t *testing.T) {
	const claimed = 2147483647
	log := `{"schema":"politewifi.framelog/v1","stops":2147483647}` + "\n" + testCCA + "\n"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l, err := Load(strings.NewReader(log))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if l.Stops() != claimed || l.Records() != 1 {
		t.Fatalf("Stops() = %d, Records() = %d; want %d, 1", l.Stops(), l.Records(), claimed)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("loading a %d-byte log allocated %d bytes", len(log), grew)
	}
	// The claimed stop range is still enforced for records.
	_, err = Load(strings.NewReader(log + `{"stop":2147483647,"cca":{"src":"cl-a","at":1}}` + "\n"))
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("record at the claimed stop count: err = %v, want out of range", err)
	}
}

// TestLogErrLowestStopFirst checks Err's deterministic order:
// whatever order stops diverge in, the lowest stop's divergence is
// reported — including stops that carry no records at all.
func TestLogErrLowestStopFirst(t *testing.T) {
	log := `{"schema":"politewifi.framelog/v1","stops":3}` + "\n" +
		`{"stop":2,"cca":{"src":"cl-a","at":1}}` + "\n"
	l, err := Load(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Err(); err != nil {
		t.Fatalf("fresh log Err() = %v", err)
	}
	l.Cursor(2).Close() // stop 2 never consumed its one record
	if _, ok := l.Cursor(1).ReplayCCA("cl-a", 5); ok {
		t.Fatal("stop 1 has no records but replayed a cca check")
	}
	var de *DivergenceError
	if !errors.As(l.Err(), &de) || de.Stop != 1 {
		t.Fatalf("Err() = %v, want stop 1's divergence", l.Err())
	}
	if !strings.Contains(de.Msg, "log exhausted after 0 records") {
		t.Fatalf("stop 1 divergence = %q", de.Msg)
	}
}
