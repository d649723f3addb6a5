package replay

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"

	"politewifi/internal/eventsim"
	"politewifi/internal/phy"
	"politewifi/internal/radio"
)

// goldenLog is the world package's committed frame log.
func goldenLog(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "world", "testdata", "framelog_golden.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// shapeLogs are inputs that reach each corner of encoding/json's
// decoding rules the reader reproduces: member names in any case,
// duplicates, nulls, escapes, several values on a line, and malformed
// or mistyped values at every level.
func shapeLogs() []string {
	h := testHead + "\n"
	cca := `"cca":{"src":"a","at":1}`
	tx := func(body string) string { return h + `{"stop":0,"tx":{` + body + `}}` + "\n" }
	logs := []string{
		h + `{"STOP":1,"CCA":{"SRC":"a","At":1,"BUSY":true}}`,
		h + "{\"\xc5\xbftop\":1,\"cca\":{\"\xc5\xbfrc\":\"a\",\"at\":1}}", // U+017F folds to s
		h + "{\"stop\":0,\"cca\":{\"src\":\"a\",\"at\":1,\"bu\xc5\xbfy\":true}}",
		h + `{"st\u006fp":1,"cc\u0061":{"src":"a","at":1}}`,
		h + `{"stop":0,` + cca + `,"stop":1}`,
		h + `{"stop":0,"tx":null,` + cca + `}`,
		h + `{"stop":null,` + cca + `}`,
		h + `{"stop":0,"cca":{"src":"a","at":1},"cca":{"at":2,"busy":true},"cca":{"busy":null}}`,
		h + `{"stop":0,"cca":{"src":"a","at":1},"cca":null}`,
		h + `{"stop":0,"cca":{"src":"a","at":1}}{"stop":1,"cca":{"src":"b","at":2}}`,
		h + "\t{ \"stop\" : 0 ,\r\n \"cca\" : { \"src\" : \"a\" , \"at\" : 1 } }  \n\n  ",
		h + `{"stop":0,"x":[1,{"y":[true,false,null,"s\n",-1.5e3,{}]}],"cca":{"src":"a","at":1,"z":{"q":[]}}}`,
		h + `null`,
		h + "null\n",
		h + `nullx`,
		h + `null{}`,
		h + `{}`,
		h + `{"stop":0,"tx":{"src":"a"},"cca":null}`,
		h + `123`, h + `123 `, h + `12x`, h + `"x"`, h + `"x"y`, h + `true`, h + `[]`, h + `[1,2]`, h + `-`, h + `-x`,
		h + `{"stop":0,` + cca + `}x`,
		h + `{"stop":0,` + cca + `,}`,
		h + `{"stop":0 ` + cca + `}`,
		h + `{"stop" 0}`,
		h + `{"stop":01}`,
		h + `{"stop":1.}`,
		h + `{"stop":1e}`,
		h + `{"stop":1e+}`,
		h + `{"stop":-0,` + cca + `}`,
		h + `{"stop":1.0,` + cca + `}`,
		h + `{"stop":1e0,` + cca + `}`,
		h + `{"stop":"0",` + cca + `}`,
		h + `{"stop":true,` + cca + `}`,
		h + `{"stop":[],` + cca + `}`,
		h + `{"stop":9223372036854775808,` + cca + `}`,
		h + `{"stop":-9223372036854775808,` + cca + `}`,
		h + `{"stop":0,"cca":{"src":"a","at":-9223372036854775808}}`,
		h + `{"stop":0,"cca":{"src":"a","at":-9223372036854775809}}`,
		h + `{"stop":0,"cca":{"src":1,"at":1}}`,
		h + `{"stop":0,"cca":{"src":"a","at":1,"busy":1}}`,
		h + `{"stop":0,"cca":{"src":"a","at":1,"busy":"true"}}`,
		h + `{"stop":0,"cca":[]}`,
		h + `{"stop":0,"cca":"x"}`,
		h + `{"stop":0,"cca":{"src":"a` + "\x01" + `","at":1}}`,
		h + `{"stop":0,"cca":{"src":"a\q","at":1}}`,
		h + `{"stop":0,"cca":{"src":"a\u12G4","at":1}}`,
		h + `{"stop":0,"cca":{"src":"\"\\\/\b\f\n\r\t\u00e9\ud83d\ude00\ud800x\udc00\ud800\u0041\ud800\ud800\udc00<>&","at":1}}`,
		h + "{\"stop\":0,\"cca\":{\"src\":\"\xff\xfe\xed\xa0\x80\xe2\x80\xa8\xc3\",\"at\":1}}",
		h + `{"stop":0,"cca":{"src":"\ud800"}}`,
		h + `{"stop":0,"cca":{"src":"a","at":1}}` + "\n" + `"\ud800"`,
		h + `{"stop":0,"cca":{"src":"a","at":1}}` + "\n" + `"\ud800\`,
		h + `{"stop":0,"cca":{"src":"a","at":1}}` + "\n" + `"\ud800\u`,
		tx(`"src":"a","start":1,"end":2,"rate":{"Mbps":5.5,"Mod":0,"NDBPS":0,"Basic":false,"HT":false},"data":"AA==","label":"ACK","exchange":18446744073709551615,"below_sens":-3`),
		tx(`"src":"a","exchange":18446744073709551616`),
		tx(`"src":"a","exchange":-1`),
		tx(`"src":"a","exchange":-0`),
		tx(`"src":"a","exchange":1.5`),
		tx(`"src":"a","rate":{"mbps":1e400}`),
		tx(`"src":"a","rate":{"mbps":-1e-400,"mod":-0,"ndbps":7,"basic":true,"ht":null,"extra":1}`),
		tx(`"src":"a","rate":{"Mbps":-0.0,"MOD":1.5}`),
		tx(`"src":"a","rate":null,"data":null,"rx":null,"label":null`),
		tx(`"src":"a","rate":[]`),
		tx(`"src":"a","data":""`),
		tx(`"src":"a","data":"AA\n=="`),
		tx(`"src":"a","data":"\u0041\u0041=="`),
		tx(`"src":"a","data":"A"`),
		tx(`"src":"a","data":"A==="`),
		tx(`"src":"a","data":"="`),
		tx(`"src":"a","data":"\n"`),
		tx(`"src":"a","data":"AQID","data":null`),
		tx(`"src":"a","data":null,"data":"AQID"`),
		tx(`"src":"a","data":5`),
		tx(`"src":"a","rx":[]`),
		tx(`"src":"a","rx":[null,{},null]`),
		tx(`"src":"a","rx":{}`),
		tx(`"src":"a","rx":[1]`),
		tx(`"src":"a","rx":[{"dst":"b","begin":1,"end":2,"rssi":-43.85122405962922,"fx":"lock","out":"deliver","fcs":true,"drop":"snr","consulted":true}]`),
		tx(`"src":"a","rx":[{"DST":"b","Rssi":1E-7,"FCS":false,"x":null}]`),
		tx(`"src":"a","rx":[{"dst":"b","fx":"lock"},{"dst":"c","rssi":2},{"dst":"d"}],"rx":[{"out":"deliver"}],"rx":[null,null,{"fcs":true},null]`),
		tx(`"src":"a","rx":[{"dst":"b"}],"rx":[],"rx":[null]`),
		tx(`"src":"a","rx":[],"rx":[{"dst":"b"}]`),
		tx(`"src":"a","rx":[{"dst":"b"}],"rx":null,"rx":[null]`),
		tx(`"src":"a","rx":[{"dst":"b"},{"dst":"c"},{"dst":"d"},{"dst":"e"},{"dst":"f"}],"rx":[{}],"rx":[null,null,null,null,null,null,null,null,null]`),
		h + `{"stop":0,"tx":{"src":"a","rx":[{"dst":"b"},{"dst":"c"}]},"tx":{"end":5,"rx":[{"rssi":1}]},"tx":{"rx":[null,null,null]}}`,
		h + `{"stop":0,"tx":{"src":"a","rx":[{"dst":"b"}]},"tx":null,"tx":{"end":1,"rx":[null]}}`,
		h + `{"stop":0,"tx":{"src":"a","rx":[{"dst":"b"}]}}`,
		h + `{"stop":0,"tx":{"src":"a","data":[1,2,255]}}`,
		h + `{"stop":0,"tx":{"src":"a","data":[1,2,256]}}`,
		h + `{"stop":0,"tx":{"src":"a","data":[1,2,}}`,
		h + `{"stop":0,"tx":{"src":"a","data":[1,2]},"stop":-1}` + "\n" + `{"stop":0,"cca":{"src":"a","at":1}}`,
		h + `{"stop":0,"tx":{"src":"a","data":[1]}}` + "\n" + `{"stop":0,"cca":{"src":"a","at":1}` + "\n",
		h + `{"stop":0,"tx":{"src":"a","start":"x","data":"AA"}}`,
		h + `{"stop":0,"tx":{"src":"a","start":"x","end":}}`,
		`{"schema":"politewifi.framelog/v1","stops":1,"spec":null}` + "\n" + `{"stop":0,"cca":{"src":"a","at":1}}`,
		`{"schema":"politewifi.framelog/v1","stops":1,"spec": { "a" : [1, 2] } , "x":1}`,
		`{"schema":"politewifi.framelog/v1","stops":1}{"stop":0,"cca":{"src":"a","at":1}}`,
		`{"schema":"politewifi.framelog/v1","stops":"1"}`,
		`{"schema":"politewifi.framelog/v1","stops":1}x`,
		`{"schema":"politewifi.framelog/v1",`,
		`[]`, `"x"`, `1`, `nul`, " \n\t ", "\xef\xbb\xbf{}",
	}
	for _, depth := range []int{maxDepth - 1, maxDepth} {
		deep := strings.Repeat("[", depth) + strings.Repeat("]", depth)
		logs = append(logs, h+`{"stop":0,`+cca+`,"x":`+deep+`}`)
	}
	return logs
}

func TestLoadMatchesReference(t *testing.T) {
	checkLoad(t, goldenLog(t))
	for _, log := range shapeLogs() {
		t.Run("", func(t *testing.T) { checkLoad(t, []byte(log)) })
	}
	for _, tc := range positionedCases {
		checkLoad(t, []byte(tc.log))
	}
}

// TestLoadTruncatedAnywhere cuts the golden log at every byte of its
// first records: both readers agree on each prefix.
func TestLoadTruncatedAnywhere(t *testing.T) {
	log := goldenLog(t)
	end := bytes.IndexByte(log, '\n') + 1
	for i := 0; i < 4; i++ {
		end += bytes.IndexByte(log[end:], '\n') + 1
	}
	for n := 0; n <= end; n++ {
		checkLoad(t, log[:n])
	}
}

// TestLoadLongValueShortReads reads a record with 1 MiB of wire bytes
// one byte at a time. Load parses a value again after each refill that
// leaves it incomplete, so refills must grow geometrically: one parse
// per byte read would scan ~10^12 bytes here.
func TestLoadLongValueShortReads(t *testing.T) {
	data := bytes.Repeat([]byte{0xa5}, 1<<20)
	rec := Record{TX: &radio.FrameTx{Src: "a", Data: data}}
	line, err := appendRecord([]byte(testHead+"\n"), &rec)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Load(iotest.OneByteReader(bytes.NewReader(line)))
	if err != nil {
		t.Fatal(err)
	}
	if got := l.stops[0][0].rec.TX.Data; !bytes.Equal(got, data) {
		t.Fatalf("loaded %d wire bytes, want %d", len(got), len(data))
	}
}

func FuzzLoad(f *testing.F) {
	log := goldenLog(f)
	f.Add(log)
	// The head and the first records, one seed per record count, so
	// mutations stay small.
	lines := bytes.SplitAfter(log, []byte("\n"))
	for n := 1; n <= 6 && n <= len(lines); n++ {
		f.Add(bytes.Join(lines[:n], nil))
	}
	for _, tc := range positionedCases {
		f.Add([]byte(tc.log))
	}
	for _, s := range shapeLogs() {
		if len(s) < 1000 {
			f.Add([]byte(s))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkLoad(t, data)
	})
}

// TestAppendRecordMatchesGolden re-encodes every record of the golden
// log: the bytes equal both the committed line and json.Marshal's.
func TestAppendRecordMatchesGolden(t *testing.T) {
	sc := bufio.NewScanner(bytes.NewReader(goldenLog(t)))
	sc.Buffer(nil, 1<<20)
	sc.Scan() // head
	var buf []byte
	for n := 1; sc.Scan(); n++ {
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		var err error
		if buf, err = appendRecord(buf[:0], &rec); err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(&rec)
		if !bytes.Equal(buf, sc.Bytes()) || !bytes.Equal(buf, want) {
			t.Fatalf("record %d:\n got %s\nline %s\n json %s", n, buf, sc.Bytes(), want)
		}
	}
}

func FuzzAppendRecord(f *testing.F) {
	bits := math.Float64bits
	f.Add(int64(0), "cl-f0:18:98:a9:89:d4", int64(142000), int64(178000), bits(24), 3, 96, true, false,
		[]byte{0xb0, 0, 0x2c}, "Probe Request", uint64(7), 0, bits(-43.85122405962922), "lock", "deliver", "", byte(0), uint8(1))
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324,
		math.SmallestNonzeroFloat64 * 3, 1e-6, 9.99999e-7, 1e21, 999999999999999900000, 1e-7, -1e300, math.MaxFloat64, 0.1} {
		f.Add(int64(-1), "a<b>&c", int64(math.MinInt64), int64(math.MaxInt64), bits(v), -1, math.MaxInt, false, true,
			[]byte{}, "x\u2028y\u2029", uint64(math.MaxUint64), math.MinInt, bits(-v), "\x00\x1f\"\\", "\xff\xfe", "\xe2\x80", byte(0xff), uint8(4))
	}
	f.Fuzz(func(t *testing.T, stop int64, src string, start, end int64, mbps uint64, mod, ndbps int, basic, ht bool,
		data []byte, label string, exchange uint64, belowSens int, rssi uint64, fx, out, drop string, flags byte, nrx uint8) {
		rec := Record{Stop: int(stop)}
		if flags&1 == 0 {
			tx := &radio.FrameTx{
				Src: src, Start: eventsim.Time(start), End: eventsim.Time(end),
				Rate:  phy.Rate{Mbps: math.Float64frombits(mbps), Mod: phy.Modulation(mod), NDBPS: ndbps, Basic: basic, HT: ht},
				Data:  data,
				Label: label, Exchange: exchange, BelowSens: belowSens,
			}
			if flags&2 != 0 {
				tx.Data = nil
			}
			for i := 0; i < int(nrx%5); i++ {
				tx.Rx = append(tx.Rx, radio.FrameRx{
					Dst: fx + src, Begin: eventsim.Time(start) + eventsim.Time(i), End: eventsim.Time(end),
					RSSI: math.Float64frombits(rssi + uint64(i)), Fx: fx, Out: out, Drop: drop,
					FCSOK: flags&(4<<(i%2)) != 0, Consulted: flags&(16<<(i%2)) != 0,
				})
			}
			if flags&64 != 0 && tx.Rx == nil {
				tx.Rx = []radio.FrameRx{}
			}
			rec.TX = tx
		}
		if flags&1 != 0 || flags&128 != 0 {
			rec.CCA = &radio.CCACheck{Src: label, At: eventsim.Time(end), Busy: basic}
		}
		want, werr := json.Marshal(&rec)
		got, gerr := appendRecord([]byte("junk"), &rec)
		if werr != nil {
			if gerr == nil || gerr.Error() != werr.Error() {
				t.Fatalf("json.Marshal fails with %v; appendRecord with %v", werr, gerr)
			}
			return
		}
		if gerr != nil {
			t.Fatalf("appendRecord: %v (json.Marshal succeeds)", gerr)
		}
		if got = got[len("junk"):]; !bytes.Equal(got, want) {
			t.Fatalf("appendRecord:\n%s\njson.Marshal:\n%s", got, want)
		}
		// What the encoder writes, both readers read alike.
		checkLoad(t, append([]byte(`{"schema":"politewifi.framelog/v1","stops":9223372036854775807}`+"\n"), want...))
	})
}

// TestWriteStopAllocs pins the encoder's steady state: once its line
// buffer has grown, WriteStop allocates nothing per record.
func TestWriteStopAllocs(t *testing.T) {
	l, err := Load(bytes.NewReader(goldenLog(t)))
	if err != nil {
		t.Fatal(err)
	}
	logs := StopLogs(l)
	var out bytes.Buffer
	r := NewRecorder(&out)
	r.Begin(l.Stops())
	write := func() {
		out.Reset()
		for _, sl := range logs {
			r.WriteStop(sl)
		}
	}
	write()
	if got, want := out.Bytes(), goldenLog(t); !bytes.Equal(got, want[bytes.IndexByte(want, '\n')+1:]) {
		t.Fatalf("re-recorded golden records differ from the golden log")
	}
	if a := testing.AllocsPerRun(10, write); a != 0 {
		t.Fatalf("WriteStop allocates %.1f times per drive of %d records, want 0", a, l.Records())
	}
}
