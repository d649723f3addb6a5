package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"politewifi/internal/dot11"
	"politewifi/internal/eventsim"
	"politewifi/internal/phy"
	"politewifi/internal/radio"
)

var (
	fakeMAC   = dot11.MustMAC("aa:bb:bb:bb:bb:bb")
	victimMAC = dot11.MustMAC("f2:6e:0b:12:34:56")
)

func sniffEnv() (*radio.Medium, *radio.Radio, *Capture) {
	sched := eventsim.NewScheduler()
	rng := eventsim.NewRNG(2)
	m := radio.NewMedium(sched, rng, radio.Config{PathLoss: radio.LogDistance{Exponent: 2}})
	tx := m.NewRadio("tx", radio.Position{}, phy.Band2GHz, 6)
	sniffer := m.NewRadio("sniffer", radio.Position{X: 2}, phy.Band2GHz, 6)
	cap := &Capture{}
	cap.Attach(sniffer)
	return m, tx, cap
}

func TestCaptureRecords(t *testing.T) {
	m, tx, cap := sniffEnv()
	wire, _ := dot11.Serialize(dot11.NewNullFrame(victimMAC, fakeMAC, fakeMAC, 5))
	tx.Transmit(wire, phy.Rate24)
	for m.Sched.Step() {
	}
	if cap.Len() != 1 {
		t.Fatalf("captured = %d", cap.Len())
	}
	r := cap.Records[0]
	if !r.FCSOK || r.Time == 0 {
		t.Fatalf("record = %+v", r)
	}
	f := r.Frame()
	if f == nil || f.ReceiverAddress() != victimMAC {
		t.Fatal("frame decode from record failed")
	}
}

func TestCaptureSkipsCorrupt(t *testing.T) {
	m, tx, cap := sniffEnv()
	wire, _ := dot11.Serialize(dot11.NewNullFrame(victimMAC, fakeMAC, fakeMAC, 5))
	bad := append([]byte(nil), wire...)
	bad[0] ^= 0xff
	tx.Transmit(bad, phy.Rate24)
	for m.Sched.Step() {
	}
	if cap.Len() != 1 {
		t.Fatalf("captured = %d", cap.Len()) // delivered but FCS-broken bytes
	}
	// The record decodes to nil because the FCS is wrong.
	if cap.Records[0].Frame() != nil {
		t.Fatal("corrupt frame decoded")
	}
}

func TestSummary(t *testing.T) {
	m, tx, cap := sniffEnv()
	frames := []dot11.Frame{
		dot11.NewNullFrame(victimMAC, fakeMAC, fakeMAC, 1),
		&dot11.Ack{RA: fakeMAC},
		&dot11.Ack{RA: victimMAC},
	}
	for _, f := range frames {
		wire, _ := dot11.Serialize(f)
		tx.Transmit(wire, phy.Rate24)
		for m.Sched.Step() {
		}
	}
	sum := cap.Summary()
	if sum["Acknowledgement"] != 2 || sum["Null function (No data)"] != 1 {
		t.Fatalf("summary = %v", sum)
	}
}

func TestTableRendering(t *testing.T) {
	m, tx, cap := sniffEnv()
	wire, _ := dot11.Serialize(dot11.NewNullFrame(victimMAC, fakeMAC, fakeMAC, 5))
	tx.Transmit(wire, phy.Rate24)
	for m.Sched.Step() {
	}
	wire2, _ := dot11.Serialize(&dot11.Ack{RA: fakeMAC})
	tx.Transmit(wire2, phy.Rate24)
	for m.Sched.Step() {
	}

	table := cap.Table(victimMAC)
	if !strings.Contains(table, "Null function (No data)") {
		t.Fatalf("table missing null frame:\n%s", table)
	}
	if !strings.Contains(table, "Acknowledgement") {
		t.Fatalf("table missing ACK:\n%s", table)
	}
	// The victim's address is abbreviated like the paper's figures.
	if !strings.Contains(table, "f2:6e:0b:…") {
		t.Fatalf("abbreviation missing:\n%s", table)
	}
	if strings.Contains(table, victimMAC.String()) {
		t.Fatal("full victim MAC leaked into table")
	}
	// The fake MAC appears in full as both source and ACK destination.
	if !strings.Contains(table, "aa:bb:bb:bb:bb:bb") {
		t.Fatal("fake MAC missing")
	}
}

func TestWritePcap(t *testing.T) {
	m, tx, cap := sniffEnv()
	wire, _ := dot11.Serialize(dot11.NewNullFrame(victimMAC, fakeMAC, fakeMAC, 1))
	tx.Transmit(wire, phy.Rate24)
	for m.Sched.Step() {
	}

	var buf bytes.Buffer
	if err := cap.WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if len(b) != 24+16+len(wire) {
		t.Fatalf("pcap size = %d", len(b))
	}
	if binary.LittleEndian.Uint32(b[0:]) != 0xa1b2c3d4 {
		t.Fatal("bad magic")
	}
	if binary.LittleEndian.Uint32(b[20:]) != 105 {
		t.Fatal("bad linktype")
	}
	inclLen := binary.LittleEndian.Uint32(b[24+8:])
	if int(inclLen) != len(wire) {
		t.Fatalf("record length = %d, want %d", inclLen, len(wire))
	}
	if !bytes.Equal(b[24+16:], wire) {
		t.Fatal("frame bytes mangled")
	}
}

func TestClear(t *testing.T) {
	m, tx, cap := sniffEnv()
	wire, _ := dot11.Serialize(&dot11.Ack{RA: fakeMAC})
	tx.Transmit(wire, phy.Rate24)
	for m.Sched.Step() {
	}
	cap.Clear()
	if cap.Len() != 0 {
		t.Fatal("Clear did not drop records")
	}
}

func TestPcapRoundTrip(t *testing.T) {
	m, tx, cap := sniffEnv()
	frames := []dot11.Frame{
		dot11.NewNullFrame(victimMAC, fakeMAC, fakeMAC, 1),
		&dot11.Ack{RA: fakeMAC},
		&dot11.RTS{RA: victimMAC, TA: fakeMAC, Duration: 100},
	}
	for _, f := range frames {
		wire, _ := dot11.Serialize(f)
		tx.Transmit(wire, phy.Rate24)
		for m.Sched.Step() {
		}
	}
	var buf bytes.Buffer
	if err := cap.WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	records, err := readPcap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(cap.Records) {
		t.Fatalf("read %d records, wrote %d", len(records), len(cap.Records))
	}
	for i, r := range records {
		if !bytes.Equal(r.Data, cap.Records[i].Data) {
			t.Fatalf("record %d bytes differ", i)
		}
		// Timestamps round to microseconds.
		wantUS := cap.Records[i].Time / eventsim.Microsecond
		if r.Time/eventsim.Microsecond != wantUS {
			t.Fatalf("record %d time %v, want %vµs", i, r.Time, wantUS)
		}
		if r.Frame() == nil {
			t.Fatalf("record %d does not decode", i)
		}
	}
}

func TestReadPcapErrors(t *testing.T) {
	if _, err := readPcap(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := readPcap(bytes.NewReader(make([]byte, 24))); err != errNotPcap {
		t.Fatalf("bad magic err = %v", err)
	}
	// Right magic, wrong linktype.
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:], 0xa1b2c3d4)
	binary.LittleEndian.PutUint32(hdr[20:], 1) // ethernet
	if _, err := readPcap(bytes.NewReader(hdr)); err == nil {
		t.Fatal("wrong linktype accepted")
	}
	// Truncated record body.
	var buf bytes.Buffer
	cap := &Capture{Records: []Record{{Time: 1, Data: []byte{1, 2, 3, 4, 5}}}}
	cap.WritePcap(&buf)
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, err := readPcap(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated record accepted")
	}
}

// errNotPcap is returned when the input lacks the classic pcap magic.
var errNotPcap = errors.New("trace: not a pcap file")

// readPcap is the oracle for WritePcap: it parses a classic
// little-endian microsecond pcap stream (as produced by WritePcap or
// by Wireshark saving a DLT 105 capture) back into records. FCSOK is true for every record: pcap has no channel
// for PHY verdicts, so corrupt frames simply fail to decode later.
func readPcap(r io.Reader) ([]Record, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: pcap header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != pcapMagicMicros {
		return nil, errNotPcap
	}
	if lt := binary.LittleEndian.Uint32(hdr[20:]); lt != LinkTypeIEEE80211 {
		return nil, fmt.Errorf("trace: unsupported linktype %d (want %d)", lt, LinkTypeIEEE80211)
	}
	var out []Record
	var rec [16]byte
	for {
		if _, err := io.ReadFull(r, rec[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return out, nil
			}
			return nil, fmt.Errorf("trace: record header: %w", err)
		}
		sec := binary.LittleEndian.Uint32(rec[0:])
		usec := binary.LittleEndian.Uint32(rec[4:])
		incl := binary.LittleEndian.Uint32(rec[8:])
		if incl > 1<<20 {
			return nil, fmt.Errorf("trace: implausible record length %d", incl)
		}
		data := make([]byte, incl)
		if _, err := io.ReadFull(r, data); err != nil {
			return nil, fmt.Errorf("trace: record body: %w", err)
		}
		out = append(out, Record{
			Time:  eventsim.Time(sec)*eventsim.Second + eventsim.Time(usec)*eventsim.Microsecond,
			Data:  data,
			FCSOK: true,
		})
	}
}
