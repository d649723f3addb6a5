package dot11

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"politewifi/internal/eventsim"
)

// appendFCS appends the 4-byte FCS for b to b.
func appendFCS(b []byte) []byte {
	fcs := FCS(b)
	return append(b, byte(fcs), byte(fcs>>8), byte(fcs>>16), byte(fcs>>24))
}

var (
	fakeMAC   = MustMAC("aa:bb:bb:bb:bb:bb")
	victimMAC = MustMAC("f2:6e:0b:12:34:56")
	apMAC     = MustMAC("f2:6e:0b:00:00:01")
)

func TestParseMAC(t *testing.T) {
	m, err := ParseMAC("aa:bb:cc:dd:ee:ff")
	if err != nil {
		t.Fatal(err)
	}
	if m != (MAC{0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff}) {
		t.Fatalf("ParseMAC = %v", m)
	}
	if m.String() != "aa:bb:cc:dd:ee:ff" {
		t.Fatalf("String() = %q", m.String())
	}
	// Dashes and uppercase accepted.
	m2, err := ParseMAC("AA-BB-CC-DD-EE-FF")
	if err != nil || m2 != m {
		t.Fatalf("dash/upper parse failed: %v %v", m2, err)
	}
	for _, bad := range []string{"", "aa:bb:cc:dd:ee", "aa:bb:cc:dd:ee:ff:00", "gg:bb:cc:dd:ee:ff", "a:bb:cc:dd:ee:ff"} {
		if _, err := ParseMAC(bad); err == nil {
			t.Errorf("ParseMAC(%q) succeeded, want error", bad)
		}
	}
}

func TestMACPredicates(t *testing.T) {
	if !Broadcast.IsGroup() || Broadcast.IsUnicast() {
		t.Fatal("broadcast predicates wrong")
	}
	if victimMAC.IsGroup() || !victimMAC.IsUnicast() {
		t.Fatal("unicast predicates wrong")
	}
	multicast := MustMAC("01:00:5e:00:00:01")
	if !multicast.IsGroup() || multicast == Broadcast {
		t.Fatal("multicast predicates wrong")
	}
	if ZeroMAC.IsUnicast() {
		t.Fatal("zero MAC should not be unicast")
	}
}

func TestMACMatches(t *testing.T) {
	if !victimMAC.Matches(victimMAC) {
		t.Fatal("self match failed")
	}
	if !Broadcast.Matches(victimMAC) {
		t.Fatal("broadcast must match any station")
	}
	if fakeMAC.Matches(victimMAC) {
		t.Fatal("foreign unicast must not match")
	}
}

func TestOUI(t *testing.T) {
	o := victimMAC.OUI()
	if o.String() != "f2:6e:0b" {
		t.Fatalf("OUI = %q", o)
	}
	m := o.WithSuffix(0x123456)
	if m != MustMAC("f2:6e:0b:12:34:56") {
		t.Fatalf("WithSuffix = %v", m)
	}
}

func TestFrameControlRoundTrip(t *testing.T) {
	f := func(v uint16) bool {
		return ParseFrameControl(v).Uint16() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSequenceControlRoundTrip(t *testing.T) {
	f := func(v uint16) bool {
		return ParseSequenceControl(v).Uint16() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNextSeq(t *testing.T) {
	if NextSeq(0) != 1 {
		t.Fatal("NextSeq(0) != 1")
	}
	if NextSeq(4095) != 0 {
		t.Fatal("NextSeq must wrap at 4096")
	}
}

func TestFrameControlNames(t *testing.T) {
	cases := map[string]FrameControl{
		"Null function (No data)": {Type: TypeData, Subtype: SubtypeNull},
		"Acknowledgement":         {Type: TypeControl, Subtype: SubtypeACK},
		"Deauthentication":        {Type: TypeManagement, Subtype: SubtypeDeauth},
		"Beacon frame":            {Type: TypeManagement, Subtype: SubtypeBeacon},
		"Request-to-send":         {Type: TypeControl, Subtype: SubtypeRTS},
		"Clear-to-send":           {Type: TypeControl, Subtype: SubtypeCTS},
	}
	for want, fc := range cases {
		if got := fc.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}

func TestFlagString(t *testing.T) {
	fc := FrameControl{ToDS: true, Retry: true}
	got := fc.FlagString()
	if got != "Flags=....R..T" {
		t.Fatalf("FlagString = %q", got)
	}
}

// roundTrip serializes then decodes a frame and returns the result.
func roundTrip(t *testing.T, f Frame) Frame {
	t.Helper()
	wire, err := Serialize(f)
	if err != nil {
		t.Fatalf("Serialize: %v", err)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return got
}

func TestAckRoundTrip(t *testing.T) {
	a := &Ack{RA: fakeMAC, Duration: 0}
	got := roundTrip(t, a).(*Ack)
	if got.RA != fakeMAC {
		t.Fatalf("RA = %v", got.RA)
	}
	wire, _ := Serialize(a)
	if len(wire) != 14 {
		t.Fatalf("ACK wire length = %d, want 14", len(wire))
	}
}

func TestCTSRoundTrip(t *testing.T) {
	c := &CTS{RA: fakeMAC, Duration: 44}
	got := roundTrip(t, c).(*CTS)
	if got.RA != fakeMAC || got.Duration != 44 {
		t.Fatalf("CTS = %+v", got)
	}
}

func TestRTSRoundTrip(t *testing.T) {
	r := &RTS{RA: victimMAC, TA: fakeMAC, Duration: 120}
	got := roundTrip(t, r).(*RTS)
	if got.RA != victimMAC || got.TA != fakeMAC || got.Duration != 120 {
		t.Fatalf("RTS = %+v", got)
	}
	wire, _ := Serialize(r)
	if len(wire) != 20 {
		t.Fatalf("RTS wire length = %d, want 20", len(wire))
	}
}

func TestPSPollRoundTrip(t *testing.T) {
	p := &PSPoll{AID: 5, BSSID: apMAC, TA: victimMAC}
	got := roundTrip(t, p).(*PSPoll)
	if got.AID != 5 || got.BSSID != apMAC || got.TA != victimMAC {
		t.Fatalf("PSPoll = %+v", got)
	}
}

func TestNullFrameRoundTrip(t *testing.T) {
	d := NewNullFrame(victimMAC, fakeMAC, apMAC, 7)
	got := roundTrip(t, d).(*Data)
	if !got.Null {
		t.Fatal("Null flag lost")
	}
	if got.Addr1 != victimMAC || got.Addr2 != fakeMAC || got.Addr3 != apMAC {
		t.Fatalf("addresses = %v %v %v", got.Addr1, got.Addr2, got.Addr3)
	}
	if got.Seq.Number != 7 {
		t.Fatalf("seq = %d", got.Seq.Number)
	}
	if len(got.Payload) != 0 {
		t.Fatal("null frame must carry no payload")
	}
	if got.Info() != "Null function (No data), SN=7, FN=0, Flags=........" {
		t.Fatalf("Info = %q", got.Info())
	}
}

func TestDataFrameRoundTrip(t *testing.T) {
	d := &Data{
		Header: Header{
			FC:    FrameControl{ToDS: true, Protected: true},
			Addr1: apMAC, Addr2: victimMAC, Addr3: MustMAC("00:11:22:33:44:55"),
			Seq: SequenceControl{Number: 99, Fragment: 1},
		},
		Payload: []byte("hello world"),
	}
	got := roundTrip(t, d).(*Data)
	if !got.FC.Protected || !got.FC.ToDS {
		t.Fatal("flags lost")
	}
	if string(got.Payload) != "hello world" {
		t.Fatalf("payload = %q", got.Payload)
	}
	if got.Seq.Fragment != 1 || got.Seq.Number != 99 {
		t.Fatalf("seq = %+v", got.Seq)
	}
}

func TestQoSDataRoundTrip(t *testing.T) {
	d := &Data{
		Header:  Header{Addr1: victimMAC, Addr2: apMAC, Addr3: apMAC},
		QoS:     true,
		TID:     6,
		Payload: []byte{1, 2, 3},
	}
	got := roundTrip(t, d).(*Data)
	if !got.QoS || got.TID != 6 {
		t.Fatalf("QoS fields = %+v", got)
	}
	if !bytes.Equal(got.Payload, []byte{1, 2, 3}) {
		t.Fatalf("payload = %v", got.Payload)
	}
}

func TestQoSNullRoundTrip(t *testing.T) {
	d := &Data{Header: Header{Addr1: victimMAC, Addr2: apMAC, Addr3: apMAC}, QoS: true, Null: true, TID: 0}
	got := roundTrip(t, d).(*Data)
	if !got.QoS || !got.Null {
		t.Fatalf("QoS null flags = %+v", got)
	}
}

func TestBeaconRoundTrip(t *testing.T) {
	b := &Beacon{
		Header:     Header{Addr1: Broadcast, Addr2: apMAC, Addr3: apMAC},
		Timestamp:  123456789,
		IntervalTU: 100,
		Capability: CapESS | CapPrivacy,
		IEs: []IE{
			SSIDElement("HomeNet"),
			RatesElement(6, 12, 24, 54),
			DSParamElement(6),
			RSNElement(),
			TIMElement(0, 3, []uint16{2, 5}),
		},
	}
	got := roundTrip(t, b).(*Beacon)
	if got.Timestamp != 123456789 || got.IntervalTU != 100 {
		t.Fatalf("fixed fields = %+v", got)
	}
	if got.SSID() != "HomeNet" {
		t.Fatalf("SSID = %q", got.SSID())
	}
	if ds, ok := FindIE(got.IEs, IEDSParam); !ok || !bytes.Equal(ds.Data, []byte{6}) {
		t.Fatalf("DS parameter = %v %v", ds, ok)
	}
	if _, ok := FindIE(got.IEs, IERSN); !ok {
		t.Fatal("RSN element lost")
	}
	if !TIMBuffered(got.IEs, 2) || !TIMBuffered(got.IEs, 5) {
		t.Fatal("TIM bits lost")
	}
	if TIMBuffered(got.IEs, 3) {
		t.Fatal("TIM bit 3 should be clear")
	}
	if TIMBuffered(got.IEs, 200) {
		t.Fatal("out-of-bitmap AID should be unbuffered")
	}
}

func TestProbeReqRoundTrip(t *testing.T) {
	p := &ProbeReq{
		Header: Header{Addr1: Broadcast, Addr2: victimMAC, Addr3: Broadcast},
		IEs:    []IE{SSIDElement(""), RatesElement(6, 12)},
	}
	got := roundTrip(t, p).(*ProbeReq)
	ssid, ok := FindSSID(got.IEs)
	if !ok || ssid != "" {
		t.Fatalf("wildcard SSID = %q %v", ssid, ok)
	}
}

func TestProbeRespRoundTrip(t *testing.T) {
	p := &ProbeResp{
		Header:     Header{Addr1: victimMAC, Addr2: apMAC, Addr3: apMAC},
		Timestamp:  42,
		IntervalTU: 100,
		Capability: CapESS,
		IEs:        []IE{SSIDElement("CoffeeShop"), DSParamElement(11)},
	}
	got := roundTrip(t, p).(*ProbeResp)
	ssid, _ := FindSSID(got.IEs)
	if ssid != "CoffeeShop" {
		t.Fatalf("SSID = %q", ssid)
	}
}

func TestDeauthRoundTrip(t *testing.T) {
	d := &Deauth{
		Header: Header{Addr1: fakeMAC, Addr2: apMAC, Addr3: apMAC, Seq: SequenceControl{Number: 3275}},
		Reason: ReasonClass3FromNonAssoc,
	}
	got := roundTrip(t, d).(*Deauth)
	if got.Reason != ReasonClass3FromNonAssoc {
		t.Fatalf("reason = %v", got.Reason)
	}
	if got.Info() != "Deauthentication, SN=3275, FN=0, Flags=........" {
		t.Fatalf("Info = %q", got.Info())
	}
}

func TestDisassocRoundTrip(t *testing.T) {
	d := &Disassoc{Header: Header{Addr1: victimMAC, Addr2: apMAC, Addr3: apMAC}, Reason: ReasonInactivity}
	got := roundTrip(t, d).(*Disassoc)
	if got.Reason != ReasonInactivity {
		t.Fatalf("reason = %v", got.Reason)
	}
}

func TestAuthAssocRoundTrip(t *testing.T) {
	a := &Auth{Header: Header{Addr1: apMAC, Addr2: victimMAC, Addr3: apMAC}, Algorithm: 0, AuthSeq: 1, Status: StatusSuccess}
	gotA := roundTrip(t, a).(*Auth)
	if gotA.AuthSeq != 1 || gotA.Status != StatusSuccess {
		t.Fatalf("auth = %+v", gotA)
	}

	ar := &AssocReq{Header: Header{Addr1: apMAC, Addr2: victimMAC, Addr3: apMAC}, Capability: CapESS, IntervalTU: 10, IEs: []IE{SSIDElement("HomeNet")}}
	gotAR := roundTrip(t, ar).(*AssocReq)
	if gotAR.IntervalTU != 10 {
		t.Fatalf("assoc req = %+v", gotAR)
	}

	resp := &AssocResp{Header: Header{Addr1: victimMAC, Addr2: apMAC, Addr3: apMAC}, Status: StatusSuccess, AID: 3}
	gotResp := roundTrip(t, resp).(*AssocResp)
	if gotResp.AID != 3 {
		t.Fatalf("AID = %d", gotResp.AID)
	}
}

func TestFCSTamperDetection(t *testing.T) {
	wire, err := Serialize(NewNullFrame(victimMAC, fakeMAC, apMAC, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i := range wire {
		bad := append([]byte(nil), wire...)
		bad[i] ^= 0x01
		if _, err := Decode(bad); err == nil {
			t.Fatalf("bit flip at byte %d not detected", i)
		}
	}
}

func TestDecodeShort(t *testing.T) {
	for n := 0; n < 4; n++ {
		if _, err := Decode(make([]byte, n)); err == nil {
			t.Fatalf("Decode of %d bytes succeeded", n)
		}
	}
	// Valid FCS over a too-short body.
	body := []byte{0x00}
	if _, err := Decode(appendFCS(body)); err == nil {
		t.Fatal("1-byte body decoded")
	}
}

func TestDecodeUnsupportedVersion(t *testing.T) {
	a := &Ack{RA: fakeMAC}
	wire, _ := a.AppendTo(nil)
	wire[0] |= 0x01 // version 1
	if _, err := DecodeNoFCS(wire); err == nil {
		t.Fatal("version 1 frame decoded")
	}
}

func TestAddressRules(t *testing.T) {
	// ToDS=1 (client → AP): A1=BSSID, A2=SA, A3=DA.
	d := &Data{Header: Header{
		FC:    FrameControl{ToDS: true},
		Addr1: apMAC, Addr2: victimMAC, Addr3: MustMAC("00:aa:00:aa:00:aa"),
	}}
	if d.BSSID() != apMAC || d.SA() != victimMAC || d.DA() != MustMAC("00:aa:00:aa:00:aa") {
		t.Fatal("ToDS address rules wrong")
	}
	// FromDS=1 (AP → client): A1=DA, A2=BSSID, A3=SA.
	d2 := &Data{Header: Header{
		FC:    FrameControl{FromDS: true},
		Addr1: victimMAC, Addr2: apMAC, Addr3: MustMAC("00:bb:00:bb:00:bb"),
	}}
	if d2.DA() != victimMAC || d2.BSSID() != apMAC || d2.SA() != MustMAC("00:bb:00:bb:00:bb") {
		t.Fatal("FromDS address rules wrong")
	}
	// IBSS: A3=BSSID.
	d3 := &Data{Header: Header{Addr1: victimMAC, Addr2: fakeMAC, Addr3: apMAC}}
	if d3.BSSID() != apMAC || d3.DA() != victimMAC || d3.SA() != fakeMAC {
		t.Fatal("IBSS address rules wrong")
	}
}

func TestNeedsAck(t *testing.T) {
	cases := []struct {
		fc   FrameControl
		ra   MAC
		want bool
	}{
		{FrameControl{Type: TypeData, Subtype: SubtypeNull}, victimMAC, true},
		{FrameControl{Type: TypeData, Subtype: SubtypeData}, victimMAC, true},
		{FrameControl{Type: TypeManagement, Subtype: SubtypeDeauth}, victimMAC, true},
		{FrameControl{Type: TypeManagement, Subtype: SubtypeBeacon}, Broadcast, false},
		{FrameControl{Type: TypeControl, Subtype: SubtypeACK}, victimMAC, false},
		{FrameControl{Type: TypeControl, Subtype: SubtypeRTS}, victimMAC, false},
		{FrameControl{Type: TypeData, Subtype: SubtypeData}, Broadcast, false},
	}
	for i, c := range cases {
		if got := NeedsAck(c.fc, c.ra); got != c.want {
			t.Errorf("case %d: NeedsAck(%v,%v) = %v, want %v", i, c.fc.Name(), c.ra, got, c.want)
		}
	}
}

func TestCTSFor(t *testing.T) {
	tests := []struct {
		name     string
		duration uint16
		elapsed  eventsim.Time
		want     uint16
	}{
		{"normal", 100, 44 * eventsim.Microsecond, 56},
		{"exact", 44, 44 * eventsim.Microsecond, 0},
		// The underflow edge: an RTS whose duration is smaller than
		// SIFS + CTS airtime must clamp at zero, not wrap to ~65535 µs.
		{"underflow", 10, 44 * eventsim.Microsecond, 0},
		{"zero duration", 0, 44 * eventsim.Microsecond, 0},
		{"no elapsed", 100, 0, 100},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			rts := &RTS{RA: victimMAC, TA: fakeMAC, Duration: tc.duration}
			cts := CTSFor(rts, tc.elapsed)
			if cts.RA != fakeMAC {
				t.Fatalf("CTS RA = %v, want the RTS TA %v", cts.RA, fakeMAC)
			}
			if cts.Duration != tc.want {
				t.Fatalf("CTS duration = %d, want %d", cts.Duration, tc.want)
			}
		})
	}
}

func TestIETooLong(t *testing.T) {
	b := &Beacon{Header: Header{Addr1: Broadcast, Addr2: apMAC, Addr3: apMAC},
		IEs: []IE{{ID: IESSID, Data: make([]byte, 300)}}}
	if _, err := Serialize(b); err == nil {
		t.Fatal("oversized IE serialized")
	}
}

func TestIEParseTruncated(t *testing.T) {
	if _, err := parseIEsInto(nil, []byte{0}); err == nil {
		t.Fatal("truncated IE header parsed")
	}
	if _, err := parseIEsInto(nil, []byte{0, 5, 0x61}); err == nil {
		t.Fatal("truncated IE body parsed")
	}
}

func TestIEString(t *testing.T) {
	if got := SSIDElement("x").String(); got != `SSID="x"` {
		t.Fatalf("SSID IE String = %q", got)
	}
	if got := DSParamElement(6).String(); got != "Channel=6" {
		t.Fatalf("DSParam IE String = %q", got)
	}
	if got := RSNElement().String(); got != "RSN (WPA2)" {
		t.Fatalf("RSN IE String = %q", got)
	}
}

// Property: data frames round-trip for arbitrary payloads, addresses
// and sequence numbers.
func TestDataRoundTripProperty(t *testing.T) {
	f := func(a1, a2, a3 [6]byte, seq uint16, payload []byte) bool {
		d := &Data{
			Header: Header{
				Addr1: MAC(a1), Addr2: MAC(a2), Addr3: MAC(a3),
				Seq: SequenceControl{Number: seq & 0xfff},
			},
			Payload: payload,
		}
		wire, err := Serialize(d)
		if err != nil {
			return false
		}
		got, err := Decode(wire)
		if err != nil {
			return false
		}
		gd, ok := got.(*Data)
		if !ok {
			return false
		}
		return gd.Addr1 == MAC(a1) && gd.Addr2 == MAC(a2) && gd.Addr3 == MAC(a3) &&
			gd.Seq.Number == seq&0xfff && bytes.Equal(gd.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: beacons with arbitrary SSIDs round-trip.
func TestBeaconRoundTripProperty(t *testing.T) {
	f := func(ssid string, ts uint64, interval uint16, ch uint8) bool {
		if len(ssid) > 32 {
			ssid = ssid[:32]
		}
		b := &Beacon{
			Header:     Header{Addr1: Broadcast, Addr2: apMAC, Addr3: apMAC},
			Timestamp:  ts,
			IntervalTU: interval,
			IEs:        []IE{SSIDElement(ssid), DSParamElement(ch)},
		}
		wire, err := Serialize(b)
		if err != nil {
			return false
		}
		got, err := Decode(wire)
		if err != nil {
			return false
		}
		gb := got.(*Beacon)
		gotSSID, _ := FindSSID(gb.IEs)
		ds, _ := FindIE(gb.IEs, IEDSParam)
		return gb.Timestamp == ts && gb.IntervalTU == interval && gotSSID == ssid && bytes.Equal(ds.Data, []byte{ch})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: decoding then re-serializing any successfully decoded
// random buffer reproduces the same bytes (canonical encoding).
func TestReserializeProperty(t *testing.T) {
	frames := []Frame{
		&Ack{RA: fakeMAC, Duration: 3},
		&CTS{RA: fakeMAC, Duration: 9},
		&RTS{RA: victimMAC, TA: fakeMAC, Duration: 100},
		&PSPoll{AID: 2, BSSID: apMAC, TA: victimMAC},
		NewNullFrame(victimMAC, fakeMAC, apMAC, 55),
		&Deauth{Header: Header{Addr1: fakeMAC, Addr2: apMAC, Addr3: apMAC}, Reason: ReasonClass3FromNonAssoc},
		&Beacon{Header: Header{Addr1: Broadcast, Addr2: apMAC, Addr3: apMAC}, IEs: []IE{SSIDElement("n")}},
	}
	for _, f := range frames {
		wire, err := Serialize(f)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := Decode(wire)
		if err != nil {
			t.Fatalf("%T: %v", f, err)
		}
		wire2, err := Serialize(decoded)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wire, wire2) {
			t.Fatalf("%T: reserialization differs\n%x\n%x", f, wire, wire2)
		}
		if reflect.TypeOf(decoded) != reflect.TypeOf(f) {
			t.Fatalf("decoded type %T, want %T", decoded, f)
		}
	}
}

func TestReasonCodeStrings(t *testing.T) {
	if ReasonClass3FromNonAssoc.String() == "" || ReasonCode(999).String() == "" {
		t.Fatal("reason strings empty")
	}
}

func BenchmarkSerializeNullFrame(b *testing.B) {
	f := NewNullFrame(victimMAC, fakeMAC, apMAC, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Serialize(f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeNullFrame(b *testing.B) {
	wire, _ := Serialize(NewNullFrame(victimMAC, fakeMAC, apMAC, 0))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeBeacon(b *testing.B) {
	bea := &Beacon{
		Header: Header{Addr1: Broadcast, Addr2: apMAC, Addr3: apMAC},
		IEs:    []IE{SSIDElement("HomeNet"), RatesElement(6, 12, 24, 54), DSParamElement(6), RSNElement()},
	}
	wire, _ := Serialize(bea)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: Decode never panics and never returns both nil frame and
// nil error, for arbitrary byte soup (with and without a valid FCS
// wrapper).
func TestDecodeRobustnessProperty(t *testing.T) {
	f := func(raw []byte) bool {
		// Arbitrary bytes: almost always ErrBadFCS.
		if fr, err := Decode(raw); fr == nil && err == nil {
			return false
		}
		// Valid FCS wrapping arbitrary bytes: the parser sees them.
		if fr, err := Decode(appendFCS(raw)); fr == nil && err == nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: any frame the codec decodes, it can re-serialize without
// error.
func TestDecodeSerializeClosureProperty(t *testing.T) {
	f := func(raw []byte) bool {
		fr, err := Decode(appendFCS(raw))
		if err != nil {
			return true // nothing decoded, nothing to check
		}
		_, err = Serialize(fr)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
