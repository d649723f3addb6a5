package dot11

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestActionRoundTrip(t *testing.T) {
	a := &Action{
		Header:   Header{Addr1: victimMAC, Addr2: apMAC, Addr3: apMAC, Seq: SequenceControl{Number: 12}},
		Category: CategoryBlockAck,
		Code:     0, // ADDBA request
		Body:     []byte{0x03, 0x10, 0x00},
	}
	got := roundTrip(t, a).(*Action)
	if got.Category != CategoryBlockAck || got.Code != 0 {
		t.Fatalf("action = %+v", got)
	}
	if !bytes.Equal(got.Body, a.Body) {
		t.Fatalf("body = %x", got.Body)
	}
	if got.Info() == "" {
		t.Fatal("empty info")
	}
	// Action frames are unicast management → solicit ACKs (another
	// Polite WiFi surface).
	if !NeedsAck(got.Control(), got.ReceiverAddress()) {
		t.Fatal("action frame should need an ACK")
	}
}

func TestActionTruncated(t *testing.T) {
	a := &Action{Header: Header{Addr1: victimMAC, Addr2: apMAC, Addr3: apMAC}}
	wire, _ := a.AppendTo(nil)
	if err := new(Action).DecodeFromBytes(wire[:25]); err == nil {
		t.Fatal("truncated action decoded")
	}
}

func TestBlockAckReqRoundTrip(t *testing.T) {
	r := &BlockAckReq{RA: victimMAC, TA: apMAC, TID: 5, StartSeq: 3000, Duration: 44}
	got := roundTrip(t, r).(*BlockAckReq)
	if got.TID != 5 || got.StartSeq != 3000 || got.Duration != 44 {
		t.Fatalf("BAR = %+v", got)
	}
	if got.RA != victimMAC || got.TA != apMAC {
		t.Fatal("addresses lost")
	}
	// Control frame: no PHY ACK.
	if NeedsAck(got.Control(), got.ReceiverAddress()) {
		t.Fatal("BAR must not solicit a normal ACK")
	}
}

func TestBlockAckRoundTrip(t *testing.T) {
	ba := &BlockAck{RA: apMAC, TA: victimMAC, TID: 5, StartSeq: 3000, Bitmap: 0xDEADBEEF}
	got := roundTrip(t, ba).(*BlockAck)
	if got.Bitmap != 0xDEADBEEF || got.TID != 5 || got.StartSeq != 3000 {
		t.Fatalf("BA = %+v", got)
	}
}

// Property: BlockAck round-trips arbitrary bitmaps and sequence
// numbers.
func TestBlockAckProperty(t *testing.T) {
	f := func(tid uint8, ssn uint16, bitmap uint64) bool {
		ba := &BlockAck{RA: apMAC, TA: victimMAC, TID: tid & 0xf, StartSeq: ssn & 0xfff, Bitmap: bitmap}
		wire, err := Serialize(ba)
		if err != nil {
			return false
		}
		got, err := Decode(wire)
		if err != nil {
			return false
		}
		g := got.(*BlockAck)
		return g.TID == tid&0xf && g.StartSeq == ssn&0xfff && g.Bitmap == bitmap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestProtectedDeauthCodec(t *testing.T) {
	d := &Deauth{
		Header: Header{
			FC:    FrameControl{Protected: true, FromDS: true},
			Addr1: victimMAC, Addr2: apMAC, Addr3: apMAC,
		},
		ProtectedBody: []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
	}
	got := roundTrip(t, d).(*Deauth)
	if !got.FC.Protected {
		t.Fatal("Protected flag lost")
	}
	if !bytes.Equal(got.ProtectedBody, d.ProtectedBody) {
		t.Fatalf("protected body = %x", got.ProtectedBody)
	}
}
