package mac

import (
	"bytes"
	"testing"

	"politewifi/internal/dot11"
	"politewifi/internal/eventsim"
	"politewifi/internal/phy"
	"politewifi/internal/radio"
)

// fragment builds fragment i of an MSDU from the client to the AP.
func fragment(seq uint16, i int, more bool, part []byte) *dot11.Data {
	d := &dot11.Data{
		Header: dot11.Header{
			FC:    dot11.FrameControl{ToDS: true, MoreFrag: more},
			Addr1: apAddr, Addr2: clientAddr, Addr3: apAddr,
			Seq: dot11.SequenceControl{Number: seq, Fragment: uint8(i)},
		},
		Payload: append([]byte(nil), part...),
	}
	return d
}

// TestFragmentedTransferEncrypted puts the fragments of a large
// payload on the air from the associated client over WPA2, each
// encrypted on its own; the AP reassembles the original MSDU. Each
// fragment is individually acknowledged.
func TestFragmentedTransferEncrypted(t *testing.T) {
	n := newTestNet(t, ProfileGenericAP, ProfileGenericClient)
	n.associate(t)

	payload := make([]byte, 350)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var got []byte
	n.ap.OnDeliver = func(f dot11.Frame, rx radio.Reception) {
		if d, ok := f.(*dot11.Data); ok {
			got = append([]byte(nil), d.Payload...)
		}
	}
	n.captured = nil
	const threshold = 100
	for i := 0; i*threshold < len(payload); i++ {
		end := min((i+1)*threshold, len(payload))
		d := fragment(700, i, end < len(payload), payload[i*threshold:end])
		if err := n.client.Session().Encrypt(d); err != nil {
			t.Fatal(err)
		}
		wire, err := dot11.Serialize(d)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.client.Radio.Transmit(wire, phy.Rate24); err != nil {
			t.Fatal(err)
		}
		n.sched.RunFor(2 * eventsim.Millisecond)
	}
	n.sched.RunFor(20 * eventsim.Millisecond)
	if !bytes.Equal(got, payload) {
		t.Fatalf("reassembled %d bytes, want %d (equal=%v)", len(got), len(payload), bytes.Equal(got, payload))
	}
	// 4 fragments (350/100) → 4 ACKs.
	if acks := n.acksTo(clientAddr); acks != 4 {
		t.Fatalf("fragment ACKs = %d, want 4", acks)
	}
}

// TestFragmentGapDiscards: a fragment whose predecessor never arrived
// discards the whole MSDU.
func TestFragmentGapDiscards(t *testing.T) {
	n := openNet(t)
	delivered := 0
	n.ap.OnDeliver = func(f dot11.Frame, rx radio.Reception) { delivered++ }
	discarded := n.ap.Stats.RxDiscarded

	n.inject(t, fragment(500, 1, true, []byte("orphan")), phy.Rate24)
	n.sched.RunFor(50 * eventsim.Millisecond)
	if delivered != 0 {
		t.Fatal("orphan fragment delivered")
	}
	if n.ap.Stats.RxDiscarded == discarded {
		t.Fatal("orphan fragment not counted as discarded")
	}
}
