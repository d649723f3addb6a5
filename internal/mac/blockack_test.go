package mac

import (
	"testing"

	"politewifi/internal/dot11"
	"politewifi/internal/eventsim"
	"politewifi/internal/phy"
	"politewifi/internal/radio"
)

// openNet builds an open (unencrypted) AP+client pair, plus the
// monitor sniffer.
func openNet(t *testing.T) *testNet {
	t.Helper()
	m := quietMedium()
	rng := eventsim.NewRNG(42)
	n := &testNet{m: m, sched: m.Sched}
	n.ap = New(m, rng, Config{
		Name: "ap", Addr: apAddr, Role: RoleAP, Profile: ProfileGenericAP,
		SSID: "open", Position: radio.Position{X: 0}, Band: phy.Band2GHz, Channel: 6,
	})
	n.client = New(m, rng, Config{
		Name: "client", Addr: clientAddr, Role: RoleClient, Profile: ProfileGenericClient,
		SSID: "open", Position: radio.Position{X: 5}, Band: phy.Band2GHz, Channel: 6,
	})
	n.attacker = m.NewRadio("attacker", radio.Position{X: 10}, phy.Band2GHz, 6)
	n.attacker.SetHandler(func(rx radio.Reception) {
		if !rx.FCSOK {
			return
		}
		if f, err := dot11.Decode(rx.Data); err == nil {
			n.captured = append(n.captured, f)
		}
	})
	n.associate(t)
	return n
}

// TestBARFromStrangerAnswered: the block-ack machinery is as polite
// as the ACK machinery — a BAR from a never-seen transmitter gets a
// BlockAck back (with an empty bitmap), no questions asked.
func TestBARFromStrangerAnswered(t *testing.T) {
	n := openNet(t)
	n.captured = nil
	bar := &dot11.BlockAckReq{RA: clientAddr, TA: fakeAddr, TID: 2, StartSeq: 100}
	n.inject(t, bar, phy.Rate24)
	n.sched.RunFor(5 * eventsim.Millisecond)
	var got *dot11.BlockAck
	for _, f := range n.captured {
		if ba, ok := f.(*dot11.BlockAck); ok {
			got = ba
		}
	}
	if got == nil {
		t.Fatal("no BlockAck elicited by fake BAR")
	}
	if got.RA != fakeAddr {
		t.Fatalf("BlockAck RA = %v, want the fake MAC", got.RA)
	}
	if got.Bitmap != 0 {
		t.Fatalf("bitmap = %x, want empty (nothing was received)", got.Bitmap)
	}
}
