package mac

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"politewifi/internal/dot11"
	"politewifi/internal/eventsim"
	"politewifi/internal/phy"
	"politewifi/internal/radio"
)

// newDecoderNet is newTestNet with the AP and client decoding through
// dec (nil: each its own decoder).
func newDecoderNet(t *testing.T, dec *dot11.Decoder) *testNet {
	t.Helper()
	m := quietMedium()
	rng := eventsim.NewRNG(42)
	n := &testNet{m: m, sched: m.Sched}
	n.ap = New(m, rng, Config{
		Name: "ap", Addr: apAddr, Role: RoleAP, Profile: ProfileGenericAP,
		SSID: "HomeNet", Passphrase: "hunter2 hunter2",
		Position: radio.Position{X: 0}, Band: phy.Band2GHz, Channel: 6,
		Decoder: dec,
	})
	n.client = New(m, rng, Config{
		Name: "client", Addr: clientAddr, Role: RoleClient, Profile: ProfileGenericClient,
		SSID: "HomeNet", Passphrase: "hunter2 hunter2",
		Position: radio.Position{X: 5}, Band: phy.Band2GHz, Channel: 6,
		Decoder: dec,
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
	return n
}

// decoderSession associates, sends data both ways, and throws fake
// frames at both stations; it returns what each station delivered and
// both stations' counters.
func decoderSession(t *testing.T, n *testNet) string {
	t.Helper()
	var log strings.Builder
	for _, st := range []*Station{n.ap, n.client} {
		st := st
		st.OnDeliver = func(f dot11.Frame, rx radio.Reception) {
			if d, ok := f.(*dot11.Data); ok {
				fmt.Fprintf(&log, "%s %x\n", st.Name, d.Payload)
			}
		}
	}
	n.associate(t)
	for i := 0; i < 5; i++ {
		if err := n.client.SendData(apAddr, bytes.Repeat([]byte{byte(i)}, 10+40*i)); err != nil {
			t.Fatal(err)
		}
		if err := n.ap.SendData(clientAddr, bytes.Repeat([]byte{byte(i + 100)}, 200-30*i)); err != nil {
			t.Fatal(err)
		}
		n.inject(t, dot11.NewNullFrame(clientAddr, fakeAddr, fakeAddr, uint16(i)), phy.Rate24)
		n.sched.RunFor(20 * eventsim.Millisecond)
		n.inject(t, dot11.NewNullFrame(apAddr, fakeAddr, fakeAddr, uint16(i)), phy.Rate24)
		n.sched.RunFor(20 * eventsim.Millisecond)
	}
	n.sched.RunFor(500 * eventsim.Millisecond)
	fmt.Fprintf(&log, "ap %+v\nclient %+v\ncaptured %d\n", n.ap.Stats, n.client.Stats, len(n.captured))
	return log.String()
}

// Sharing one decoder between stations changes nothing they do.
func TestSharedDecoderIsTransparent(t *testing.T) {
	own := decoderSession(t, newDecoderNet(t, nil))
	shared := decoderSession(t, newDecoderNet(t, new(dot11.Decoder)))
	if own != shared {
		t.Fatalf("shared decoder changed the exchange:\nown decoders:\n%s\nshared decoder:\n%s", own, shared)
	}
	if !strings.Contains(own, "ap 0404") || !strings.Contains(own, "client 6464") {
		t.Fatalf("data did not flow both ways:\n%s", own)
	}
}

// A station that is still reading a frame when the shared decoder
// parses another one panics, naming itself: here the upper layer
// decodes a second frame through the same decoder from inside the
// delivery of the first.
func TestSharedDecoderMisuseIsCaught(t *testing.T) {
	dec := new(dot11.Decoder)
	m := quietMedium()
	victim := New(m, eventsim.NewRNG(1), Config{
		Name: "victim", Addr: clientAddr, Role: RoleClient, Profile: ProfileGenericClient,
		SSID: "n", Position: radio.Position{X: 5}, Band: phy.Band2GHz, Channel: 6,
		Decoder: dec,
	})
	other, err := dot11.Serialize(dot11.NewNullFrame(apAddr, fakeAddr, fakeAddr, 1))
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	victim.OnDeliver = func(f dot11.Frame, rx radio.Reception) {
		delivered++
		if _, err := dec.Decode(other); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := dot11.Serialize(&dot11.ProbeResp{
		Header: dot11.Header{Addr1: clientAddr, Addr2: fakeAddr, Addr3: fakeAddr},
		IEs:    []dot11.IE{dot11.SSIDElement("x")},
	})
	if err != nil {
		t.Fatal(err)
	}
	tx := m.NewRadio("inj", radio.Position{X: 8}, phy.Band2GHz, 6)
	if _, err := tx.Transmit(resp, phy.Rate24); err != nil {
		t.Fatal(err)
	}
	defer func() {
		msg := fmt.Sprint(recover())
		if delivered != 1 || !strings.Contains(msg, "victim") || !strings.Contains(msg, "decoder") {
			t.Fatalf("delivered %d, recovered %q; want one delivery and a panic naming the station", delivered, msg)
		}
	}()
	m.Sched.RunFor(10 * eventsim.Millisecond)
}

// TestStationFootprint: the station struct stays under 1 KiB (the
// decoder lives outside it), and a station that has received nothing
// holds no map.
func TestStationFootprint(t *testing.T) {
	if size := unsafe.Sizeof(Station{}); size > 1024 {
		t.Fatalf("unsafe.Sizeof(Station{}) = %d bytes, want at most 1024", size)
	}
	m := quietMedium()
	cl := New(m, eventsim.NewRNG(1), Config{
		Name: "idle", Addr: clientAddr, Role: RoleClient, Profile: ProfileGenericClient,
		SSID: "n", Position: radio.Position{X: 5}, Band: phy.Band2GHz, Channel: 6,
	})
	m.Sched.RunFor(500 * eventsim.Millisecond)
	if cl.Stats.PHYFrames != 0 {
		t.Fatalf("idle client received %d frames", cl.Stats.PHYFrames)
	}
	maps := map[string]bool{
		"clients":   cl.clients != nil,
		"blocklist": cl.blocklist != nil,
		"dupCache":  cl.dupCache != nil,
		"peerSNR":   cl.peerSNR != nil,
		"baRecv":    cl.baRecv != nil,
		"reasm":     cl.reasm != nil,
	}
	for name, made := range maps {
		if made {
			t.Errorf("idle client made its %s map", name)
		}
	}
}

// holds reports whether frame f is on the station's free list.
func holds(free []*dot11.Data, f dot11.Frame) bool {
	for _, d := range free {
		if dot11.Frame(d) == f {
			return true
		}
	}
	return false
}

// releaseTxJob recycles SendData frames and only those: the EAPOL and
// null frames of a handshake stay out of the free list, and a frame
// buffered for a dozing peer is not recycled until it has been sent.
func TestDataFrameRecycling(t *testing.T) {
	n := newTestNet(t, ProfileGenericAP, ProfileGenericClient)
	n.associate(t)
	n.sched.RunFor(50 * eventsim.Millisecond)
	if len(n.ap.dataFree) != 0 || len(n.client.dataFree) != 0 {
		t.Fatalf("handshake recycled frames: AP %d, client %d", len(n.ap.dataFree), len(n.client.dataFree))
	}
	// A direct release of an unmarked data job recycles nothing.
	eapol := &dot11.Data{Payload: []byte{0xaa, 0xaa, 0x03, 0, 0, 0, 0x88, 0x8e}}
	n.client.releaseTxJob(n.client.newTxJob(eapol, true, defaultDataRate))
	if len(n.client.dataFree) != 0 {
		t.Fatal("releaseTxJob recycled an EAPOL frame")
	}

	var got []string
	n.ap.OnDeliver = func(f dot11.Frame, rx radio.Reception) {
		if d, ok := f.(*dot11.Data); ok {
			got = append(got, string(d.Payload))
		}
	}
	// Longer, then shorter, then longer payloads through one recycled
	// frame must each arrive intact.
	want := []string{"first payload", "a much longer second payload than the first", "3rd", "the fourth payload"}
	var frame *dot11.Data
	for i, p := range want {
		if err := n.client.SendData(apAddr, []byte(p)); err != nil {
			t.Fatal(err)
		}
		j := n.client.txActive
		if j == nil || !j.sendData {
			t.Fatalf("send %d: no SendData job in flight", i)
		}
		if i > 0 && j.frame != dot11.Frame(frame) {
			t.Fatalf("send %d did not reuse the recycled frame", i)
		}
		frame = j.frame.(*dot11.Data)
		n.sched.RunFor(20 * eventsim.Millisecond)
		if len(n.client.dataFree) != 1 || n.client.dataFree[0] != frame {
			t.Fatalf("send %d: free list %v after the frame was acknowledged", i, n.client.dataFree)
		}
	}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("AP delivered %q, want %q", got, want)
	}

	// The client dozes: the AP buffers, and recycles only after the
	// frame has gone out.
	p := n.ap.clients[clientAddr]
	p.dozing = true
	if err := n.ap.SendData(clientAddr, []byte("held for the dozing peer")); err != nil {
		t.Fatal(err)
	}
	if len(p.buffered) != 1 {
		t.Fatalf("AP buffered %d frames for the dozing peer", len(p.buffered))
	}
	held := p.buffered[0].frame
	n.sched.RunFor(300 * eventsim.Millisecond)
	if holds(n.ap.dataFree, held) {
		t.Fatal("AP recycled a frame still buffered for a dozing peer")
	}
	// A full buffer refuses the frame, which goes straight back.
	for len(p.buffered) < 16 {
		if err := n.ap.SendData(clientAddr, []byte("filler")); err != nil {
			t.Fatal(err)
		}
	}
	failed := n.ap.Stats.TxFailed
	if err := n.ap.SendData(clientAddr, []byte("overflow")); err != nil {
		t.Fatal(err)
	}
	if n.ap.Stats.TxFailed != failed+1 || len(p.buffered) != 16 {
		t.Fatalf("overflow: TxFailed %d→%d, %d buffered", failed, n.ap.Stats.TxFailed, len(p.buffered))
	}
	for _, j := range p.buffered {
		if holds(n.ap.dataFree, j.frame) {
			t.Fatal("AP recycled a buffered frame")
		}
	}
	// Waking flushes the buffer; every frame comes back once sent.
	n.ap.notePowerMgmt(clientAddr, false)
	n.sched.RunFor(500 * eventsim.Millisecond)
	if !holds(n.ap.dataFree, held) {
		t.Fatal("AP never recycled the buffered frame after sending it")
	}
	if len(n.ap.dataFree) != 17 {
		t.Fatalf("AP free list holds %d frames, want the 16 sent plus the refused one", len(n.ap.dataFree))
	}
}
