package mac

import (
	"bytes"
	"fmt"
	"testing"

	"politewifi/internal/crypto80211"
	"politewifi/internal/dot11"
	"politewifi/internal/eventsim"
	"politewifi/internal/phy"
	"politewifi/internal/radio"
)

// TestHandshakeFramesOnAir: associating to an RSN network puts
// exactly four EAPOL-Key messages on the air, in order, and the
// resulting sessions interoperate.
func TestHandshakeFramesOnAir(t *testing.T) {
	n := newTestNet(t, ProfileGenericAP, ProfileGenericClient)
	n.associate(t)

	var msgs []uint8
	for _, f := range n.captured {
		d, ok := f.(*dot11.Data)
		if !ok || !crypto80211.IsEAPOL(d.Payload) {
			continue
		}
		k, err := crypto80211.ParseEAPOLKey(d.Payload)
		if err != nil {
			t.Fatalf("malformed EAPOL on air: %v", err)
		}
		msgs = append(msgs, k.MsgNum)
	}
	want := []uint8{1, 2, 3, 4}
	if len(msgs) != 4 {
		t.Fatalf("EAPOL messages on air = %v, want %v", msgs, want)
	}
	for i := range want {
		if msgs[i] != want[i] {
			t.Fatalf("EAPOL order = %v", msgs)
		}
	}
	// Keys installed on both sides and interoperable (exercised by
	// the encrypted data flow).
	if n.client.Session() == nil {
		t.Fatal("client session missing after 4-way handshake")
	}
	var delivered []byte
	n.ap.OnDeliver = func(f dot11.Frame, rx radio.Reception) {
		if d, ok := f.(*dot11.Data); ok {
			delivered = d.Payload
		}
	}
	n.client.SendData(apAddr, []byte("post-handshake secret"))
	n.sched.RunFor(50 * eventsim.Millisecond)
	if string(delivered) != "post-handshake secret" {
		t.Fatalf("delivered = %q", delivered)
	}
}

// TestHandshakeNonceFreshness: two separate associations derive
// different temporal keys (nonces are drawn fresh).
func TestHandshakeNonceFreshness(t *testing.T) {
	n := newTestNet(t, ProfileGenericAP, ProfileGenericClient)
	n.associate(t)
	first := n.client.Session()

	// Kick the client and let it rejoin.
	n.ap.sendDeauth(clientAddr, dot11.ReasonDeauthLeaving)
	n.sched.RunFor(100 * eventsim.Millisecond)
	if n.client.Associated() {
		t.Fatal("client still associated after AP deauth")
	}
	ok := false
	n.client.Associate(apAddr, func(v bool) { ok = v })
	n.sched.RunFor(400 * eventsim.Millisecond)
	if !ok {
		t.Fatal("re-association failed")
	}
	// A frame protected under the first association's key must not
	// decrypt under the second's.
	d := &dot11.Data{
		Header: dot11.Header{
			FC:    dot11.FrameControl{ToDS: true},
			Addr1: apAddr, Addr2: clientAddr, Addr3: apAddr,
		},
		Payload: []byte("x"),
	}
	if err := first.Encrypt(d); err != nil {
		t.Fatal(err)
	}
	if n.client.Session().Decrypt(d) == nil {
		t.Fatal("temporal key reused across associations")
	}
}

// TestHandshakeWrongPassphraseFails: a client configured with the
// wrong passphrase completes 802.11 auth/assoc but its M2 MIC fails
// at the AP, so no keys are ever installed.
func TestHandshakeWrongPassphraseFails(t *testing.T) {
	m := quietMedium()
	rng := eventsim.NewRNG(42)
	ap := New(m, rng, Config{
		Name: "ap", Addr: apAddr, Role: RoleAP, Profile: ProfileGenericAP,
		SSID: "HomeNet", Passphrase: "the right passphrase",
		Position: radio.Position{}, Band: phy.Band2GHz, Channel: 6,
	})
	cl := New(m, rng, Config{
		Name: "client", Addr: clientAddr, Role: RoleClient, Profile: ProfileGenericClient,
		SSID: "HomeNet", Passphrase: "WRONG passphrase",
		Position: radio.Position{X: 5}, Band: phy.Band2GHz, Channel: 6,
	})
	result := -1
	cl.Associate(apAddr, func(v bool) {
		if v {
			result = 1
		} else {
			result = 0
		}
	})
	m.Sched.RunFor(500 * eventsim.Millisecond)
	if result != 0 {
		t.Fatalf("association result = %d, want failure (0)", result)
	}
	if cl.Session() != nil {
		t.Fatal("client installed a session with the wrong PMK")
	}
	// 802.11-level association may exist, but no keys do.
	if p := ap.clients[clientAddr]; p != nil && p.session != nil {
		t.Fatal("AP installed a session for a wrong-PMK client")
	}
	if ap.Stats.RxDiscarded == 0 {
		t.Fatal("AP never rejected the bad M2 MIC")
	}
}

// TestHandshakeForgedM3Rejected: an attacker injecting a fake M3
// (random MIC) cannot trick the client into installing keys.
func TestHandshakeForgedM3Rejected(t *testing.T) {
	n := newTestNet(t, ProfileGenericAP, ProfileGenericClient)
	// Start a join but pause after M2 by stopping the AP's reply: we
	// instead race a forged M3 in from the attacker before the real
	// one. Simplest deterministic variant: complete the handshake,
	// then send a forged M3 with a higher replay counter — the client
	// must reject it (bad MIC) and keep its session.
	n.associate(t)
	good := n.client.Session()

	forged := &crypto80211.EAPOLKey{MsgNum: 3, ReplayCounter: 99}
	forged.Sign(bytes.Repeat([]byte{0xAA}, 16)) // attacker has no KCK
	d := &dot11.Data{
		Header: dot11.Header{
			FC:    dot11.FrameControl{FromDS: true},
			Addr1: clientAddr, Addr2: apAddr, Addr3: apAddr,
			Seq: dot11.SequenceControl{Number: 999},
		},
		Payload: forged.Marshal(),
	}
	n.inject(t, d, phy.Rate24)
	n.sched.RunFor(50 * eventsim.Millisecond)

	if n.client.Session() != good {
		t.Fatal("forged M3 replaced the installed session")
	}
	if n.client.Stats.RxDiscarded == 0 {
		t.Fatal("forged M3 not counted as discarded")
	}
}

// TestEAPOLParseErrors covers the codec edges.
func TestEAPOLParseErrors(t *testing.T) {
	if _, err := crypto80211.ParseEAPOLKey([]byte{0x88, 0x8e, 1}); err == nil {
		t.Fatal("short EAPOL parsed")
	}
	k := &crypto80211.EAPOLKey{MsgNum: 5}
	if _, err := crypto80211.ParseEAPOLKey(k.Marshal()); err == nil {
		t.Fatal("message number 5 accepted")
	}
	if crypto80211.IsEAPOL([]byte{0x01}) {
		t.Fatal("short payload misdetected as EAPOL")
	}
	good := &crypto80211.EAPOLKey{MsgNum: 2, ReplayCounter: 7}
	good.Sign([]byte("0123456789abcdef"))
	parsed, err := crypto80211.ParseEAPOLKey(good.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !parsed.Verify([]byte("0123456789abcdef")) {
		t.Fatal("round-tripped MIC does not verify")
	}
	if parsed.Verify([]byte("fedcba9876543210")) {
		t.Fatal("MIC verified under the wrong KCK")
	}
}

// keyringNet is one RSN AP whose stations share a keyring, the way a
// wardrive stop builds a network.
type keyringNet struct {
	m    *radio.Medium
	rng  *eventsim.RNG
	keys *crypto80211.Keyring
	ap   *Station
}

func newKeyringNet() *keyringNet {
	n := &keyringNet{m: quietMedium(), rng: eventsim.NewRNG(42), keys: new(crypto80211.Keyring)}
	n.ap = New(n.m, n.rng, Config{
		Name: "ap", Addr: apAddr, Role: RoleAP, Profile: ProfileGenericAP,
		SSID: "HomeNet", Passphrase: "the right passphrase",
		Position: radio.Position{}, Band: phy.Band2GHz, Channel: 6, Keys: n.keys,
	})
	return n
}

// join creates client i with the given passphrase, starts its
// association and returns the station and a pointer to its result
// (-1 pending, 0 failed, 1 joined).
func (n *keyringNet) join(i int, passphrase string) (*Station, *int) {
	cl := New(n.m, n.rng, Config{
		Name: fmt.Sprintf("client%d", i), Addr: dot11.MAC{0xf2, 0x6e, 0x0b, 0x12, 0x34, byte(i)},
		Role: RoleClient, Profile: ProfileGenericClient,
		SSID: "HomeNet", Passphrase: passphrase,
		Position: radio.Position{X: float64(3 + i)}, Band: phy.Band2GHz, Channel: 6, Keys: n.keys,
	})
	result := -1
	cl.Associate(apAddr, func(v bool) {
		result = 0
		if v {
			result = 1
		}
	})
	return cl, &result
}

// TestKeyringSharedHandshakes: an AP and three clients sharing one
// keyring complete three 4-way handshakes on one PBKDF2 derivation,
// where separate derivations would take six (each client on M1, the
// AP on each M2).
func TestKeyringSharedHandshakes(t *testing.T) {
	n := newKeyringNet()
	var clients []*Station
	var results []*int
	for i := 0; i < 3; i++ {
		cl, res := n.join(i, "the right passphrase")
		clients = append(clients, cl)
		results = append(results, res)
	}
	n.m.Sched.RunFor(800 * eventsim.Millisecond)
	for i, cl := range clients {
		if *results[i] != 1 || cl.Session() == nil {
			t.Fatalf("client %d: association result %d, session %v", i, *results[i], cl.Session())
		}
		if p := n.ap.clients[cl.Addr]; p == nil || p.session == nil {
			t.Fatalf("AP holds no session for client %d", i)
		}
	}
	if got := n.keys.Derivations(); got != 1 {
		t.Fatalf("PBKDF2 derivations = %d, want 1", got)
	}
}

// TestKeyringWrongPassphrase: a client whose passphrase is wrong gets
// its own keyring entry, so sharing the AP's keyring lends it nothing:
// as in TestHandshakeWrongPassphraseFails, no session is installed on
// either side, while a correct client on the same keyring joins.
func TestKeyringWrongPassphrase(t *testing.T) {
	n := newKeyringNet()
	good, goodRes := n.join(0, "the right passphrase")
	bad, badRes := n.join(1, "WRONG passphrase")
	n.m.Sched.RunFor(800 * eventsim.Millisecond)
	if *goodRes != 1 || good.Session() == nil {
		t.Fatalf("correct client: association result %d, session %v", *goodRes, good.Session())
	}
	if *badRes != 0 {
		t.Fatalf("wrong-passphrase client: association result %d, want failure (0)", *badRes)
	}
	if bad.Session() != nil {
		t.Fatal("client installed a session with the wrong PMK")
	}
	if p := n.ap.clients[bad.Addr]; p != nil && p.session != nil {
		t.Fatal("AP installed a session for a wrong-PMK client")
	}
	if n.ap.Stats.RxDiscarded == 0 {
		t.Fatal("AP never rejected the bad M2 MIC")
	}
	if got := n.keys.Derivations(); got != 2 {
		t.Fatalf("PBKDF2 derivations = %d, want 2 (one per passphrase)", got)
	}
}

// TestPrivateKeyringDerivesOnce: stations built without Config.Keys
// get a private keyring, which derives the PMK once and reuses it when
// the client re-joins.
func TestPrivateKeyringDerivesOnce(t *testing.T) {
	n := newTestNet(t, ProfileGenericAP, ProfileGenericClient)
	for round := 0; round < 3; round++ {
		if round > 0 {
			n.ap.sendDeauth(clientAddr, dot11.ReasonDeauthLeaving)
			n.sched.RunFor(100 * eventsim.Millisecond)
			if n.client.Associated() {
				t.Fatal("client still associated after AP deauth")
			}
		}
		n.associate(t)
		if n.client.Session() == nil {
			t.Fatalf("round %d: no session after the handshake", round)
		}
	}
	if got := n.client.keys.Derivations(); got != 1 {
		t.Fatalf("client derivations = %d, want 1", got)
	}
	if got := n.ap.keys.Derivations(); got != 1 {
		t.Fatalf("AP derivations = %d, want 1", got)
	}
}
