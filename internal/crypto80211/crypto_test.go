package crypto80211

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"

	"politewifi/internal/dot11"
	"politewifi/internal/eventsim"
	"politewifi/internal/phy"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// RFC 3610 packet vector #1 (M=8, L=2 — the CCMP parameters).
func TestCCMRFC3610Vector1(t *testing.T) {
	key := unhex(t, "c0c1c2c3c4c5c6c7c8c9cacbcccdcecf")
	nonce := unhex(t, "00000003020100a0a1a2a3a4a5")
	aad := unhex(t, "0001020304050607")
	plaintext := unhex(t, "08090a0b0c0d0e0f101112131415161718191a1b1c1d1e")
	want := unhex(t, "588c979a61c663d2f066d0c2c0f989806d5f6b61dac384"+"17e8d12cfdf926e0")

	sealed, err := SealCCM(key, nonce, plaintext, aad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sealed, want) {
		t.Fatalf("SealCCM:\n got %x\nwant %x", sealed, want)
	}
	got, err := OpenCCM(key, nonce, sealed, aad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, plaintext) {
		t.Fatalf("OpenCCM round-trip failed: %x", got)
	}
}

// RFC 3610 packet vector #2.
func TestCCMRFC3610Vector2(t *testing.T) {
	key := unhex(t, "c0c1c2c3c4c5c6c7c8c9cacbcccdcecf")
	nonce := unhex(t, "00000004030201a0a1a2a3a4a5")
	aad := unhex(t, "0001020304050607")
	plaintext := unhex(t, "08090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
	want := unhex(t, "72c91a36e135f8cf291ca894085c87e3cc15c439c9e43a3b"+"a091d56e10400916")

	sealed, err := SealCCM(key, nonce, plaintext, aad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sealed, want) {
		t.Fatalf("SealCCM:\n got %x\nwant %x", sealed, want)
	}
}

func TestCCMTamperDetection(t *testing.T) {
	key := make([]byte, 16)
	nonce := make([]byte, NonceLen)
	plaintext := []byte("the quick brown fox jumps")
	aad := []byte("header")
	sealed, err := SealCCM(key, nonce, plaintext, aad)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sealed {
		bad := append([]byte(nil), sealed...)
		bad[i] ^= 0x80
		if _, err := OpenCCM(key, nonce, bad, aad); err == nil {
			t.Fatalf("tampered byte %d accepted", i)
		}
	}
	// Tampered AAD must also fail.
	if _, err := OpenCCM(key, nonce, sealed, []byte("headEr")); err == nil {
		t.Fatal("tampered AAD accepted")
	}
	// Truncated MIC.
	if _, err := OpenCCM(key, nonce, sealed[:MICLen-1], aad); err == nil {
		t.Fatal("truncated sealed accepted")
	}
}

func TestCCMBadParams(t *testing.T) {
	if _, err := SealCCM(make([]byte, 16), make([]byte, 5), nil, nil); err == nil {
		t.Fatal("short nonce accepted")
	}
	if _, err := SealCCM(make([]byte, 7), make([]byte, NonceLen), nil, nil); err == nil {
		t.Fatal("bad key size accepted")
	}
	if _, err := OpenCCM(make([]byte, 16), make([]byte, 5), make([]byte, 8), nil); err == nil {
		t.Fatal("short nonce accepted by Open")
	}
}

// Property: CCM round-trips arbitrary payloads and AADs.
func TestCCMRoundTripProperty(t *testing.T) {
	key := unhex(t, "000102030405060708090a0b0c0d0e0f")
	f := func(plaintext, aad []byte, pn uint32) bool {
		if len(aad) > 1000 {
			aad = aad[:1000]
		}
		nonce := make([]byte, NonceLen)
		nonce[9] = byte(pn >> 24)
		nonce[10] = byte(pn >> 16)
		nonce[11] = byte(pn >> 8)
		nonce[12] = byte(pn)
		sealed, err := SealCCM(key, nonce, plaintext, aad)
		if err != nil {
			return false
		}
		got, err := OpenCCM(key, nonce, sealed, aad)
		if err != nil {
			return false
		}
		return bytes.Equal(got, plaintext)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

var (
	apMAC  = dot11.MustMAC("f2:6e:0b:00:00:01")
	staMAC = dot11.MustMAC("f2:6e:0b:12:34:56")
)

// handshake is a condensed 4-way handshake: given a shared PMK, the
// authenticator and supplicant addresses, and two nonces, both sides
// arrive at the same CCMP session keys. It returns one Session per
// direction seeded with the same TK, mirroring how a real PTK
// protects both directions of the link.
func handshake(pmk []byte, ap, sta dot11.MAC, anonce, snonce []byte) (apSess, staSess *Session, err error) {
	ptk := PTK(pmk, ap, sta, anonce, snonce)
	tk := TKFromPTK(ptk)
	apSess, err = NewSession(tk)
	if err != nil {
		return nil, nil, err
	}
	staSess, err = NewSession(tk)
	if err != nil {
		return nil, nil, err
	}
	return apSess, staSess, nil
}

func newPair(t *testing.T) (*Session, *Session) {
	t.Helper()
	pmk := PMK("correct horse battery", "HomeNet")
	a, b, err := handshake(pmk, apMAC, staMAC, bytes.Repeat([]byte{1}, 32), bytes.Repeat([]byte{2}, 32))
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func protectedFrame(payload []byte) *dot11.Data {
	return &dot11.Data{
		Header: dot11.Header{
			FC:    dot11.FrameControl{ToDS: true},
			Addr1: apMAC, Addr2: staMAC, Addr3: apMAC,
			Seq: dot11.SequenceControl{Number: 10},
		},
		Payload: append([]byte(nil), payload...),
	}
}

func TestCCMPEncryptDecrypt(t *testing.T) {
	tx, rx := newPair(t)
	d := protectedFrame([]byte("secret application data"))
	if err := tx.Encrypt(d); err != nil {
		t.Fatal(err)
	}
	if !d.FC.Protected {
		t.Fatal("Protected flag not set")
	}
	if bytes.Contains(d.Payload, []byte("secret")) {
		t.Fatal("payload not encrypted")
	}
	if len(d.Payload) != HeaderLen+len("secret application data")+MICLen {
		t.Fatalf("encapsulated length = %d", len(d.Payload))
	}
	if err := rx.Decrypt(d); err != nil {
		t.Fatal(err)
	}
	if string(d.Payload) != "secret application data" {
		t.Fatalf("decrypted = %q", d.Payload)
	}
	if d.FC.Protected {
		t.Fatal("Protected flag not cleared")
	}
}

func TestCCMPSequencePNs(t *testing.T) {
	tx, rx := newPair(t)
	for i := 0; i < 5; i++ {
		d := protectedFrame([]byte("msg"))
		if err := tx.Encrypt(d); err != nil {
			t.Fatal(err)
		}
		if err := rx.Decrypt(d); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
}

func TestCCMPReplayDetection(t *testing.T) {
	tx, rx := newPair(t)
	d := protectedFrame([]byte("msg"))
	if err := tx.Encrypt(d); err != nil {
		t.Fatal(err)
	}
	replay := *d
	replay.Payload = append([]byte(nil), d.Payload...)
	if err := rx.Decrypt(d); err != nil {
		t.Fatal(err)
	}
	if err := rx.Decrypt(&replay); err != ErrReplay {
		t.Fatalf("replay err = %v, want ErrReplay", err)
	}
}

func TestCCMPForgeryRejected(t *testing.T) {
	// An attacker without the TK cannot produce a frame the victim
	// accepts — this is the check that *cannot run* inside SIFS.
	_, rx := newPair(t)
	attacker, err := NewSession(bytes.Repeat([]byte{0xAA}, 16))
	if err != nil {
		t.Fatal(err)
	}
	d := protectedFrame([]byte("forged"))
	if err := attacker.Encrypt(d); err != nil {
		t.Fatal(err)
	}
	if err := rx.Decrypt(d); err != ErrAuth {
		t.Fatalf("forged frame err = %v, want ErrAuth", err)
	}
}

func TestCCMPHeaderBinding(t *testing.T) {
	// Flipping an address after encryption breaks the AAD binding.
	tx, rx := newPair(t)
	d := protectedFrame([]byte("bound"))
	if err := tx.Encrypt(d); err != nil {
		t.Fatal(err)
	}
	d.Addr3 = dot11.MustMAC("00:11:22:33:44:55")
	if err := rx.Decrypt(d); err != ErrAuth {
		t.Fatalf("address-modified frame err = %v, want ErrAuth", err)
	}
}

func TestCCMPNullFrameRejected(t *testing.T) {
	tx, _ := newPair(t)
	n := dot11.NewNullFrame(apMAC, staMAC, apMAC, 0)
	if err := tx.Encrypt(n); err == nil {
		t.Fatal("encrypting a null frame should fail")
	}
}

func TestCCMPUnprotectedRejected(t *testing.T) {
	_, rx := newPair(t)
	d := protectedFrame([]byte("plain"))
	if err := rx.Decrypt(d); err == nil {
		t.Fatal("unprotected frame decrypted")
	}
}

func TestNewSessionBadKey(t *testing.T) {
	if _, err := NewSession(make([]byte, 15)); err == nil {
		t.Fatal("15-byte TK accepted")
	}
}

// RFC 6070 PBKDF2-HMAC-SHA1 vectors.
func TestPBKDF2Vectors(t *testing.T) {
	cases := []struct {
		p, s  string
		iter  int
		dkLen int
		want  string
	}{
		{"password", "salt", 1, 20, "0c60c80f961f0e71f3a9b524af6012062fe037a6"},
		{"password", "salt", 2, 20, "ea6c014dc72d6f8ccd1ed92ace1d41f0d8de8957"},
		{"password", "salt", 4096, 20, "4b007901b765489abead49d926f721d065a429c1"},
		{"passwordPASSWORDpassword", "saltSALTsaltSALTsaltSALTsaltSALTsalt", 4096, 25,
			"3d2eec4fe41c849b80c8d83662c0e44a8b291a964cf2f07038"},
	}
	for _, c := range cases {
		got := PBKDF2([]byte(c.p), []byte(c.s), c.iter, c.dkLen)
		if hex.EncodeToString(got) != c.want {
			t.Errorf("PBKDF2(%q,%q,%d) = %x, want %s", c.p, c.s, c.iter, got, c.want)
		}
	}
}

// IEEE 802.11i Annex test vector for passphrase→PMK mapping.
func TestPMKVector(t *testing.T) {
	got := PMK("password", "IEEE")
	want := "f42c6fc52df0ebef9ebb4b90b38a5f902e83fe1b135a70e23aed762e9710a12e"
	if hex.EncodeToString(got) != want {
		t.Fatalf("PMK = %x, want %s", got, want)
	}
}

// TestKeyringMemoizesPMK: a keyring returns PMK's bytes, derives each
// (passphrase, SSID) pair once, and keys on both halves of the pair.
func TestKeyringMemoizesPMK(t *testing.T) {
	var k Keyring // the zero value is ready to use
	a := k.PMK("password", "IEEE")
	if !bytes.Equal(a, PMK("password", "IEEE")) {
		t.Fatalf("keyring PMK = %x, want %x", a, PMK("password", "IEEE"))
	}
	if again := k.PMK("password", "IEEE"); &again[0] != &a[0] || k.Derivations() != 1 {
		t.Fatalf("repeat lookup derived again (derivations = %d)", k.Derivations())
	}
	otherSSID := k.PMK("password", "IEEE2")
	otherPass := k.PMK("password2", "IEEE")
	if k.Derivations() != 3 {
		t.Fatalf("derivations = %d, want 3 distinct pairs", k.Derivations())
	}
	if bytes.Equal(otherSSID, a) || bytes.Equal(otherPass, a) || bytes.Equal(otherSSID, otherPass) {
		t.Fatal("distinct (passphrase, SSID) pairs share a PMK")
	}
}

func TestPTKSymmetry(t *testing.T) {
	pmk := PMK("pass", "net")
	an := bytes.Repeat([]byte{3}, 32)
	sn := bytes.Repeat([]byte{4}, 32)
	// Both sides must derive the same key regardless of argument
	// perspective (the derivation sorts MACs and nonces).
	k1 := PTK(pmk, apMAC, staMAC, an, sn)
	k2 := PTK(pmk, staMAC, apMAC, sn, an)
	if !bytes.Equal(k1, k2) {
		t.Fatal("PTK not symmetric")
	}
	if len(k1) != 48 {
		t.Fatalf("PTK length = %d, want 48", len(k1))
	}
	if len(TKFromPTK(k1)) != 16 {
		t.Fatal("TK length wrong")
	}
	// Different nonces change the key.
	k3 := PTK(pmk, apMAC, staMAC, an, bytes.Repeat([]byte{5}, 32))
	if bytes.Equal(k1, k3) {
		t.Fatal("nonce change did not alter PTK")
	}
}

func TestHandshakeSessionsInterop(t *testing.T) {
	pmk := PMK("p", "s")
	a, b, err := handshake(pmk, apMAC, staMAC, make([]byte, 32), make([]byte, 32))
	if err != nil {
		t.Fatal(err)
	}
	if a.tk != b.tk {
		t.Fatal("handshake produced different TKs")
	}
	d := protectedFrame([]byte("x"))
	if err := a.Encrypt(d); err != nil {
		t.Fatal(err)
	}
	if err := b.Decrypt(d); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeLatencyRange(t *testing.T) {
	// The paper cites 200–700 µs for WPA2 frame decoding. Check that
	// all three profiles land in that bracket for typical frames.
	for _, p := range []DecodeProfile{FastDecoder, TypicalDecoder, SlowDecoder} {
		for _, n := range []int{100, 500, 1500} {
			l := p.Latency(n)
			if l < 180*eventsim.Microsecond || l > 700*eventsim.Microsecond {
				t.Fatalf("Latency(%d) = %v outside the paper's bracket", n, l)
			}
		}
	}
	if FastDecoder.Latency(1500) >= SlowDecoder.Latency(1500) {
		t.Fatal("profile ordering wrong")
	}
}

func TestCheckSIFS(t *testing.T) {
	// The central §2.2 result: no decode profile meets SIFS, by 20–70×.
	for _, band := range []phy.Band{phy.Band2GHz, phy.Band5GHz} {
		for _, p := range []DecodeProfile{FastDecoder, TypicalDecoder, SlowDecoder} {
			r := CheckSIFS(band, p, 500)
			if r.MeetsSIFS {
				t.Fatalf("decode claims to meet SIFS on %v", band)
			}
			if r.Ratio < 10 || r.Ratio > 80 {
				t.Fatalf("decode/SIFS ratio = %.1f, want within [10,80]", r.Ratio)
			}
		}
	}
}

func BenchmarkCCMPEncrypt(b *testing.B) {
	s, _ := NewSession(make([]byte, 16))
	payload := make([]byte, 1500)
	b.SetBytes(1500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := protectedFrame(payload)
		if err := s.Encrypt(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPMK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		PMK("password", "IEEE")
	}
}
