package crypto80211

import (
	"bytes"
	"testing"

	"politewifi/internal/dot11"
	"politewifi/internal/eventsim"
)

func randBytes(g *eventsim.RNG, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(g.Intn(256))
	}
	return b
}

func randMAC(g *eventsim.RNG) (m dot11.MAC) {
	copy(m[:], randBytes(g, len(m)))
	return m
}

// randDataFrame draws a data frame with random addresses, flags,
// sequence control, TID and a payload of 0–2,304 bytes.
func randDataFrame(g *eventsim.RNG) *dot11.Data {
	d := &dot11.Data{
		Header: dot11.Header{
			FC: dot11.FrameControl{
				ToDS: g.Coin(0.5), FromDS: g.Coin(0.5),
				Retry: g.Coin(0.3), PowerMgmt: g.Coin(0.3), MoreData: g.Coin(0.3),
			},
			Addr1: randMAC(g), Addr2: randMAC(g), Addr3: randMAC(g),
			Seq: dot11.SequenceControl{Number: uint16(g.Intn(4096)), Fragment: uint8(g.Intn(16))},
		},
		Payload: randBytes(g, g.Intn(2305)),
	}
	if g.Coin(0.5) {
		d.QoS = true
		d.TID = uint8(g.Intn(16))
	}
	return d
}

// A session's CCM keeps one key schedule and one set of scratch
// blocks for its lifetime; over many random keys, nonces, AADs of
// 0–30 bytes and payloads of 0–2,304 bytes, reusing them must give
// the bytes SealCCM and OpenCCM give with a fresh key expansion.
func TestSessionCCMMatchesReference(t *testing.T) {
	g := eventsim.NewRNG(3610)
	for k := 0; k < 20; k++ {
		key := randBytes(g, 16)
		s, err := NewSession(key)
		if err != nil {
			t.Fatal(err)
		}
		var buf []byte
		for i := 0; i < 25; i++ {
			nonce := randBytes(g, NonceLen)
			aad := randBytes(g, g.Intn(31))
			plain := randBytes(g, g.Intn(2305))
			want, err := SealCCM(key, nonce, plain, aad)
			if err != nil {
				t.Fatal(err)
			}
			buf = s.c.seal(buf[:0], nonce, plain, aad)
			if !bytes.Equal(buf, want) {
				t.Fatalf("key %d msg %d (aad %d B, payload %d B): session seal differs from SealCCM", k, i, len(aad), len(plain))
			}
			got, err := s.c.open(nonce, want, aad)
			if err != nil || !bytes.Equal(got, plain) {
				t.Fatalf("key %d msg %d: session open = %v, %x; want the plaintext", k, i, err, got)
			}
			ref, err := OpenCCM(key, nonce, want, aad)
			if err != nil || !bytes.Equal(ref, plain) {
				t.Fatalf("key %d msg %d: OpenCCM = %v", k, i, err)
			}
		}
	}
}

// Encrypt, EncryptInto and EncryptDeauth must lay out exactly
// CCMP header || SealCCM output under the frame's nonce and AAD, and
// Decrypt/DecryptDeauth must invert them; a flipped MIC bit is an
// authentication failure and a replayed PN a replay.
func TestSessionFramesMatchReference(t *testing.T) {
	g := eventsim.NewRNG(80211)
	for k := 0; k < 20; k++ {
		tk := randBytes(g, 16)
		tx, _ := NewSession(tk)
		rx, _ := NewSession(tk)
		var buf []byte
		for i := 0; i < 20; i++ {
			d := randDataFrame(g)
			plain := append([]byte(nil), d.Payload...)
			pn := tx.txPN + 1
			nonce := buildNonce(d.TID, d.Addr2, pn)
			aad := buildAAD(d)
			sealed, err := SealCCM(tk, nonce[:], plain, aad[:])
			if err != nil {
				t.Fatal(err)
			}
			hdr := ccmpHeader(pn)
			want := append(hdr[:], sealed...)

			into := i%2 == 1
			if into {
				err = tx.EncryptInto(d, buf)
			} else {
				err = tx.Encrypt(d)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(d.Payload, want) {
				t.Fatalf("key %d frame %d (into=%v, %d B): protected payload differs from the reference", k, i, into, len(plain))
			}
			if into {
				buf = d.Payload
			}

			// A flipped MIC bit fails authentication and leaves the
			// replay window alone.
			bad := *d
			bad.Payload = append([]byte(nil), d.Payload...)
			bad.Payload[len(bad.Payload)-1-g.Intn(MICLen)] ^= 1 << g.Intn(8)
			if err := rx.Decrypt(&bad); err != ErrAuth {
				t.Fatalf("key %d frame %d: flipped MIC bit: err = %v, want ErrAuth", k, i, err)
			}
			got := *d
			got.Payload = append([]byte(nil), d.Payload...)
			if err := rx.Decrypt(&got); err != nil {
				t.Fatalf("key %d frame %d: Decrypt: %v", k, i, err)
			}
			if !bytes.Equal(got.Payload, plain) {
				t.Fatalf("key %d frame %d: Decrypt returned other bytes", k, i)
			}
			again := *d
			again.Payload = append([]byte(nil), d.Payload...)
			if err := rx.Decrypt(&again); err != ErrReplay {
				t.Fatalf("key %d frame %d: replayed PN: err = %v, want ErrReplay", k, i, err)
			}
		}

		dtx, _ := NewSession(tk)
		drx, _ := NewSession(tk)
		for i := 0; i < 5; i++ {
			de := &dot11.Deauth{
				Header: dot11.Header{
					FC:    dot11.FrameControl{FromDS: g.Coin(0.5), Retry: g.Coin(0.5)},
					Addr1: randMAC(g), Addr2: randMAC(g), Addr3: randMAC(g),
					Seq: dot11.SequenceControl{Number: uint16(g.Intn(4096))},
				},
				Reason: dot11.ReasonCode(g.Intn(1 << 16)),
			}
			reason := de.Reason
			pn := dtx.txPN + 1
			if err := dtx.EncryptDeauth(de); err != nil {
				t.Fatal(err)
			}
			nonce := buildNonce(mgmtNoncePriority, de.Addr2, pn)
			aad := mgmtAAD(de.Control(), de.Addr1, de.Addr2, de.Addr3)
			sealed, err := SealCCM(tk, nonce[:], []byte{byte(reason), byte(uint16(reason) >> 8)}, aad[:])
			if err != nil {
				t.Fatal(err)
			}
			hdr := ccmpHeader(pn)
			if want := append(hdr[:], sealed...); !bytes.Equal(de.ProtectedBody, want) {
				t.Fatalf("key %d deauth %d: protected body differs from the reference", k, i)
			}
			bad := *de
			bad.ProtectedBody = append([]byte(nil), de.ProtectedBody...)
			bad.ProtectedBody[len(bad.ProtectedBody)-1-g.Intn(MICLen)] ^= 1 << g.Intn(8)
			if err := drx.DecryptDeauth(&bad); err != ErrAuth {
				t.Fatalf("key %d deauth %d: flipped MIC bit: err = %v, want ErrAuth", k, i, err)
			}
			got := *de
			got.ProtectedBody = append([]byte(nil), de.ProtectedBody...)
			if err := drx.DecryptDeauth(&got); err != nil || got.Reason != reason {
				t.Fatalf("key %d deauth %d: DecryptDeauth = %v, reason %v; want %v", k, i, err, got.Reason, reason)
			}
			if err := drx.DecryptDeauth(de); err != ErrReplay {
				t.Fatalf("key %d deauth %d: replayed PN: err = %v, want ErrReplay", k, i, err)
			}
		}
	}
}

// EncryptInto writes into the buffer it is given when it has room and
// allocates a large enough one when it does not.
func TestEncryptIntoReusesBuffer(t *testing.T) {
	tx, _ := newPair(t)
	buf := make([]byte, 0, 256)
	d := protectedFrame([]byte("reuse me"))
	if err := tx.EncryptInto(d, buf); err != nil {
		t.Fatal(err)
	}
	if &d.Payload[0] != &buf[:1][0] {
		t.Fatal("EncryptInto did not write into the buffer it was given")
	}
	small := make([]byte, 0, 4)
	d = protectedFrame(bytes.Repeat([]byte{7}, 100))
	if err := tx.EncryptInto(d, small); err != nil {
		t.Fatal(err)
	}
	if len(d.Payload) != HeaderLen+100+MICLen || &d.Payload[0] == &small[:1][0] {
		t.Fatalf("EncryptInto into a short buffer: %d bytes", len(d.Payload))
	}
}

// BenchmarkSessionSeal seals a 1,500-byte payload into a reused
// buffer: with the key schedule built once per session this path
// allocates nothing.
func BenchmarkSessionSeal(b *testing.B) {
	s, _ := NewSession(make([]byte, 16))
	payload := make([]byte, 1500)
	d := protectedFrame(nil)
	buf := make([]byte, 0, HeaderLen+len(payload)+MICLen)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Payload = payload
		if err := s.EncryptInto(d, buf); err != nil {
			b.Fatal(err)
		}
		buf = d.Payload
	}
}
