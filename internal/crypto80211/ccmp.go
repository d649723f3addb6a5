package crypto80211

import (
	"errors"
	"fmt"

	"politewifi/internal/dot11"
)

// HeaderLen is the CCMP header length prepended to the encrypted
// frame body.
const HeaderLen = 8

// aadLen is the length of the AAD built from a three-address header.
const aadLen = 22

// ErrReplay is returned when a frame's packet number does not exceed
// the last accepted one.
var ErrReplay = errors.New("crypto80211: CCMP replay detected")

// Session is one direction of a CCMP-protected link: a temporal key,
// expanded into its AES key schedule once when the session is made,
// plus transmit packet-number state and a receive replay window. A
// Session is not safe for concurrent use.
type Session struct {
	tk     [16]byte
	c      ccm
	txPN   uint64
	lastRx uint64
	hasRx  bool
}

// NewSession creates a session from a 16-byte temporal key.
func NewSession(tk []byte) (*Session, error) {
	if len(tk) != 16 {
		return nil, fmt.Errorf("crypto80211: temporal key must be 16 bytes, got %d", len(tk))
	}
	s := new(Session)
	copy(s.tk[:], tk)
	if err := s.c.init(tk); err != nil {
		return nil, err
	}
	return s, nil
}

// buildNonce assembles the 13-byte CCMP nonce: priority, A2, PN.
func buildNonce(priority uint8, a2 dot11.MAC, pn uint64) [NonceLen]byte {
	var n [NonceLen]byte
	n[0] = priority
	copy(n[1:7], a2[:])
	n[7] = byte(pn >> 40)
	n[8] = byte(pn >> 32)
	n[9] = byte(pn >> 24)
	n[10] = byte(pn >> 16)
	n[11] = byte(pn >> 8)
	n[12] = byte(pn)
	return n
}

// buildAAD constructs the additional authenticated data from the MAC
// header: masked frame control, the three addresses, and masked
// sequence control (802.11-2016 §12.5.3.3.3). The frame control is
// taken from Control() so the AAD is identical whether computed
// before serialization (type/subtype still zero in the struct) or
// after decoding.
func buildAAD(d *dot11.Data) [aadLen]byte {
	var aad [aadLen]byte
	fc := d.Control()
	fc.Retry, fc.PowerMgmt, fc.MoreData = false, false, false
	fc.Protected = true
	fcv := fc.Uint16() &^ 0x0070 // mask subtype bits b4-b6 (QoS variants)
	aad[0] = byte(fcv)
	aad[1] = byte(fcv >> 8)
	copy(aad[2:8], d.Addr1[:])
	copy(aad[8:14], d.Addr2[:])
	copy(aad[14:20], d.Addr3[:])
	sc := d.Seq.Uint16() & 0x000f // sequence number masked, fragment kept
	aad[20] = byte(sc)
	aad[21] = byte(sc >> 8)
	return aad
}

// ccmpHeader encodes the 8-byte CCMP header for packet number pn with
// key ID 0 and the ExtIV bit set.
func ccmpHeader(pn uint64) [HeaderLen]byte {
	var h [HeaderLen]byte
	h[0] = byte(pn)
	h[1] = byte(pn >> 8)
	h[2] = 0
	h[3] = 0x20 // ExtIV, key ID 0
	h[4] = byte(pn >> 16)
	h[5] = byte(pn >> 24)
	h[6] = byte(pn >> 32)
	h[7] = byte(pn >> 40)
	return h
}

func parseCCMPHeader(b []byte) (uint64, error) {
	if len(b) < HeaderLen {
		return 0, errors.New("crypto80211: CCMP header truncated")
	}
	if b[3]&0x20 == 0 {
		return 0, errors.New("crypto80211: ExtIV not set")
	}
	pn := uint64(b[0]) | uint64(b[1])<<8 |
		uint64(b[4])<<16 | uint64(b[5])<<24 | uint64(b[6])<<32 | uint64(b[7])<<40
	return pn, nil
}

// Encrypt protects a data frame in place: the payload is replaced by
// CCMP header || ciphertext || MIC and the Protected flag is set.
func (s *Session) Encrypt(d *dot11.Data) error {
	return s.EncryptInto(d, nil)
}

// EncryptInto is Encrypt writing the protected payload into buf's
// backing array when it has room, so a caller that recycles frames
// reuses their payload buffers; buf's contents are discarded, and buf
// must not overlap d.Payload.
func (s *Session) EncryptInto(d *dot11.Data, buf []byte) error {
	if d.Null {
		return errors.New("crypto80211: null frames carry no body to protect")
	}
	s.txPN++
	pn := s.txPN
	d.FC.Protected = true
	nonce := buildNonce(d.TID, d.Addr2, pn)
	aad := buildAAD(d)
	if need := HeaderLen + len(d.Payload) + MICLen; cap(buf) < need {
		buf = make([]byte, 0, need)
	}
	hdr := ccmpHeader(pn)
	out := append(buf[:0], hdr[:]...)
	d.Payload = s.c.seal(out, nonce[:], d.Payload, aad[:])
	return nil
}

// Decrypt verifies and unwraps a protected data frame in place,
// enforcing PN replay ordering.
func (s *Session) Decrypt(d *dot11.Data) error {
	if !d.FC.Protected {
		return errors.New("crypto80211: frame not protected")
	}
	pn, err := parseCCMPHeader(d.Payload)
	if err != nil {
		return err
	}
	if s.hasRx && pn <= s.lastRx {
		return ErrReplay
	}
	nonce := buildNonce(d.TID, d.Addr2, pn)
	aad := buildAAD(d)
	plain, err := s.c.open(nonce[:], d.Payload[HeaderLen:], aad[:])
	if err != nil {
		return err
	}
	s.lastRx = pn
	s.hasRx = true
	d.Payload = plain
	d.FC.Protected = false
	return nil
}
