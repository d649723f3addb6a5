package crypto80211

import (
	"errors"

	"politewifi/internal/dot11"
)

// 802.11w (Protected Management Frames) support: unicast robust
// management frames (deauthentication, disassociation, action) are
// CCMP-protected under the pairwise key, exactly like data frames
// but with a management AAD. This defeats forged-deauth attacks —
// while leaving control frames, and therefore Polite WiFi, untouched
// (the paper's footnote 2).

// mgmtAAD builds the AAD for a robust management frame: frame
// control (management type), the three addresses, masked sequence
// control.
func mgmtAAD(fc dot11.FrameControl, a1, a2, a3 dot11.MAC) [aadLen]byte {
	var aad [aadLen]byte
	fc.Retry, fc.PowerMgmt, fc.MoreData = false, false, false
	fc.Protected = true
	v := fc.Uint16()
	aad[0] = byte(v)
	aad[1] = byte(v >> 8)
	copy(aad[2:8], a1[:])
	copy(aad[8:14], a2[:])
	copy(aad[14:20], a3[:])
	return aad
}

// mgmtNoncePriority marks management-frame nonces so they can never
// collide with data-frame nonces under the same PN space.
const mgmtNoncePriority = 0x10

// EncryptDeauth protects a deauthentication frame in place under the
// session's pairwise key (802.11w unicast robust management frame).
func (s *Session) EncryptDeauth(d *dot11.Deauth) error {
	s.txPN++
	pn := s.txPN
	d.FC.Protected = true
	fc := d.Control()
	nonce := buildNonce(mgmtNoncePriority, d.Addr2, pn)
	var reason [2]byte
	reason[0] = byte(d.Reason)
	reason[1] = byte(uint16(d.Reason) >> 8)
	aad := mgmtAAD(fc, d.Addr1, d.Addr2, d.Addr3)
	hdr := ccmpHeader(pn)
	body := append(make([]byte, 0, HeaderLen+len(reason)+MICLen), hdr[:]...)
	d.ProtectedBody = s.c.seal(body, nonce[:], reason[:], aad[:])
	return nil
}

// DecryptDeauth verifies and unwraps a protected deauthentication
// frame in place, recovering the reason code.
func (s *Session) DecryptDeauth(d *dot11.Deauth) error {
	if !d.FC.Protected {
		return errors.New("crypto80211: deauth not protected")
	}
	pn, err := parseCCMPHeader(d.ProtectedBody)
	if err != nil {
		return err
	}
	if s.hasRx && pn <= s.lastRx {
		return ErrReplay
	}
	fc := d.Control()
	nonce := buildNonce(mgmtNoncePriority, d.Addr2, pn)
	aad := mgmtAAD(fc, d.Addr1, d.Addr2, d.Addr3)
	plain, err := s.c.open(nonce[:], d.ProtectedBody[HeaderLen:], aad[:])
	if err != nil {
		return err
	}
	if len(plain) != 2 {
		return errors.New("crypto80211: bad deauth body length")
	}
	s.lastRx = pn
	s.hasRx = true
	d.Reason = dot11.ReasonCode(uint16(plain[0]) | uint16(plain[1])<<8)
	d.FC.Protected = false
	d.ProtectedBody = nil
	return nil
}
