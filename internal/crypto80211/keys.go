package crypto80211

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha1"
	"encoding/binary"

	"politewifi/internal/dot11"
)

// PBKDF2 derives keyLen bytes from the password and salt using
// HMAC-SHA1, as WPA2 does for the pairwise master key
// (PMK = PBKDF2(passphrase, ssid, 4096, 32)).
func PBKDF2(password, salt []byte, iter, keyLen int) []byte {
	// One keyed HMAC for the whole derivation: Reset restores the
	// keyed state and Sum appends into a reused buffer, so the 4096
	// iterations per block run without per-iteration allocation.
	h := hmac.New(sha1.New, password)
	hLen := h.Size()
	numBlocks := (keyLen + hLen - 1) / hLen
	dk := make([]byte, 0, numBlocks*hLen)
	u := make([]byte, 0, hLen)
	for block := 1; block <= numBlocks; block++ {
		var idx [4]byte
		binary.BigEndian.PutUint32(idx[:], uint32(block))
		h.Reset()
		h.Write(salt)
		h.Write(idx[:])
		u = h.Sum(u[:0])
		dk = append(dk, u...)
		t := dk[len(dk)-hLen:]
		for i := 1; i < iter; i++ {
			h.Reset()
			h.Write(u)
			u = h.Sum(u[:0])
			for j := range t {
				t[j] ^= u[j]
			}
		}
	}
	return dk[:keyLen]
}

// PMK derives the pairwise master key from a WPA2-Personal
// passphrase and SSID. Each call runs the full 4096-iteration PBKDF2;
// code that derives the same key more than once (an AP and its
// clients) goes through a Keyring instead.
func PMK(passphrase, ssid string) []byte {
	return PBKDF2([]byte(passphrase), []byte(ssid), 4096, 32)
}

// Keyring memoizes PMK by (passphrase, SSID), deriving on a miss, so
// the stations of one network share one derivation: an AP and its
// clients each need the same key during their handshakes. The zero
// value is an empty keyring ready to use; it is not safe for
// concurrent use.
//
// A keyring belongs to one simulation (a wardrive stop) and dies with
// it, rather than being package-level: every stop then pays the same
// derivations whichever worker runs it and whatever ran before, a
// network that never handshakes costs nothing, and no state outlives
// or crosses goroutines.
type Keyring struct {
	pmks        map[keyringKey][]byte
	derivations int
}

type keyringKey struct{ passphrase, ssid string }

// PMK returns PMK(passphrase, ssid), deriving it on the first request
// for the pair. The returned slice is shared by every caller and must
// not be modified.
func (k *Keyring) PMK(passphrase, ssid string) []byte {
	key := keyringKey{passphrase, ssid}
	pmk, ok := k.pmks[key]
	if !ok {
		if k.pmks == nil {
			k.pmks = make(map[keyringKey][]byte)
		}
		pmk = PMK(passphrase, ssid)
		k.pmks[key] = pmk
		k.derivations++
	}
	return pmk
}

// Derivations reports how many PBKDF2 derivations the keyring ran:
// one per distinct (passphrase, SSID) pair requested.
func (k *Keyring) Derivations() int { return k.derivations }

// PRF implements the IEEE 802.11 PRF-n (HMAC-SHA1 based) used for
// pairwise key expansion. label is a NUL-terminated application
// label; n is the number of output bytes.
func PRF(key []byte, label string, data []byte, n int) []byte {
	var out []byte
	for i := byte(0); len(out) < n; i++ {
		h := hmac.New(sha1.New, key)
		h.Write([]byte(label))
		h.Write([]byte{0})
		h.Write(data)
		h.Write([]byte{i})
		out = h.Sum(out)
	}
	return out[:n]
}

// PTK derives the 48-byte pairwise transient key (KCK||KEK||TK) from
// the PMK, the two MAC addresses, and the two handshake nonces.
func PTK(pmk []byte, aa, spa dot11.MAC, anonce, snonce []byte) []byte {
	minMAC, maxMAC := aa, spa
	if bytes.Compare(spa[:], aa[:]) < 0 {
		minMAC, maxMAC = spa, aa
	}
	minN, maxN := anonce, snonce
	if bytes.Compare(snonce, anonce) < 0 {
		minN, maxN = snonce, anonce
	}
	data := make([]byte, 0, 12+len(minN)+len(maxN))
	data = append(data, minMAC[:]...)
	data = append(data, maxMAC[:]...)
	data = append(data, minN...)
	data = append(data, maxN...)
	return PRF(pmk, "Pairwise key expansion", data, 48)
}

// TKFromPTK extracts the 16-byte temporal key (bytes 32..48) used by
// CCMP from a 48-byte PTK.
func TKFromPTK(ptk []byte) []byte { return ptk[32:48] }

// Handshake performs the simulator's condensed 4-way handshake: given
// a shared PMK, the authenticator and supplicant addresses, and two
// nonces, both sides arrive at the same CCMP session keys. It returns
// one Session per direction seeded with the same TK, mirroring how a
// real PTK protects both directions of the link.
func Handshake(pmk []byte, ap, sta dot11.MAC, anonce, snonce []byte) (apSess, staSess *Session, err error) {
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
