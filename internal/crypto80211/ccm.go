// Package crypto80211 implements the WPA2 (RSN) data-confidentiality
// machinery the simulator needs: AES-CCM (RFC 3610) built on the
// standard library's AES block cipher, the CCMP frame encapsulation
// of 802.11-2016 §12.5.3, the PBKDF2/PRF-384 key hierarchy, and a
// decode-latency model used for the paper's §2.2 argument that frame
// validation cannot fit inside a SIFS.
package crypto80211

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"errors"
	"fmt"
)

// CCM parameters used by CCMP-128.
const (
	ccmBlockSize = 16
	// MICLen is the CCMP-128 message integrity code length (M = 8).
	MICLen = 8
	// NonceLen is the CCMP nonce length (15 - L with L = 2).
	NonceLen = 13
)

// ErrAuth is returned when the MIC does not verify — the frame was
// forged or corrupted.
var ErrAuth = errors.New("crypto80211: message authentication failed")

// ccm holds a keyed CCM instance: the AES key schedule plus scratch
// blocks. The blocks live here, not on the stack, because the cipher
// is an interface and every slice handed to it escapes; a ccm kept for
// a session's lifetime therefore seals and opens without allocating.
// A ccm is not safe for concurrent use.
type ccm struct {
	block        cipher.Block
	x, in, keyst [ccmBlockSize]byte
}

func newCCM(key []byte) (*ccm, error) {
	c := new(ccm)
	if err := c.init(key); err != nil {
		return nil, err
	}
	return c, nil
}

// init expands key into c's AES key schedule.
func (c *ccm) init(key []byte) error {
	block, err := aes.NewCipher(key)
	if err != nil {
		return fmt.Errorf("crypto80211: %w", err)
	}
	c.block = block
	return nil
}

// b0 builds the first authentication block.
func b0(nonce []byte, adata bool, plainLen int) [ccmBlockSize]byte {
	var b [ccmBlockSize]byte
	flags := byte((MICLen - 2) / 2 << 3) // M' field
	flags |= 0x01                        // L' = L-1 = 1
	if adata {
		flags |= 0x40
	}
	b[0] = flags
	copy(b[1:14], nonce)
	b[14] = byte(plainLen >> 8)
	b[15] = byte(plainLen)
	return b
}

// ctrBlock builds the i-th counter block.
func ctrBlock(nonce []byte, i uint16) [ccmBlockSize]byte {
	var a [ccmBlockSize]byte
	a[0] = 0x01 // L' = 1
	copy(a[1:14], nonce)
	a[14] = byte(i >> 8)
	a[15] = byte(i)
	return a
}

// cbcMAC leaves the CCM authentication tag state over the AAD and
// plaintext in c.x.
func (c *ccm) cbcMAC(nonce, aad, plaintext []byte) {
	c.in = b0(nonce, len(aad) > 0, len(plaintext))
	c.block.Encrypt(c.x[:], c.in[:])

	if len(aad) > 0 {
		// AAD length encoding for len < 2^16-2^8: two bytes.
		c.in = [ccmBlockSize]byte{byte(len(aad) >> 8), byte(len(aad))}
		n := copy(c.in[2:], aad)
		c.chain()
		aad = aad[n:]
		for len(aad) > 0 {
			c.in = [ccmBlockSize]byte{}
			n := copy(c.in[:], aad)
			aad = aad[n:]
			c.chain()
		}
	}

	for len(plaintext) > 0 {
		c.in = [ccmBlockSize]byte{}
		n := copy(c.in[:], plaintext)
		plaintext = plaintext[n:]
		c.chain()
	}
}

// chain folds the block in c.in into the CBC-MAC state c.x.
func (c *ccm) chain() {
	for i := range c.in {
		c.in[i] ^= c.x[i]
	}
	c.block.Encrypt(c.x[:], c.in[:])
}

// ctrXOR applies CCM counter-mode keystream (counters starting at 1)
// to data in place.
func (c *ccm) ctrXOR(nonce []byte, data []byte) {
	for i := 0; len(data) > 0; i++ {
		c.in = ctrBlock(nonce, uint16(i+1))
		c.block.Encrypt(c.keyst[:], c.in[:])
		n := len(data)
		if n > ccmBlockSize {
			n = ccmBlockSize
		}
		for j := 0; j < n; j++ {
			data[j] ^= c.keyst[j]
		}
		data = data[n:]
	}
}

// mic encrypts the CBC-MAC state in c.x with counter block 0.
func (c *ccm) mic(nonce []byte) [MICLen]byte {
	c.in = ctrBlock(nonce, 0)
	c.block.Encrypt(c.keyst[:], c.in[:])
	var mic [MICLen]byte
	for i := 0; i < MICLen; i++ {
		mic[i] = c.x[i] ^ c.keyst[i]
	}
	return mic
}

// seal appends ciphertext||MIC of plaintext to dst, which must not
// overlap plaintext. The nonce must be NonceLen bytes.
func (c *ccm) seal(dst, nonce, plaintext, aad []byte) []byte {
	c.cbcMAC(nonce, aad, plaintext)
	mic := c.mic(nonce)
	n := len(dst)
	dst = append(dst, plaintext...)
	c.ctrXOR(nonce, dst[n:])
	return append(dst, mic[:]...)
}

// open decrypts and verifies ciphertext||MIC into a new slice,
// returning the plaintext or ErrAuth. The nonce must be NonceLen
// bytes.
func (c *ccm) open(nonce, sealed, aad []byte) ([]byte, error) {
	if len(sealed) < MICLen {
		return nil, ErrAuth
	}
	plaintext := make([]byte, len(sealed)-MICLen)
	copy(plaintext, sealed[:len(plaintext)])
	c.ctrXOR(nonce, plaintext)
	c.cbcMAC(nonce, aad, plaintext)
	want := c.mic(nonce)
	got := sealed[len(plaintext):]
	if subtle.ConstantTimeCompare(want[:], got) != 1 {
		return nil, ErrAuth
	}
	return plaintext, nil
}

// SealCCM encrypts and authenticates plaintext with the 16-byte key,
// 13-byte nonce and additional authenticated data, returning
// ciphertext||MIC. It expands the key on every call; Session keeps
// one expansion per key and is the path the simulator takes.
func SealCCM(key, nonce, plaintext, aad []byte) ([]byte, error) {
	if len(nonce) != NonceLen {
		return nil, fmt.Errorf("crypto80211: nonce must be %d bytes, got %d", NonceLen, len(nonce))
	}
	c, err := newCCM(key)
	if err != nil {
		return nil, err
	}
	return c.seal(make([]byte, 0, len(plaintext)+MICLen), nonce, plaintext, aad), nil
}

// OpenCCM decrypts and verifies ciphertext||MIC, returning the
// plaintext or ErrAuth. Like SealCCM it expands the key on every call.
func OpenCCM(key, nonce, sealed, aad []byte) ([]byte, error) {
	if len(nonce) != NonceLen {
		return nil, fmt.Errorf("crypto80211: nonce must be %d bytes, got %d", NonceLen, len(nonce))
	}
	if len(sealed) < MICLen {
		return nil, ErrAuth
	}
	c, err := newCCM(key)
	if err != nil {
		return nil, err
	}
	return c.open(nonce, sealed, aad)
}
