// Package dot11 implements an IEEE 802.11 MAC frame codec: typed
// frames for the management, control and data classes, information
// elements, FCS handling, and Wireshark-style rendering.
//
// The codec follows the gopacket idiom: every frame type implements
// the Frame interface with DecodeFromBytes and AppendTo methods, and
// package-level Decode/Serialize functions dispatch on the Frame
// Control field. All wire formats are little-endian as required by
// the standard.
package dot11

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// MAC is a 48-bit IEEE 802 MAC address. Being an array (not a slice)
// it is comparable and usable as a map key, which the discovery and
// census code relies on.
type MAC [6]byte

// Well-known addresses.
var (
	// Broadcast is the all-ones broadcast address.
	Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	// ZeroMAC is the all-zeros address, used as "unset".
	ZeroMAC = MAC{}
)

// ParseMAC parses the colon- or dash-separated hex form
// ("aa:bb:cc:dd:ee:ff").
func ParseMAC(s string) (MAC, error) {
	var m MAC
	s = strings.ReplaceAll(s, "-", ":")
	parts := strings.Split(s, ":")
	if len(parts) != 6 {
		return m, fmt.Errorf("dot11: invalid MAC %q", s)
	}
	for i, p := range parts {
		if len(p) != 2 {
			return m, fmt.Errorf("dot11: invalid MAC octet %q", p)
		}
		var b byte
		for _, c := range p {
			b <<= 4
			switch {
			case c >= '0' && c <= '9':
				b |= byte(c - '0')
			case c >= 'a' && c <= 'f':
				b |= byte(c-'a') + 10
			case c >= 'A' && c <= 'F':
				b |= byte(c-'A') + 10
			default:
				return m, fmt.Errorf("dot11: invalid MAC octet %q", p)
			}
		}
		m[i] = b
	}
	return m, nil
}

// MustMAC is ParseMAC that panics on error; for constants in tests and
// examples.
func MustMAC(s string) MAC {
	m, err := ParseMAC(s)
	if err != nil {
		panic(err)
	}
	return m
}

// String renders the canonical lowercase colon form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsGroup reports whether the group (multicast) bit is set. Broadcast
// is a group address.
func (m MAC) IsGroup() bool { return m[0]&0x01 != 0 }

// IsUnicast reports whether m addresses a single station.
func (m MAC) IsUnicast() bool { return !m.IsGroup() && m != ZeroMAC }

// OUI returns the 24-bit organizationally unique identifier prefix.
func (m MAC) OUI() OUI { return OUI{m[0], m[1], m[2]} }

// Matches reports whether a received frame with receiver address m
// should be accepted by a station with address self: an exact match
// or a group address.
func (m MAC) Matches(self MAC) bool {
	return m == self || m.IsGroup()
}

// OUI is the 3-byte vendor prefix of a MAC address.
type OUI [3]byte

// String renders the prefix in colon form.
func (o OUI) String() string {
	return fmt.Sprintf("%02x:%02x:%02x", o[0], o[1], o[2])
}

// WithSuffix builds a full MAC from the OUI and a 24-bit suffix.
func (o OUI) WithSuffix(suffix uint32) MAC {
	var m MAC
	m[0], m[1], m[2] = o[0], o[1], o[2]
	m[3] = byte(suffix >> 16)
	m[4] = byte(suffix >> 8)
	m[5] = byte(suffix)
	return m
}

// errShortFrame is returned whenever a buffer is too small for the
// structure being decoded.
var errShortFrame = errors.New("dot11: frame truncated")

func putMAC(b []byte, m MAC) { copy(b, m[:]) }

func getMAC(b []byte) MAC {
	var m MAC
	copy(m[:], b)
	return m
}

func putU16(b []byte, v uint16) { binary.LittleEndian.PutUint16(b, v) }
func getU16(b []byte) uint16    { return binary.LittleEndian.Uint16(b) }
func putU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }
func getU64(b []byte) uint64    { return binary.LittleEndian.Uint64(b) }
