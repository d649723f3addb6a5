package dot11

import (
	"errors"
	"fmt"
	"hash/crc32"

	"politewifi/internal/eventsim"
)

// FCSLen is the length of the trailing frame check sequence.
const FCSLen = 4

// ErrBadFCS is returned by Decode when the frame check sequence does
// not match the frame contents. A real PHY drops such frames without
// acknowledging them — the FCS check is the *only* validation that
// happens before the ACK decision.
var ErrBadFCS = errors.New("dot11: FCS check failed")

// ErrUnsupportedFrame is returned for type/subtype combinations the
// codec does not implement.
var ErrUnsupportedFrame = errors.New("dot11: unsupported frame type")

// FCS computes the IEEE CRC-32 frame check sequence over data.
func FCS(data []byte) uint32 {
	return crc32.ChecksumIEEE(data)
}

// Serialize renders a frame to wire bytes with the FCS appended.
func Serialize(f Frame) ([]byte, error) {
	return AppendSerialize(nil, f)
}

// AppendSerialize appends the frame's wire bytes (including FCS) to
// dst and returns the extended slice. Pass a reusable buffer sliced
// to zero length (buf[:0]) to serialize without allocating — the hot
// paths in radio/mac/core keep one scratch buffer per station and
// rely on the medium copying transmitted bytes out of it.
func AppendSerialize(dst []byte, f Frame) ([]byte, error) {
	start := len(dst)
	b, err := f.AppendTo(dst)
	if err != nil {
		return dst, err
	}
	fcs := FCS(b[start:])
	return append(b, byte(fcs), byte(fcs>>8), byte(fcs>>16), byte(fcs>>24)), nil
}

// CheckFCS verifies the trailing FCS and returns the frame bytes with
// the FCS stripped.
func CheckFCS(data []byte) ([]byte, error) {
	if len(data) < FCSLen {
		return nil, errShortFrame
	}
	body := data[:len(data)-FCSLen]
	want := uint32(data[len(data)-4]) | uint32(data[len(data)-3])<<8 |
		uint32(data[len(data)-2])<<16 | uint32(data[len(data)-1])<<24
	if FCS(body) != want {
		return nil, ErrBadFCS
	}
	return body, nil
}

// Decode parses a full frame including FCS. It verifies the FCS first
// (as the PHY does) and then dispatches on Frame Control.
func Decode(data []byte) (Frame, error) {
	body, err := CheckFCS(data)
	if err != nil {
		return nil, err
	}
	return DecodeNoFCS(body)
}

// DecodeNoFCS parses a frame whose FCS has already been stripped into
// a freshly allocated struct.
func DecodeNoFCS(body []byte) (Frame, error) {
	f, err := frameFor(body, nil)
	if err != nil {
		return nil, err
	}
	if err := f.DecodeFromBytes(body); err != nil {
		return nil, err
	}
	return f, nil
}

// frameFor dispatches on the Frame Control field and returns the
// struct to decode into: dec's pooled instance when dec is non-nil, a
// fresh allocation otherwise.
func frameFor(body []byte, dec *Decoder) (Frame, error) {
	if len(body) < 2 {
		return nil, errShortFrame
	}
	fc := ParseFrameControl(getU16(body))
	if fc.Version != 0 {
		return nil, fmt.Errorf("dot11: unsupported protocol version %d", fc.Version)
	}
	switch fc.Type {
	case TypeControl:
		switch fc.Subtype {
		case SubtypeACK:
			if dec != nil {
				return &dec.ack, nil
			}
			return &Ack{}, nil
		case SubtypeCTS:
			if dec != nil {
				return &dec.cts, nil
			}
			return &CTS{}, nil
		case SubtypeRTS:
			if dec != nil {
				return &dec.rts, nil
			}
			return &RTS{}, nil
		case SubtypePSPoll:
			if dec != nil {
				return &dec.pspoll, nil
			}
			return &PSPoll{}, nil
		case SubtypeBlockAckReq:
			if dec != nil {
				return &dec.bar, nil
			}
			return &BlockAckReq{}, nil
		case SubtypeBlockAck:
			if dec != nil {
				return &dec.ba, nil
			}
			return &BlockAck{}, nil
		default:
			return nil, fmt.Errorf("%w: control subtype %d", ErrUnsupportedFrame, fc.Subtype)
		}
	case TypeManagement:
		switch fc.Subtype {
		case SubtypeBeacon:
			if dec != nil {
				return &dec.beacon, nil
			}
			return &Beacon{}, nil
		case SubtypeProbeReq:
			if dec != nil {
				return &dec.probeReq, nil
			}
			return &ProbeReq{}, nil
		case SubtypeProbeResp:
			if dec != nil {
				return &dec.probeResp, nil
			}
			return &ProbeResp{}, nil
		case SubtypeDeauth:
			if dec != nil {
				return &dec.deauth, nil
			}
			return &Deauth{}, nil
		case SubtypeDisassoc:
			if dec != nil {
				return &dec.disassoc, nil
			}
			return &Disassoc{}, nil
		case SubtypeAuth:
			if dec != nil {
				return &dec.auth, nil
			}
			return &Auth{}, nil
		case SubtypeAssocReq:
			if dec != nil {
				return &dec.assocReq, nil
			}
			return &AssocReq{}, nil
		case SubtypeAssocResp:
			if dec != nil {
				return &dec.assocResp, nil
			}
			return &AssocResp{}, nil
		case SubtypeAction:
			if dec != nil {
				return &dec.action, nil
			}
			return &Action{}, nil
		default:
			return nil, fmt.Errorf("%w: management subtype %d", ErrUnsupportedFrame, fc.Subtype)
		}
	case TypeData:
		switch fc.Subtype {
		case SubtypeData, SubtypeNull, SubtypeQoSData, SubtypeQoSNull:
			if dec != nil {
				return &dec.data, nil
			}
			return &Data{}, nil
		default:
			return nil, fmt.Errorf("%w: data subtype %d", ErrUnsupportedFrame, fc.Subtype)
		}
	default:
		return nil, fmt.Errorf("%w: type %d", ErrUnsupportedFrame, fc.Type)
	}
}

// Decoder decodes frames into a pooled instance per frame type, so a
// steady stream of decodes allocates nothing: the returned Frame is
// valid only until the Decoder's next decode of the same type, and —
// like every DecodeFromBytes — aliases the input buffer. A Decoder is
// not safe for concurrent use. Several single-threaded consumers may
// share one if each finishes reading its frame before any other
// decodes; Decodes lets them check that. Retain by copying.
type Decoder struct {
	decodes uint64

	ack       Ack
	cts       CTS
	rts       RTS
	pspoll    PSPoll
	bar       BlockAckReq
	ba        BlockAck
	beacon    Beacon
	probeReq  ProbeReq
	probeResp ProbeResp
	deauth    Deauth
	disassoc  Disassoc
	auth      Auth
	assocReq  AssocReq
	assocResp AssocResp
	action    Action
	data      Data
}

// Decode parses a full frame including FCS into the decoder's pooled
// instance for its type, verifying the FCS first.
func (dec *Decoder) Decode(data []byte) (Frame, error) {
	body, err := CheckFCS(data)
	if err != nil {
		return nil, err
	}
	return dec.DecodeNoFCS(body)
}

// DecodeNoFCS parses a frame whose FCS has already been stripped into
// the decoder's pooled instance for its type.
func (dec *Decoder) DecodeNoFCS(body []byte) (Frame, error) {
	dec.decodes++
	f, err := frameFor(body, dec)
	if err != nil {
		return nil, err
	}
	if err := f.DecodeFromBytes(body); err != nil {
		return nil, err
	}
	return f, nil
}

// Decodes reports how many frames the decoder has been asked to parse,
// failed parses included. A frame it returned is intact only while
// this count has not moved since.
func (dec *Decoder) Decodes() uint64 { return dec.decodes }

// NeedsAck reports whether a frame of this type solicits an
// acknowledgement: unicast management and data frames do; control
// frames, broadcast and multicast frames do not. The decision uses
// only the Frame Control field and Address 1 — nothing about the
// frame's legitimacy — which is exactly the Polite WiFi root cause.
func NeedsAck(fc FrameControl, ra MAC) bool {
	if !ra.IsUnicast() {
		return false
	}
	switch fc.Type {
	case TypeManagement, TypeData:
		return true
	}
	return false
}

// CTSFor constructs the clear-to-send response to an RTS. elapsed is
// the time consumed before the CTS's NAV starts (one SIFS plus the
// CTS airtime); the remaining reservation is the RTS duration minus
// elapsed, clamped at zero. The subtraction happens here, in signed
// time — a caller-side `uint16(r.Duration - ...)` wraps to ~65535 µs
// when a short RTS carries a duration smaller than the overhead,
// turning a stale reservation into a 65 ms channel blackout.
func CTSFor(r *RTS, elapsed eventsim.Time) *CTS {
	var dur uint16
	if need := eventsim.Time(r.Duration)*eventsim.Microsecond - elapsed; need > 0 {
		dur = uint16(need / eventsim.Microsecond)
	}
	return &CTS{RA: r.TA, Duration: dur}
}
