package dot11

import "fmt"

// Action category codes used by the simulator.
type ActionCategory uint8

// Categories (802.11-2016 Table 9-76 subset).
const (
	CategorySpectrum ActionCategory = 0
	CategoryQoS      ActionCategory = 1
	CategoryBlockAck ActionCategory = 3
	CategoryPublic   ActionCategory = 4
	CategoryHT       ActionCategory = 7
	CategoryVendor   ActionCategory = 127
)

// Action is a management action frame: category, action code, and an
// opaque body. Unprotected action frames are another 802.11w-relevant
// surface; the simulator carries them for protocol completeness
// (block-ack setup, public action beacons).
type Action struct {
	Header
	Category ActionCategory
	Code     uint8
	Body     []byte
}

// Control implements Frame.
func (f *Action) Control() FrameControl {
	fc := f.FC
	fc.Type, fc.Subtype = TypeManagement, SubtypeAction
	return fc
}

// ReceiverAddress implements Frame.
func (f *Action) ReceiverAddress() MAC { return f.Addr1 }

// TransmitterAddress implements Frame.
func (f *Action) TransmitterAddress() MAC { return f.Addr2 }

// AppendTo implements Frame.
func (f *Action) AppendTo(b []byte) ([]byte, error) {
	b = f.Header.appendTo(b, f.Control())
	b = append(b, byte(f.Category), f.Code)
	return append(b, f.Body...), nil
}

// DecodeFromBytes implements Frame.
func (f *Action) DecodeFromBytes(data []byte) error {
	if err := f.Header.decodeFrom(data); err != nil {
		return err
	}
	rest := data[headerLen:]
	if len(rest) < 2 {
		return errShortFrame
	}
	f.Category = ActionCategory(rest[0])
	f.Code = rest[1]
	f.Body = rest[2:] // aliases the input; retainers must copy
	return nil
}

// Info implements Frame.
func (f *Action) Info() string {
	return fmt.Sprintf("Action, SN=%d, FN=0, Category=%d, %s",
		f.Seq.Number, f.Category, f.Control().FlagString())
}

// BlockAckReq solicits a block acknowledgement for a TID starting at
// a sequence number.
type BlockAckReq struct {
	Duration uint16
	RA       MAC
	TA       MAC
	TID      uint8
	StartSeq uint16
}

// Control implements Frame.
func (f *BlockAckReq) Control() FrameControl {
	return FrameControl{Type: TypeControl, Subtype: SubtypeBlockAckReq}
}

// ReceiverAddress implements Frame.
func (f *BlockAckReq) ReceiverAddress() MAC { return f.RA }

// TransmitterAddress implements Frame.
func (f *BlockAckReq) TransmitterAddress() MAC { return f.TA }

// AppendTo implements Frame.
func (f *BlockAckReq) AppendTo(b []byte) ([]byte, error) {
	var hdr [20]byte
	putU16(hdr[0:], f.Control().Uint16())
	putU16(hdr[2:], f.Duration)
	putMAC(hdr[4:], f.RA)
	putMAC(hdr[10:], f.TA)
	putU16(hdr[16:], uint16(f.TID&0xf)<<12) // BAR control: TID in b12-15
	putU16(hdr[18:], (f.StartSeq&0xfff)<<4)
	return append(b, hdr[:]...), nil
}

// DecodeFromBytes implements Frame.
func (f *BlockAckReq) DecodeFromBytes(data []byte) error {
	if len(data) < 20 {
		return errShortFrame
	}
	f.Duration = getU16(data[2:])
	f.RA = getMAC(data[4:])
	f.TA = getMAC(data[10:])
	f.TID = uint8(getU16(data[16:]) >> 12)
	f.StartSeq = getU16(data[18:]) >> 4
	return nil
}

// Info implements Frame.
func (f *BlockAckReq) Info() string {
	return fmt.Sprintf("Block Ack Request, TID=%d, SSN=%d, %s", f.TID, f.StartSeq, f.Control().FlagString())
}

// BlockAck acknowledges a window of 64 MPDUs with a bitmap.
type BlockAck struct {
	Duration uint16
	RA       MAC
	TA       MAC
	TID      uint8
	StartSeq uint16
	Bitmap   uint64 // compressed bitmap: bit i = StartSeq+i received
}

// Control implements Frame.
func (f *BlockAck) Control() FrameControl {
	return FrameControl{Type: TypeControl, Subtype: SubtypeBlockAck}
}

// ReceiverAddress implements Frame.
func (f *BlockAck) ReceiverAddress() MAC { return f.RA }

// TransmitterAddress implements Frame.
func (f *BlockAck) TransmitterAddress() MAC { return f.TA }

// AppendTo implements Frame.
func (f *BlockAck) AppendTo(b []byte) ([]byte, error) {
	var hdr [28]byte
	putU16(hdr[0:], f.Control().Uint16())
	putU16(hdr[2:], f.Duration)
	putMAC(hdr[4:], f.RA)
	putMAC(hdr[10:], f.TA)
	putU16(hdr[16:], uint16(f.TID&0xf)<<12|0x0004) // compressed BA
	putU16(hdr[18:], (f.StartSeq&0xfff)<<4)
	putU64(hdr[20:], f.Bitmap)
	return append(b, hdr[:]...), nil
}

// DecodeFromBytes implements Frame.
func (f *BlockAck) DecodeFromBytes(data []byte) error {
	if len(data) < 28 {
		return errShortFrame
	}
	f.Duration = getU16(data[2:])
	f.RA = getMAC(data[4:])
	f.TA = getMAC(data[10:])
	f.TID = uint8(getU16(data[16:]) >> 12)
	f.StartSeq = getU16(data[18:]) >> 4
	f.Bitmap = getU64(data[20:])
	return nil
}

// Info implements Frame.
func (f *BlockAck) Info() string {
	return fmt.Sprintf("Block Ack, TID=%d, SSN=%d, %s", f.TID, f.StartSeq, f.Control().FlagString())
}
