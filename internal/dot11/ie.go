package dot11

import "fmt"

// IEID identifies an information element.
type IEID uint8

// Information element IDs used by the simulator.
const (
	IESSID           IEID = 0
	IESupportedRates IEID = 1
	IEDSParam        IEID = 3 // current channel
	IETIM            IEID = 5 // traffic indication map
	IERSN            IEID = 48
	IEVendor         IEID = 221
)

// IE is a type-length-value information element carried in management
// frame bodies.
type IE struct {
	ID   IEID
	Data []byte
}

// String implements fmt.Stringer.
func (ie IE) String() string {
	switch ie.ID {
	case IESSID:
		return fmt.Sprintf("SSID=%q", string(ie.Data))
	case IEDSParam:
		if len(ie.Data) == 1 {
			return fmt.Sprintf("Channel=%d", ie.Data[0])
		}
	case IERSN:
		return "RSN (WPA2)"
	}
	return fmt.Sprintf("IE(%d,%d bytes)", ie.ID, len(ie.Data))
}

func appendIEs(b []byte, ies []IE) ([]byte, error) {
	for _, ie := range ies {
		if len(ie.Data) > 255 {
			return nil, fmt.Errorf("dot11: IE %d too long (%d bytes)", ie.ID, len(ie.Data))
		}
		b = append(b, byte(ie.ID), byte(len(ie.Data)))
		b = append(b, ie.Data...)
	}
	return b, nil
}

// parseIEsInto appends the elements encoded in data to ies (pass
// ies[:0] to reuse a previous decode's backing array). Each element's
// Data aliases the input buffer — no bytes are copied; callers that
// outlive the buffer must copy.
func parseIEsInto(ies []IE, data []byte) ([]IE, error) {
	for len(data) > 0 {
		if len(data) < 2 {
			return nil, errShortFrame
		}
		id, n := IEID(data[0]), int(data[1])
		if len(data) < 2+n {
			return nil, errShortFrame
		}
		ies = append(ies, IE{ID: id, Data: data[2 : 2+n : 2+n]})
		data = data[2+n:]
	}
	return ies, nil
}

// SSIDElement builds an SSID information element.
func SSIDElement(ssid string) IE { return IE{ID: IESSID, Data: []byte(ssid)} }

// DSParamElement builds a DS Parameter Set element announcing the
// channel.
func DSParamElement(channel uint8) IE { return IE{ID: IEDSParam, Data: []byte{channel}} }

// RatesElement builds a Supported Rates element from rates in Mbps
// (each encoded in 500 kbps units).
func RatesElement(mbps ...float64) IE {
	data := make([]byte, 0, len(mbps))
	for _, r := range mbps {
		data = append(data, byte(r*2))
	}
	return IE{ID: IESupportedRates, Data: data}
}

// RSNElement builds a minimal RSN (WPA2) element advertising
// CCMP-128 with PSK authentication.
func RSNElement() IE {
	// version 1, group cipher CCMP, 1 pairwise cipher CCMP, 1 AKM PSK.
	oui := []byte{0x00, 0x0f, 0xac}
	data := []byte{0x01, 0x00}
	data = append(data, oui...)
	data = append(data, 0x04)       // group: CCMP
	data = append(data, 0x01, 0x00) // 1 pairwise suite
	data = append(data, oui...)
	data = append(data, 0x04)       // pairwise: CCMP
	data = append(data, 0x01, 0x00) // 1 AKM suite
	data = append(data, oui...)
	data = append(data, 0x02)       // AKM: PSK
	data = append(data, 0x00, 0x00) // RSN capabilities
	return IE{ID: IERSN, Data: data}
}

// TIMElement builds a Traffic Indication Map element. dtimCount
// counts down to the next DTIM beacon; buffered lists association IDs
// with buffered traffic (bit set in the partial virtual bitmap).
func TIMElement(dtimCount, dtimPeriod uint8, buffered []uint16) IE {
	maxAID := uint16(0)
	for _, aid := range buffered {
		if aid > maxAID {
			maxAID = aid
		}
	}
	bitmap := make([]byte, maxAID/8+1)
	ctl := byte(0)
	for _, aid := range buffered {
		bitmap[aid/8] |= 1 << (aid % 8)
	}
	data := []byte{dtimCount, dtimPeriod, ctl}
	data = append(data, bitmap...)
	return IE{ID: IETIM, Data: data}
}

// FindIE returns the first element with the given ID.
func FindIE(ies []IE, id IEID) (IE, bool) {
	for _, ie := range ies {
		if ie.ID == id {
			return ie, true
		}
	}
	return IE{}, false
}

// FindSSID extracts the SSID string from an element list.
func FindSSID(ies []IE) (string, bool) {
	ie, ok := FindIE(ies, IESSID)
	if !ok {
		return "", false
	}
	return string(ie.Data), true
}

// TIMBuffered reports whether the TIM element in ies marks aid as
// having buffered traffic.
func TIMBuffered(ies []IE, aid uint16) bool {
	ie, ok := FindIE(ies, IETIM)
	if !ok || len(ie.Data) < 3 {
		return false
	}
	bitmap := ie.Data[3:]
	idx := int(aid / 8)
	if idx >= len(bitmap) {
		return false
	}
	return bitmap[idx]&(1<<(aid%8)) != 0
}
