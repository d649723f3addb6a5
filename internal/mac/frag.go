package mac

import (
	"politewifi/internal/dot11"
	"politewifi/internal/radio"
)

// MSDU reassembly (802.11-2016 §10.4): the fragments of one MSDU
// share a sequence number and count up the fragment field, with More
// Fragments set on all but the last; each is acknowledged on its own
// and, under CCMP, decrypted on its own (its own PN). The receiver
// reassembles in order and delivers the original payload. The
// stations here never fragment what they send, but fragments still
// arrive over the air.

// reasmState is a per-transmitter reassembly buffer (one MSDU at a
// time, as the standard requires).
type reasmState struct {
	seq      uint16
	nextFrag uint8
	buf      []byte
}

// handleFragment consumes a decrypted fragment; it returns the
// completed MSDU payload when the last fragment lands, or nil while
// the sequence is still open. Out-of-order or stale fragments reset
// the buffer (the standard discards on any gap).
func (s *Station) handleFragment(d *dot11.Data, rx radio.Reception) []byte {
	st := s.reasm[d.Addr2]
	if d.Seq.Fragment == 0 {
		st = &reasmState{seq: d.Seq.Number, buf: append([]byte(nil), d.Payload...), nextFrag: 1}
		if s.reasm == nil {
			s.reasm = make(map[dot11.MAC]*reasmState)
		}
		s.reasm[d.Addr2] = st
		if !d.FC.MoreFrag {
			delete(s.reasm, d.Addr2)
			return st.buf
		}
		return nil
	}
	if st == nil || st.seq != d.Seq.Number || st.nextFrag != d.Seq.Fragment {
		// Gap or stale fragment: discard the whole MSDU.
		delete(s.reasm, d.Addr2)
		s.Stats.RxDiscarded++
		return nil
	}
	st.buf = append(st.buf, d.Payload...)
	st.nextFrag++
	if d.FC.MoreFrag {
		return nil
	}
	delete(s.reasm, d.Addr2)
	return st.buf
}
