package mac

import (
	"politewifi/internal/dot11"
	"politewifi/internal/phy"
)

// Block-acknowledgement responder (802.11e/n): QoS data MPDUs sent
// with the Block Ack policy draw no per-frame ACK; the receiver
// records them and answers a BlockAckReq with a BlockAck bitmap at
// SIFS. This is the aggregation-era counterpart of the paper's
// single-frame exchange, and just as polite: a stranger's BlockAckReq
// is answered like a stranger's data frame is ACKed. The stations
// here never originate bursts.

// baWindowSize is the compressed-bitmap window (64 MPDUs).
const baWindowSize = 64

// baRecvState is the receiver side of one block-ack agreement.
type baRecvState struct {
	startSeq uint16
	received map[uint16]bool
}

// recvBurstFrame records a block-ack-policy MPDU at the receiver.
func (s *Station) recvBurstFrame(d *dot11.Data) {
	key := baKey{d.Addr2, d.TID}
	st, ok := s.baRecv[key]
	if !ok {
		if s.baRecv == nil {
			s.baRecv = make(map[baKey]*baRecvState)
		}
		st = &baRecvState{startSeq: d.Seq.Number, received: make(map[uint16]bool)}
		s.baRecv[key] = st
	}
	st.received[d.Seq.Number] = true
}

// handleBAR answers a BlockAckReq with the current bitmap at SIFS —
// like the ACK, this response is generated without consulting any
// higher layer.
func (s *Station) handleBAR(bar *dot11.BlockAckReq, solicitRate phy.Rate) {
	key := baKey{bar.TA, bar.TID}
	st, ok := s.baRecv[key]
	if !ok {
		if s.baRecv == nil {
			s.baRecv = make(map[baKey]*baRecvState)
		}
		st = &baRecvState{startSeq: bar.StartSeq, received: make(map[uint16]bool)}
		s.baRecv[key] = st
	}
	var bitmap uint64
	for off := 0; off < baWindowSize; off++ {
		seq := (bar.StartSeq + uint16(off)) & 0xfff
		if st.received[seq] {
			bitmap |= 1 << off
		}
	}
	ba := &dot11.BlockAck{
		RA: bar.TA, TA: s.Addr, TID: bar.TID, StartSeq: bar.StartSeq, Bitmap: bitmap,
	}
	wire, err := dot11.Serialize(ba)
	if err != nil {
		return
	}
	s.sched.After(s.band.SIFS(), func() {
		if s.Radio.Transmitting() {
			return
		}
		s.Radio.Transmit(wire, phy.ControlRate(solicitRate))
	})
}

type baKey struct {
	peer dot11.MAC
	tid  uint8
}
