package mac

import (
	"politewifi/internal/crypto80211"
	"politewifi/internal/dot11"
)

// The on-air 4-way handshake. After a successful association on an
// RSN network, the AP initiates EAPOL-Key message 1; four unencrypted
// data frames later both sides have verified possession of the PMK
// and installed the CCMP temporal key. An attacker observing all four
// frames learns both nonces but cannot compute the PTK without the
// PMK, and cannot forge the MICs — this is tested.

// hsState is one side's handshake state.
type hsState struct {
	anonce [crypto80211.NonceLen32]byte
	snonce [crypto80211.NonceLen32]byte
	ptk    []byte
	replay uint64
}

func (s *Station) randomNonce() (n [crypto80211.NonceLen32]byte) {
	for i := range n {
		n[i] = byte(s.rng.Intn(256))
	}
	return n
}

// sendEAPOL transmits one key message as an unencrypted data frame.
func (s *Station) sendEAPOL(to dot11.MAC, k *crypto80211.EAPOLKey) {
	d := &dot11.Data{
		Header:  dot11.Header{Addr2: s.Addr},
		Payload: k.Marshal(),
	}
	if s.Role == RoleAP {
		d.FC.FromDS = true
		d.Addr1 = to
		d.Addr3 = s.Addr
	} else {
		d.FC.ToDS = true
		d.Addr1 = to
		d.Addr3 = to
	}
	s.enqueue(s.newTxJob(d, true, defaultDataRate))
}

// startHandshake begins the exchange (AP side, after association).
func (s *Station) startHandshake(peerAddr dot11.MAC) {
	p := s.clients[peerAddr]
	if p == nil {
		return
	}
	p.hs = &hsState{anonce: s.randomNonce(), replay: 1}
	s.sendEAPOL(peerAddr, &crypto80211.EAPOLKey{
		MsgNum: 1, ReplayCounter: p.hs.replay, Nonce: p.hs.anonce,
	})
}

// handleEAPOL processes a key message at either side. Returns true
// if the payload was consumed as a handshake frame.
func (s *Station) handleEAPOL(d *dot11.Data) bool {
	if !crypto80211.IsEAPOL(d.Payload) {
		return false
	}
	k, err := crypto80211.ParseEAPOLKey(d.Payload)
	if err != nil {
		s.Stats.RxDiscarded++
		return true
	}
	switch s.Role {
	case RoleClient:
		s.clientEAPOL(d.Addr2, k)
	case RoleAP:
		s.apEAPOL(d.Addr2, k)
	}
	return true
}

// pmk returns the network's pairwise master key from the station's
// keyring, which derives it once per (passphrase, SSID). A station
// built without Config.Keys gets a private keyring on first use, so
// open-network stations never allocate one.
func (s *Station) pmk() []byte {
	if s.keys == nil {
		s.keys = new(crypto80211.Keyring)
	}
	return s.keys.PMK(s.passphrase, s.ssid)
}

// clientEAPOL handles M1 and M3.
func (s *Station) clientEAPOL(from dot11.MAC, k *crypto80211.EAPOLKey) {
	if from != s.bssid {
		return
	}
	switch k.MsgNum {
	case 1:
		hs := &hsState{anonce: k.Nonce, snonce: s.randomNonce(), replay: k.ReplayCounter}
		hs.ptk = crypto80211.PTK(s.pmk(), s.bssid, s.Addr, hs.anonce[:], hs.snonce[:])
		s.hs = hs
		m2 := &crypto80211.EAPOLKey{MsgNum: 2, ReplayCounter: k.ReplayCounter, Nonce: hs.snonce}
		m2.Sign(crypto80211.KCKFromPTK(hs.ptk))
		s.sendEAPOL(s.bssid, m2)
	case 3:
		hs := s.hs
		if hs == nil || k.ReplayCounter <= hs.replay {
			s.Stats.RxDiscarded++
			return
		}
		if !k.Verify(crypto80211.KCKFromPTK(hs.ptk)) {
			// Forged M3: no PMK, no valid MIC.
			s.Stats.RxDiscarded++
			return
		}
		hs.replay = k.ReplayCounter
		m4 := &crypto80211.EAPOLKey{MsgNum: 4, ReplayCounter: k.ReplayCounter}
		m4.Sign(crypto80211.KCKFromPTK(hs.ptk))
		s.sendEAPOL(s.bssid, m4)
		// Install the temporal key and complete the join.
		if sess, err := crypto80211.NewSession(crypto80211.TKFromPTK(hs.ptk)); err == nil {
			s.session = sess
			s.finishAssoc(true)
		}
	}
}

// apEAPOL handles M2 and M4.
func (s *Station) apEAPOL(from dot11.MAC, k *crypto80211.EAPOLKey) {
	p := s.clients[from]
	if p == nil || p.hs == nil {
		return
	}
	hs := p.hs
	switch k.MsgNum {
	case 2:
		if k.ReplayCounter != hs.replay {
			s.Stats.RxDiscarded++
			return
		}
		hs.snonce = k.Nonce
		hs.ptk = crypto80211.PTK(s.pmk(), s.Addr, from, hs.anonce[:], hs.snonce[:])
		if !k.Verify(crypto80211.KCKFromPTK(hs.ptk)) {
			// Wrong PMK (or a forgery): abort the handshake.
			s.Stats.RxDiscarded++
			hs.ptk = nil
			return
		}
		hs.replay++
		m3 := &crypto80211.EAPOLKey{MsgNum: 3, ReplayCounter: hs.replay, Nonce: hs.anonce}
		m3.Sign(crypto80211.KCKFromPTK(hs.ptk))
		s.sendEAPOL(from, m3)
	case 4:
		if hs.ptk == nil || k.ReplayCounter != hs.replay ||
			!k.Verify(crypto80211.KCKFromPTK(hs.ptk)) {
			s.Stats.RxDiscarded++
			return
		}
		if sess, err := crypto80211.NewSession(crypto80211.TKFromPTK(hs.ptk)); err == nil {
			p.session = sess
		}
		p.hs = nil
	}
}
