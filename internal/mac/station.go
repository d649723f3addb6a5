package mac

import (
	"errors"

	"politewifi/internal/crypto80211"
	"politewifi/internal/dot11"
	"politewifi/internal/eventsim"
	"politewifi/internal/phy"
	"politewifi/internal/radio"
)

// Config describes a station to create.
type Config struct {
	Name       string
	Addr       dot11.MAC
	Role       Role
	Profile    ChipsetProfile
	SSID       string // network name (APs beacon it; clients use it for PMK)
	Passphrase string // WPA2-Personal passphrase; empty = open network
	Position   radio.Position
	Band       phy.Band
	Channel    int
	// BeaconIntervalTU is the AP beacon period in time units
	// (defaults to 100 TU = 102.4 ms).
	BeaconIntervalTU uint16
	// Keys derives the station's PMK. Stations sharing a keyring share
	// each (passphrase, SSID) derivation; nil gives the station a
	// private keyring, made on first use.
	Keys *crypto80211.Keyring
	// PMF enables 802.11w protected management frames: unicast
	// deauth/disassoc are CCMP-protected, and unprotected ones from
	// "the AP" are treated as forgeries. Control frames remain
	// unprotectable, so Polite WiFi is unaffected (paper footnote 2).
	PMF bool
}

// Station is a simulated 802.11 device: either an AP or a client.
type Station struct {
	Name    string
	Addr    dot11.MAC
	Role    Role
	Profile ChipsetProfile
	Radio   *radio.Radio
	Stats   Stats

	// metrics are shared population-level telemetry counters; the zero
	// value records nothing (see SetMetrics).
	metrics Metrics

	sched *eventsim.Scheduler
	rng   *eventsim.RNG
	band  phy.Band

	ssid       string
	passphrase string
	keys       *crypto80211.Keyring
	pmf        bool

	seq uint16

	// Client association state.
	bssid      dot11.MAC
	associated bool
	aid        uint16
	session    *crypto80211.Session
	assocDone  func(ok bool)
	assocTimer eventsim.Handle
	hs         *hsState

	// AP state.
	clients  map[dot11.MAC]*peer
	tsfStart eventsim.Time

	blocklist map[dot11.MAC]bool
	dupCache  map[dot11.MAC]uint16
	// peerSNR is an EWMA of per-transmitter link SNR, feeding rate
	// adaptation for data frames.
	peerSNR map[dot11.MAC]float64

	// Block-ack responder state.
	baRecv map[baKey]*baRecvState

	// Fragment reassembly.
	reasm map[dot11.MAC]*reasmState

	// Virtual carrier sense: the medium is reserved until navUntil
	// (set by overheard Duration fields, e.g. RTS/CTS exchanges).
	navUntil eventsim.Time

	// Transmit queue.
	txq        []*txJob
	txActive   *txJob
	awaitAck   eventsim.Handle
	cw         int
	retryLimit int

	ps psState

	// Zero-alloc hot-path state. dec parses every reception into
	// pooled per-type frame structs (valid only until the next decode,
	// so deferred host processing re-decodes at fire time);
	// wireScratch backs outgoing serializations — safe to reuse
	// because the medium copies transmitted bytes; the free lists
	// recycle the per-event job objects with their pre-bound
	// callbacks.
	dec         dot11.Decoder
	wireScratch []byte
	ackFrame    dot11.Ack
	beaconFrame dot11.Beacon
	beaconIEs   []dot11.IE // cached base [SSID, rates, DSParam]
	nBeaconIEs  int        // length of the cached base
	rsnIE       dot11.IE   // cached RSN element (RSN networks only)
	probeIEs    []dot11.IE // cached probe-response IEs (read-only)
	aidScratch  []uint16
	ackFree     *ackJob
	procFree    *procJob
	txFree      *txJob

	// OnDeliver is invoked for every frame the upper layer accepts
	// (decrypted payload for protected data).
	OnDeliver func(f dot11.Frame, rx radio.Reception)
	// OnUpperProcess is invoked once per frame that reaches host
	// processing, with the frame length; the power model charges CPU
	// energy here.
	OnUpperProcess func(frameLen int)
}

// peer tracks one associated (or authenticating) client at an AP.
type peer struct {
	aid     uint16
	authed  bool
	assoc   bool
	session *crypto80211.Session
	hs      *hsState

	// Power-save: the peer announced doze mode (PowerMgmt bit), so
	// unicast frames are buffered and announced via the beacon TIM
	// until a PS-Poll retrieves them.
	dozing   bool
	buffered []*txJob
}

// New creates a station and attaches its radio to the medium.
func New(m *radio.Medium, rng *eventsim.RNG, cfg Config) *Station {
	if cfg.BeaconIntervalTU == 0 {
		cfg.BeaconIntervalTU = DefaultBeaconIntervalTU
	}
	if cfg.Name == "" {
		cfg.Name = cfg.Addr.String()
	}
	s := &Station{
		Name:       cfg.Name,
		Addr:       cfg.Addr,
		Role:       cfg.Role,
		Profile:    cfg.Profile,
		sched:      m.Sched,
		rng:        rng,
		band:       cfg.Band,
		ssid:       cfg.SSID,
		passphrase: cfg.Passphrase,
		keys:       cfg.Keys,
		pmf:        cfg.PMF && cfg.Passphrase != "", // PMF needs keys
		clients:    make(map[dot11.MAC]*peer),
		blocklist:  make(map[dot11.MAC]bool),
		dupCache:   make(map[dot11.MAC]uint16),
		peerSNR:    make(map[dot11.MAC]float64),
		baRecv:     make(map[baKey]*baRecvState),
		reasm:      make(map[dot11.MAC]*reasmState),
		cw:         15,
		retryLimit: 3, // total transmissions per MPDU
		ps: psState{
			intervalTU: cfg.BeaconIntervalTU,
			// Strictly above 100 ms so an attack at "more than 10
			// packets per second" (the paper's threshold) pins the
			// radio awake, while 5 fps still lets it doze.
			idleTimeout: 120 * eventsim.Millisecond,
			guard:       500 * eventsim.Microsecond,
			beaconWait:  3 * eventsim.Millisecond,
		},
	}
	s.Radio = m.NewRadio(cfg.Name, cfg.Position, cfg.Band, cfg.Channel)
	s.Radio.SetHandler(s.onReceive)
	if cfg.Passphrase != "" {
		s.rsnIE = dot11.RSNElement()
	}
	if cfg.Role == RoleAP {
		// Static IE caches: beacons append TIM/RSN behind the base in
		// place, probe responses share one read-only slice.
		s.beaconIEs = append(make([]dot11.IE, 0, 5),
			dot11.SSIDElement(s.ssid),
			dot11.RatesElement(6, 12, 24, 54),
			dot11.DSParamElement(uint8(cfg.Channel)),
		)
		s.nBeaconIEs = len(s.beaconIEs)
		s.probeIEs = []dot11.IE{
			dot11.SSIDElement(s.ssid),
			dot11.DSParamElement(uint8(cfg.Channel)),
		}
		s.tsfStart = m.Sched.Now()
		interval := eventsim.Time(cfg.BeaconIntervalTU) * 1024 * eventsim.Microsecond
		// Stagger the TSF so co-located APs don't beacon in lockstep
		// (and collide forever), as real APs' free-running clocks do.
		offset := eventsim.Time(rng.Int63() % int64(interval))
		m.Sched.After(offset, func() {
			s.sendBeacon()
			m.Sched.Every(interval, s.sendBeacon)
		})
	}
	return s
}

// SSID returns the network name this station beacons or joined.
func (s *Station) SSID() string { return s.ssid }

// Associated reports whether a client station has completed
// association.
func (s *Station) Associated() bool { return s.associated }

// BSSID returns the AP a client is associated to.
func (s *Station) BSSID() dot11.MAC { return s.bssid }

// Session exposes the CCMP session (nil on open networks or before
// association).
func (s *Station) Session() *crypto80211.Session { return s.session }

// Block adds a transmitter address to the MAC blocklist. The paper's
// §2.1 experiment shows this is cosmetic: the frame is dropped at the
// host, but the PHY has already acknowledged it.
func (s *Station) Block(addr dot11.MAC) { s.blocklist[addr] = true }

func (s *Station) nextSeq() uint16 {
	s.seq = dot11.NextSeq(s.seq)
	return s.seq
}

// --- Receive path ----------------------------------------------------

// onReceive is the station's PHY→MAC boundary. The ordering inside
// this function is the paper's entire story: the ACK decision happens
// immediately (to meet SIFS), while all validation is deferred by the
// host decode latency.
func (s *Station) onReceive(rx radio.Reception) {
	s.Stats.PHYFrames++
	if !rx.FCSOK {
		// Failed the PHY error check: the only pre-ACK validation
		// that exists. No ACK for corrupted frames.
		s.Stats.FCSErrors++
		return
	}
	f, err := s.dec.Decode(rx.Data)
	if err != nil {
		if errors.Is(err, dot11.ErrBadFCS) {
			s.Stats.FCSErrors++
		}
		return
	}
	ra := f.ReceiverAddress()
	if !ra.Matches(s.Addr) {
		// Not ours — but honour the NAV: the Duration field of
		// overheard frames reserves the medium (virtual carrier
		// sense). This is why RTS/CTS cannot be encrypted, and thus
		// why Polite WiFi is unpreventable (§2.2).
		s.updateNAV(f, rx)
		return
	}
	s.Stats.RxForMe++
	s.observeSNR(f.TransmitterAddress(), rx.SNRDB)
	if ra == s.Addr {
		// Only directed traffic counts as power-save activity;
		// broadcast beacons must not keep the radio awake.
		s.psActivity()
	}

	switch ff := f.(type) {
	case *dot11.Ack:
		s.handleAckRx(ff)
		return
	case *dot11.CTS:
		return // we never RTS in this simulator's stations
	case *dot11.RTS:
		if ra == s.Addr {
			s.Stats.RTSReceived++
			// CTS at SIFS, unconditionally — Wang et al. [27], §2.2:
			// control frames cannot be encrypted, so even a
			// validating receiver must respond.
			s.respondCTS(ff, rx)
		}
		return
	case *dot11.PSPoll:
		if s.Role == RoleAP && ra == s.Addr {
			s.handlePSPoll(ff)
		}
		return
	case *dot11.BlockAckReq:
		if ra == s.Addr {
			s.handleBAR(ff, rx.Rate)
		}
		return
	case *dot11.BlockAck:
		return // we never send a BlockAckReq
	}

	// Block-ack-policy MPDUs are recorded at the low MAC (the bitmap
	// must be ready at SIFS) and are NOT immediately acknowledged.
	if d, ok := f.(*dot11.Data); ok && d.QoS && d.AckPolicy == dot11.AckPolicyBlockAck && ra == s.Addr {
		s.recvBurstFrame(d)
		s.deferProcess(rx)
		return
	}

	// --- The Polite WiFi decision point -----------------------------
	// Unicast management/data frame addressed to us: the PHY queues
	// the ACK for SIFS after frame end. Nothing about association
	// state, encryption, blocklists or frame contents is consulted.
	if dot11.NeedsAck(f.Control(), ra) && ra == s.Addr {
		if s.Profile.Validating {
			s.scheduleValidatedAck(f, rx)
		} else {
			s.scheduleAck(f, rx)
		}
	}

	// Host processing happens much later, after the decode latency.
	s.deferProcess(rx)
}

// procJob defers host processing of one reception. The pooled frame
// structs in s.dec are overwritten by every subsequent decode, so the
// deferred half re-parses the wire bytes at fire time instead of
// retaining a frame across events; rx.Data stays valid because
// reception buffers are never reused within a stop.
type procJob struct {
	rx   radio.Reception
	fn   func()
	next *procJob
}

func (s *Station) deferProcess(rx radio.Reception) {
	j := s.procFree
	if j == nil {
		j = &procJob{}
		jj := j
		j.fn = func() { s.fireProc(jj) }
	} else {
		s.procFree = j.next
	}
	j.rx = rx
	s.sched.After(s.Profile.Decode.Latency(len(rx.Data)), j.fn)
}

func (s *Station) fireProc(j *procJob) {
	rx := j.rx
	j.rx = radio.Reception{}
	j.next = s.procFree
	s.procFree = j
	if f := s.reDecode(rx); f != nil {
		s.macProcess(f, rx)
	}
}

// reDecode re-parses an already-FCS-verified reception into the
// pooled decoder; nil on parse failure (cannot happen for receptions
// that decoded in onReceive, but deferred events must not assume it).
func (s *Station) reDecode(rx radio.Reception) dot11.Frame {
	f, err := s.dec.DecodeNoFCS(rx.Data[:len(rx.Data)-dot11.FCSLen])
	if err != nil {
		return nil
	}
	return f
}

// observeSNR folds a reception's SNR into the per-peer link estimate
// (EWMA, α = 0.25).
func (s *Station) observeSNR(peerAddr dot11.MAC, snrDB float64) {
	if peerAddr == dot11.ZeroMAC {
		return
	}
	if prev, ok := s.peerSNR[peerAddr]; ok {
		s.peerSNR[peerAddr] = 0.75*prev + 0.25*snrDB
	} else {
		s.peerSNR[peerAddr] = snrDB
	}
}

// DataRateFor picks the transmit rate for data frames to a peer:
// the fastest OFDM rate the estimated SNR supports, or the default
// 24 Mbps when the link is uncharacterised. Management frames always
// use the robust default.
func (s *Station) DataRateFor(peerAddr dot11.MAC) phy.Rate {
	snr, ok := s.peerSNR[peerAddr]
	if !ok {
		return defaultDataRate
	}
	return phy.PickRate(snr)
}

// updateNAV extends the network allocation vector from an overheard
// frame's Duration field.
func (s *Station) updateNAV(f dot11.Frame, rx radio.Reception) {
	var dur uint16
	switch ff := f.(type) {
	case *dot11.RTS:
		dur = ff.Duration
	case *dot11.CTS:
		dur = ff.Duration
	case *dot11.Ack:
		dur = ff.Duration
	default:
		if hdr, ok := headerOf(f); ok {
			dur = hdr.Duration
		}
	}
	if dur == 0 {
		return
	}
	until := rx.End + eventsim.Time(dur)*eventsim.Microsecond
	if until > s.navUntil {
		s.navUntil = until
		s.Stats.NAVUpdates++
	}
}

// NAVBusy reports whether virtual carrier sense currently reserves
// the medium.
func (s *Station) NAVBusy() bool { return s.sched.Now() < s.navUntil }

// ackJob is the pooled deferred-ACK state: the SIFS-delayed transmit
// needs only the addresses, rates and trace tag captured here — never
// the (pooled, soon-overwritten) soliciting frame.
type ackJob struct {
	ta       dot11.MAC
	rate     phy.Rate
	solicit  dot11.FrameType
	exchange uint64
	fn       func()
	next     *ackJob
}

// scheduleAck queues the PHY acknowledgement one SIFS after the end
// of the soliciting frame.
func (s *Station) scheduleAck(f dot11.Frame, rx radio.Reception) {
	j := s.ackFree
	if j == nil {
		j = &ackJob{}
		jj := j
		j.fn = func() { s.fireAck(jj) }
	} else {
		s.ackFree = j.next
	}
	j.ta = f.TransmitterAddress()
	j.rate = rx.Rate
	j.solicit = f.Control().Type
	j.exchange = rx.Exchange
	s.sched.After(s.band.SIFS(), j.fn)
}

func (s *Station) fireAck(j *ackJob) {
	ta, rate, solicit, exchange := j.ta, j.rate, j.solicit, j.exchange
	j.next = s.ackFree
	s.ackFree = j
	s.transmitAck(ta, rate, false, solicit, exchange)
}

// scheduleValidatedAck is the §2.2 ablation: decrypt-then-ACK. The
// ACK leaves only after the host decode latency, hundreds of
// microseconds past the SIFS deadline, and only if the frame was
// genuine — by which time the transmitter has long declared loss.
func (s *Station) scheduleValidatedAck(f dot11.Frame, rx radio.Reception) {
	ta := f.TransmitterAddress()
	solicit := f.Control().Type
	delay := s.Profile.Decode.Latency(len(rx.Data))
	// Validating chipsets are the rare ablation case, so a plain
	// closure is fine here — but it must re-decode at fire time rather
	// than retain the pooled frame struct.
	s.sched.After(delay, func() {
		valid := false
		if d, ok := s.reDecode(rx).(*dot11.Data); ok && d.FC.Protected && s.session != nil {
			cp := *d
			cp.Payload = append([]byte(nil), d.Payload...)
			valid = s.session.Decrypt(&cp) == nil
		}
		if valid {
			s.transmitAck(ta, rx.Rate, true, solicit, rx.Exchange)
		}
	})
}

func (s *Station) transmitAck(ta dot11.MAC, solicitRate phy.Rate, late bool, solicit dot11.FrameType, exchange uint64) {
	if ta == dot11.ZeroMAC {
		return
	}
	if s.Radio.Transmitting() {
		s.Stats.AcksMissed++
		return
	}
	s.ackFrame = dot11.Ack{RA: ta}
	wire, err := dot11.AppendSerialize(s.wireScratch[:0], &s.ackFrame)
	if err != nil {
		return
	}
	s.wireScratch = wire[:0]
	s.Radio.SetNextTxLabel("ACK")
	s.Radio.SetNextTxExchange(exchange)
	if _, err := s.Radio.Transmit(wire, phy.ControlRate(solicitRate)); err != nil {
		s.Stats.AcksMissed++
		return
	}
	s.Stats.AcksSent++
	s.metrics.countAck(solicit)
	if late {
		s.Stats.LateAcks++
		s.metrics.LateAcks.Inc()
	}
	if !s.knownPeer(ta) {
		s.Stats.AckForUnknown++
	}
}

func (s *Station) respondCTS(r *dot11.RTS, rx radio.Reception) {
	ctlRate := phy.ControlRate(rx.Rate)
	ctsAir := phy.Airtime(ctlRate, 14)
	cts := dot11.CTSFor(r, s.band.SIFS()+ctsAir)
	wire, err := dot11.Serialize(cts)
	if err != nil {
		return
	}
	s.sched.After(s.band.SIFS(), func() {
		if s.Radio.Transmitting() {
			return
		}
		s.Radio.SetNextTxLabel("CTS")
		s.Radio.SetNextTxExchange(rx.Exchange)
		if _, err := s.Radio.Transmit(wire, ctlRate); err == nil {
			s.Stats.CTSSent++
			s.metrics.CTS.Inc()
		}
	})
}

// knownPeer reports whether the station has any prior relationship
// with the address: its AP, an associated client, or a client mid
// authentication.
func (s *Station) knownPeer(addr dot11.MAC) bool {
	if s.Role == RoleClient {
		return addr == s.bssid && s.bssid != dot11.ZeroMAC
	}
	_, ok := s.clients[addr]
	return ok
}

// macProcess is the host-side half of the receive path. Everything
// here runs after the ACK has already left.
func (s *Station) macProcess(f dot11.Frame, rx radio.Reception) {
	s.Stats.UpperHandled++
	if s.OnUpperProcess != nil {
		s.OnUpperProcess(len(rx.Data))
	}
	ta := f.TransmitterAddress()

	// Duplicate filter.
	if hdr, ok := headerOf(f); ok {
		key := hdr.Seq.Uint16()
		if hdr.FC.Retry && s.dupCache[ta] == key {
			return
		}
		s.dupCache[ta] = key
	}

	// MAC blocklist: drops the frame *here*, long after the ACK.
	if s.blocklist[ta] {
		s.Stats.BlockedDrops++
		return
	}

	switch ff := f.(type) {
	case *dot11.Data:
		s.processData(ff, rx)
	case *dot11.Beacon:
		s.processBeacon(ff, rx)
	case *dot11.ProbeReq:
		s.processProbeReq(ff)
	case *dot11.ProbeResp:
		// Passive: discovery logic lives in package core.
		s.deliver(ff, rx)
	case *dot11.Auth:
		s.processAuth(ff)
	case *dot11.AssocReq:
		s.processAssocReq(ff)
	case *dot11.AssocResp:
		s.processAssocResp(ff)
	case *dot11.Deauth:
		s.processDeauth(ff)
	case *dot11.Disassoc:
		s.processDisassoc(ff)
	}
}

func headerOf(f dot11.Frame) (*dot11.Header, bool) {
	switch ff := f.(type) {
	case *dot11.Data:
		return &ff.Header, true
	case *dot11.Beacon:
		return &ff.Header, true
	case *dot11.ProbeReq:
		return &ff.Header, true
	case *dot11.ProbeResp:
		return &ff.Header, true
	case *dot11.Auth:
		return &ff.Header, true
	case *dot11.AssocReq:
		return &ff.Header, true
	case *dot11.AssocResp:
		return &ff.Header, true
	case *dot11.Deauth:
		return &ff.Header, true
	case *dot11.Disassoc:
		return &ff.Header, true
	}
	return nil, false
}

func (s *Station) deliver(f dot11.Frame, rx radio.Reception) {
	s.Stats.RxDelivered++
	if s.OnDeliver != nil {
		s.OnDeliver(f, rx)
	}
}

// processData validates a data frame at the host. Fake frames die
// here — after being acknowledged.
func (s *Station) processData(d *dot11.Data, rx radio.Reception) {
	ta := d.Addr2
	known := s.knownPeer(ta)

	// EAPOL-Key frames are the one kind of data an RSN network
	// accepts unencrypted — they bootstrap the keys. Their MICs are
	// their authentication.
	if !d.Null && !d.FC.Protected && known && s.handleEAPOL(d) {
		return
	}

	if !known {
		// Class-3 frame from a stranger: this is the attacker's fake
		// frame. The host discards it; some AP firmwares also fire
		// deauthentication frames at the "malfunctioning" device.
		s.Stats.RxDiscarded++
		if s.Role == RoleAP && s.Profile.DeauthOnUnknown {
			s.sendDeauth(ta, dot11.ReasonClass3FromNonAssoc)
		}
		return
	}
	if s.Role == RoleAP {
		s.notePowerMgmt(ta, d.FC.PowerMgmt)
	}
	if d.Null {
		// Legitimate null frames signal power-save transitions.
		s.Stats.RxDelivered++
		return
	}
	if d.FC.Protected {
		sess := s.sessionFor(ta)
		if sess == nil {
			s.Stats.RxDiscarded++
			return
		}
		cp := *d
		cp.Payload = append([]byte(nil), d.Payload...)
		if err := sess.Decrypt(&cp); err != nil {
			s.Stats.RxDiscarded++
			return
		}
		s.deliverMaybeFragment(&cp, rx)
		return
	}
	if s.passphrase != "" {
		// Unencrypted data on an RSN network is never legitimate.
		s.Stats.RxDiscarded++
		return
	}
	s.deliverMaybeFragment(d, rx)
}

// deliverMaybeFragment reassembles fragmented MSDUs and delivers
// complete payloads.
func (s *Station) deliverMaybeFragment(d *dot11.Data, rx radio.Reception) {
	if d.Seq.Fragment == 0 && !d.FC.MoreFrag {
		s.deliver(d, rx)
		return
	}
	if whole := s.handleFragment(d, rx); whole != nil {
		full := *d
		full.Payload = whole
		full.FC.MoreFrag = false
		full.Seq.Fragment = 0
		s.deliver(&full, rx)
	}
}

func (s *Station) sessionFor(peerAddr dot11.MAC) *crypto80211.Session {
	if s.Role == RoleClient {
		return s.session
	}
	if p, ok := s.clients[peerAddr]; ok {
		return p.session
	}
	return nil
}

// sendDeauth queues a deauthentication frame. Because the attacker
// never acknowledges it, the retry machinery resends it — producing
// the same-SN deauth bursts of Figure 3.
func (s *Station) sendDeauth(to dot11.MAC, reason dot11.ReasonCode) {
	d := &dot11.Deauth{
		Header: dot11.Header{
			FC:    dot11.FrameControl{FromDS: s.Role == RoleAP},
			Addr1: to, Addr2: s.Addr, Addr3: s.Addr,
		},
		Reason: reason,
	}
	// 802.11w: deauth to an associated peer is protected. A deauth to
	// a stranger (the Figure 3 "malfunctioning device" case) has no
	// pairwise key and stays unprotected, as the standard allows.
	if s.pmf {
		if sess := s.sessionFor(to); sess != nil {
			if err := sess.EncryptDeauth(d); err != nil {
				return
			}
		}
	}
	s.Stats.DeauthsSent++
	s.metrics.Deauths.Inc()
	s.enqueue(s.newTxJob(d, true, defaultDataRate))
}

// --- Beaconing and discovery (AP side) -------------------------------

func (s *Station) sendBeacon() {
	if s.Role != RoleAP {
		return
	}
	// Extend the cached base IEs in place; beacons transmit directly
	// (never queue), so one reusable frame and IE slice suffice.
	ies := s.beaconIEs[:s.nBeaconIEs]
	bufferedAIDs := s.aidScratch[:0]
	for _, p := range s.clients {
		if len(p.buffered) > 0 {
			bufferedAIDs = append(bufferedAIDs, p.aid)
		}
	}
	s.aidScratch = bufferedAIDs[:0]
	if len(bufferedAIDs) > 0 {
		ies = append(ies, dot11.TIMElement(0, 1, bufferedAIDs))
	}
	if s.passphrase != "" {
		ies = append(ies, s.rsnIE)
	}
	s.beaconIEs = ies[:s.nBeaconIEs]
	cap := dot11.CapESS
	if s.passphrase != "" {
		cap |= dot11.CapPrivacy
	}
	s.beaconFrame = dot11.Beacon{
		Header: dot11.Header{
			Addr1: dot11.Broadcast, Addr2: s.Addr, Addr3: s.Addr,
			Seq: dot11.SequenceControl{Number: s.nextSeq()},
		},
		Timestamp:  uint64((s.sched.Now() - s.tsfStart) / eventsim.Microsecond),
		IntervalTU: s.ps.intervalTU,
		Capability: cap,
		IEs:        ies,
	}
	wire, err := dot11.AppendSerialize(s.wireScratch[:0], &s.beaconFrame)
	if err != nil || s.Radio.Transmitting() {
		return
	}
	s.wireScratch = wire[:0]
	s.Radio.SetNextTxLabel("Beacon")
	if _, err := s.Radio.Transmit(wire, phy.Rate6); err == nil {
		s.Stats.BeaconsSent++
	}
}

func (s *Station) processProbeReq(p *dot11.ProbeReq) {
	if s.Role != RoleAP {
		return
	}
	want, _ := dot11.FindSSID(p.IEs)
	if want != "" && want != s.ssid {
		return
	}
	// Response frames stay per-call allocations (several can sit in
	// the transmit queue at once) but share the read-only IE cache.
	resp := &dot11.ProbeResp{
		Header: dot11.Header{
			Addr1: p.Addr2, Addr2: s.Addr, Addr3: s.Addr,
		},
		Timestamp:  uint64((s.sched.Now() - s.tsfStart) / eventsim.Microsecond),
		IntervalTU: s.ps.intervalTU,
		Capability: dot11.CapESS,
		IEs:        s.probeIEs,
	}
	s.enqueue(s.newTxJob(resp, true, defaultDataRate))
}

// --- Association -----------------------------------------------------

// Associate begins the client-side join to the AP with the given
// BSSID. done (optional) is called with the outcome. The exchange
// runs over the air: Auth → Auth → AssocReq → AssocResp, followed by
// the condensed key handshake.
func (s *Station) Associate(bssid dot11.MAC, done func(ok bool)) {
	if s.Role != RoleClient {
		panic("mac: Associate on an AP")
	}
	s.bssid = bssid
	s.assocDone = done
	auth := &dot11.Auth{
		Header: dot11.Header{
			Addr1: bssid, Addr2: s.Addr, Addr3: bssid,
		},
		Algorithm: 0, AuthSeq: 1, Status: dot11.StatusSuccess,
	}
	s.enqueue(s.newTxJob(auth, true, defaultDataRate))
	s.assocTimer = s.sched.After(200*eventsim.Millisecond, func() {
		// On RSN networks the join is only complete once the 4-way
		// handshake installed keys; 802.11 association alone (e.g.
		// with a wrong passphrase) is a failure.
		if !s.associated || (s.passphrase != "" && s.session == nil) {
			s.associated = false
			s.finishAssoc(false)
		}
	})
}

func (s *Station) finishAssoc(ok bool) {
	s.assocTimer.Cancel()
	s.assocTimer = eventsim.Handle{}
	if done := s.assocDone; done != nil {
		s.assocDone = nil
		done(ok)
	}
}

func (s *Station) processAuth(a *dot11.Auth) {
	switch s.Role {
	case RoleAP:
		if a.AuthSeq != 1 {
			return
		}
		p := s.clients[a.Addr2]
		if p == nil {
			p = &peer{}
			s.clients[a.Addr2] = p
		}
		p.authed = true
		resp := &dot11.Auth{
			Header: dot11.Header{
				FC:    dot11.FrameControl{FromDS: true},
				Addr1: a.Addr2, Addr2: s.Addr, Addr3: s.Addr,
			},
			Algorithm: 0, AuthSeq: 2, Status: dot11.StatusSuccess,
		}
		s.enqueue(s.newTxJob(resp, true, defaultDataRate))
	case RoleClient:
		if a.AuthSeq != 2 || a.Status != dot11.StatusSuccess || a.Addr2 != s.bssid {
			return
		}
		req := &dot11.AssocReq{
			Header: dot11.Header{
				Addr1: s.bssid, Addr2: s.Addr, Addr3: s.bssid,
			},
			Capability: dot11.CapESS,
			IntervalTU: 10,
			IEs:        []dot11.IE{dot11.SSIDElement(s.ssid)},
		}
		s.enqueue(s.newTxJob(req, true, defaultDataRate))
	}
}

func (s *Station) processAssocReq(a *dot11.AssocReq) {
	if s.Role != RoleAP {
		return
	}
	p := s.clients[a.Addr2]
	if p == nil || !p.authed {
		return
	}
	if !p.assoc {
		p.assoc = true
		p.aid = uint16(len(s.clients))
	}
	resp := &dot11.AssocResp{
		Header: dot11.Header{
			FC:    dot11.FrameControl{FromDS: true},
			Addr1: a.Addr2, Addr2: s.Addr, Addr3: s.Addr,
		},
		Capability: dot11.CapESS,
		Status:     dot11.StatusSuccess,
		AID:        p.aid,
	}
	s.enqueue(s.newTxJob(resp, true, defaultDataRate))
	if s.passphrase != "" {
		s.startHandshake(a.Addr2)
	}
}

func (s *Station) processAssocResp(a *dot11.AssocResp) {
	if s.Role != RoleClient || a.Addr2 != s.bssid || a.Status != dot11.StatusSuccess {
		return
	}
	s.aid = a.AID
	s.associated = true
	if s.passphrase != "" {
		// RSN: the join completes when the 4-way handshake installs
		// the temporal key (clientEAPOL message 3).
		return
	}
	s.finishAssoc(true)
}

// processDisassoc tears down the association but keeps the 802.11
// authentication (the class distinction deauth erases).
func (s *Station) processDisassoc(d *dot11.Disassoc) {
	if s.Role == RoleClient && d.Addr2 == s.bssid {
		s.associated = false
		s.session = nil
	}
	if s.Role == RoleAP {
		if p, ok := s.clients[d.Addr2]; ok {
			p.assoc = false
			p.session = nil
		}
	}
}

func (s *Station) processDeauth(d *dot11.Deauth) {
	// 802.11w: with PMF, a deauth that claims to come from a peer we
	// share keys with must be protected and must verify; anything
	// else is a forgery (the classic deauth attack) and is ignored —
	// although its PHY ACK has, of course, already been sent.
	if s.pmf {
		sess := s.sessionFor(d.Addr2)
		if sess != nil {
			cp := *d
			cp.ProtectedBody = append([]byte(nil), d.ProtectedBody...)
			if !d.FC.Protected || sess.DecryptDeauth(&cp) != nil {
				s.Stats.ForgedMgmtDropped++
				return
			}
		}
	}
	if s.Role == RoleClient && d.Addr2 == s.bssid {
		s.associated = false
		s.session = nil
	}
	if s.Role == RoleAP {
		delete(s.clients, d.Addr2)
	}
}

// --- Data transmission ------------------------------------------------

var errNotAssociated = errors.New("mac: not associated")

// SendData queues an application payload to the given destination,
// CCMP-protected when a session exists. For clients the frame goes
// ToDS through the AP.
func (s *Station) SendData(to dot11.MAC, payload []byte) error {
	if s.Role == RoleClient && !s.associated {
		return errNotAssociated
	}
	d := &dot11.Data{
		Header: dot11.Header{
			Addr2: s.Addr,
		},
		Payload: append([]byte(nil), payload...),
	}
	switch s.Role {
	case RoleClient:
		d.FC.ToDS = true
		d.Addr1 = s.bssid
		d.Addr3 = to
		if s.session != nil {
			if err := s.session.Encrypt(d); err != nil {
				return err
			}
		}
	case RoleAP:
		d.FC.FromDS = true
		d.Addr1 = to
		d.Addr3 = s.Addr
		if sess := s.sessionFor(to); sess != nil {
			if err := sess.Encrypt(d); err != nil {
				return err
			}
		}
		if p, ok := s.clients[to]; ok && p.dozing {
			// The peer is asleep: hold the frame and let the beacon
			// TIM announce it.
			job := s.newTxJob(d, true, s.DataRateFor(to))
			if len(p.buffered) < 16 {
				p.buffered = append(p.buffered, job)
			} else {
				s.Stats.TxFailed++
			}
			return nil
		}
	}
	s.enqueue(s.newTxJob(d, true, s.DataRateFor(d.Addr1)))
	return nil
}

// handlePSPoll releases one buffered frame to a polling PS client,
// setting MoreData while others remain.
func (s *Station) handlePSPoll(p *dot11.PSPoll) {
	peerState, ok := s.clients[p.TA]
	if !ok || len(peerState.buffered) == 0 {
		return
	}
	job := peerState.buffered[0]
	peerState.buffered = peerState.buffered[1:]
	if hdr, okh := headerOf(job.frame); okh {
		hdr.FC.MoreData = len(peerState.buffered) > 0
	}
	s.enqueue(job)
}

// notePowerMgmt tracks a peer's announced doze state from the
// PowerMgmt bit of its frames; leaving doze flushes the buffer.
func (s *Station) notePowerMgmt(from dot11.MAC, pm bool) {
	p, ok := s.clients[from]
	if !ok {
		return
	}
	if p.dozing && !pm {
		for _, job := range p.buffered {
			s.enqueue(job)
		}
		p.buffered = nil
	}
	p.dozing = pm
}
