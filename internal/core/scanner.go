package core

import (
	"bytes"
	"sort"

	"politewifi/internal/dot11"
	"politewifi/internal/eventsim"
	"politewifi/internal/phy"
	"politewifi/internal/radio"
)

// DeviceKind classifies a discovered device.
type DeviceKind int

// Device kinds.
const (
	KindClient DeviceKind = iota
	KindAP
)

// String implements fmt.Stringer.
func (k DeviceKind) String() string {
	if k == KindAP {
		return "AP"
	}
	return "client"
}

// Device is one entry in the scanner's target list.
type Device struct {
	MAC        dot11.MAC
	Kind       DeviceKind
	SSID       string   // for APs
	Band       phy.Band // band the device was heard on
	Channel    int      // channel the device was heard on
	Discovered eventsim.Time
	RSSIDBm    float64
	Probes     int
	Acks       int
	Responded  bool
	// Lossy counts probes whose attribution window contained a
	// corrupted reception; Contended counts probes injected while CCA
	// sensed the channel busy. Either taints a negative verdict.
	Lossy     int
	Contended int
	// Verdict is the three-state outcome, assigned by the scanner when
	// probing concludes (VerdictPending until then).
	Verdict Verdict
	// ExchangeID is the trace exchange linking this device's probes,
	// responses, retries and verdict into one causal tree (0 when
	// tracing is off or the device was never probed).
	ExchangeID uint64
	// FirstProbe is when the device's first probe ended (its exchange
	// began); zero until probed.
	FirstProbe eventsim.Time
}

// Scanner implements the paper's §3 wardriving program. The original
// is a three-OS-thread Scapy program; here the three workers are
// cooperatively scheduled on the simulation event loop with the same
// queue structure (documented substitution — OS threads would break
// determinism against a virtual clock):
//
//	discovery worker — sniffs all traffic, adds unseen MACs to the
//	                   target list;
//	injector worker  — round-robins fake null frames over targets
//	                   that still need probes;
//	verifier worker  — attributes ACKs back to probes by SIFS timing
//	                   and marks devices as responders.
type Scanner struct {
	attacker *Attacker

	// ProbesPerDevice is how many unanswered fake frames a target gets
	// before it is written off; a target with tainted probes gets up
	// to three times as many (see owesProbes).
	ProbesPerDevice int
	// ProbeInterval is the injector worker's cadence.
	ProbeInterval eventsim.Time
	// ActiveScanInterval, when positive, makes the discovery worker
	// transmit broadcast probe requests so APs reveal themselves
	// faster than their beacon cadence (standard active wardriving).
	ActiveScanInterval eventsim.Time

	devices map[dot11.MAC]*Device
	queue   []dot11.MAC // devices still owed probes

	lastTarget dot11.MAC
	lastEnd    eventsim.Time
	awaiting   bool
	// lastContended: the in-flight probe was injected while CCA sensed
	// the channel busy. lastCorrupt: a corrupted reception landed after
	// the in-flight probe ended. Both taint the probe's timeout.
	lastContended bool
	lastCorrupt   bool

	ticker       *eventsim.Ticker
	activeTicker *eventsim.Ticker
	// probeReq is the wildcard probe request, built once and reused by
	// every active scan (Inject serializes it before returning).
	probeReq dot11.ProbeReq

	finalized bool

	metrics PipelineMetrics
}

// NewScanner builds a scanner around an attacker radio and installs
// the discovery and verifier workers.
func NewScanner(a *Attacker) *Scanner {
	s := &Scanner{
		attacker:        a,
		ProbesPerDevice: 3,
		ProbeInterval:   2 * eventsim.Millisecond,
		devices:         make(map[dot11.MAC]*Device),
		probeReq: dot11.ProbeReq{
			Header: dot11.Header{
				Addr1: dot11.Broadcast, Addr2: a.MAC, Addr3: dot11.Broadcast,
			},
			IEs: []dot11.IE{dot11.SSIDElement("")},
		},
	}
	a.OnFrame(s.onFrame) // discovery + verification
	a.OnCorrupt(s.onCorrupt)
	return s
}

// Start launches the injector worker (and the active scanner when
// configured).
func (s *Scanner) Start() {
	if s.ticker != nil {
		return
	}
	s.ticker = s.attacker.sched.Every(s.ProbeInterval, s.injectorStep)
	if s.ActiveScanInterval > 0 {
		s.activeTicker = s.attacker.sched.Every(s.ActiveScanInterval, s.sendProbeRequest)
	}
}

// sendProbeRequest broadcasts a wildcard probe request.
func (s *Scanner) sendProbeRequest() {
	if s.attacker.Radio.Transmitting() {
		return
	}
	s.attacker.Inject(&s.probeReq)
}

// Stop halts the workers and closes every device's verdict.
func (s *Scanner) Stop() {
	if s.ticker != nil {
		s.ticker.Stop()
		s.ticker = nil
	}
	if s.activeTicker != nil {
		s.activeTicker.Stop()
		s.activeTicker = nil
	}
	s.finalizeVerdicts()
}

// finalizeVerdicts assigns the three-state outcome to every device. A
// responder is VerdictResponded no matter how noisy the road there
// was. A non-responder is VerdictSilent only if its full probe budget
// was spent with no taint; lossy or contended probes — or a dwell
// that ended before the budget was spent — yield VerdictInconclusive.
func (s *Scanner) finalizeVerdicts() {
	if s.finalized {
		return
	}
	s.finalized = true
	// Iterate in discovery order, not map order: the verdict instants
	// recorded here land at one timestamp, and their recording order is
	// their tie-break order in every rendered trace.
	tr := s.attacker.Radio.Medium().Tracer()
	now := s.attacker.sched.Now()
	for _, d := range s.Devices() {
		switch {
		case d.Responded:
			d.Verdict = VerdictResponded
		case d.Lossy == 0 && d.Contended == 0 && d.Probes >= s.ProbesPerDevice:
			d.Verdict = VerdictSilent
			s.metrics.VerdictSilent.Inc()
		default:
			d.Verdict = VerdictInconclusive
			s.metrics.VerdictInconclusive.Inc()
		}
		if d.ExchangeID != 0 {
			tr.Instant(s.attacker.Radio.Name, "verdict "+d.Verdict.String(), now, 0, d.ExchangeID,
				map[string]string{"target": d.MAC.String()})
		}
	}
}

// onFrame is the discovery worker plus the verifier worker.
func (s *Scanner) onFrame(f dot11.Frame, rx radio.Reception) {
	s.verify(f, rx)
	s.discover(f, rx)
}

// frameSSID extracts the SSID advertised by a management frame (""
// for frames that carry none). Split out so the discovery hot path
// only pays the []byte→string conversion when it will keep the
// result — not once per received beacon.
func frameSSID(f dot11.Frame) string {
	switch ff := f.(type) {
	case *dot11.Beacon:
		return ff.SSID()
	case *dot11.ProbeResp:
		ssid, _ := dot11.FindSSID(ff.IEs)
		return ssid
	}
	return ""
}

// discover adds unseen transmitter addresses to the target list.
// Beacon and probe-response senders are APs; other unicast
// transmitters are clients.
func (s *Scanner) discover(f dot11.Frame, rx radio.Reception) {
	ta := f.TransmitterAddress()
	if ta == dot11.ZeroMAC || ta == s.attacker.MAC || !ta.IsUnicast() {
		return
	}
	kind := KindClient
	switch ff := f.(type) {
	case *dot11.Beacon:
		kind = KindAP
	case *dot11.ProbeResp:
		kind = KindAP
	case *dot11.Data:
		if ff.FC.FromDS {
			kind = KindAP
		}
	case *dot11.Ack, *dot11.CTS:
		// No TA on these; unreachable, but keep the switch exhaustive.
		return
	}
	d, seen := s.devices[ta]
	if !seen {
		d = &Device{
			MAC:        ta,
			Kind:       kind,
			SSID:       frameSSID(f),
			Band:       s.attacker.Radio.Band(),
			Channel:    s.attacker.Radio.Channel(),
			Discovered: s.attacker.sched.Now(),
			RSSIDBm:    rx.RSSIDBm,
		}
		s.devices[ta] = d
		s.queue = append(s.queue, ta)
		s.metrics.Discovered.Inc()
		return
	}
	// Upgrade classification if we later see AP-proof, and fill the
	// SSID once — SSIDs are static in the simulation, so re-parsing
	// every subsequent beacon would only churn identical strings.
	if kind == KindAP && d.Kind != KindAP {
		d.Kind = KindAP
	}
	if d.SSID == "" && kind == KindAP {
		d.SSID = frameSSID(f)
	}
}

// injectorStep sends the next fake frame to the first queued target
// audible on the attacker's current channel. Targets discovered on
// other channels stay queued until the radio hops back.
func (s *Scanner) injectorStep() {
	band := s.attacker.Radio.Band()
	ch := s.attacker.Radio.Channel()
	for i := 0; i < len(s.queue); i++ {
		mac := s.queue[i]
		d := s.devices[mac]
		if !s.owesProbes(d) {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			i--
			continue
		}
		if d.Band != band || d.Channel != ch {
			continue
		}
		if s.attacker.Radio.Transmitting() {
			return // try again next tick
		}
		contended := s.attacker.Radio.CCABusy()
		if d.ExchangeID == 0 {
			d.ExchangeID = s.attacker.Radio.Medium().Tracer().NextExchange()
		}
		s.attacker.Radio.SetNextTxExchange(d.ExchangeID)
		end, err := s.attacker.InjectNull(mac)
		if err != nil {
			return
		}
		if d.Probes == 0 {
			d.FirstProbe = end
		}
		d.Probes++
		s.metrics.ProbesInjected.Inc()
		s.lastTarget = mac
		s.lastEnd = end
		s.awaiting = true
		s.lastContended = contended
		s.lastCorrupt = false
		window := s.attacker.Radio.Band().SIFS() +
			phy.Airtime(phy.ControlRate(s.attacker.Rate), 14) + attributionWindow
		ex := d.ExchangeID
		s.attacker.sched.Schedule(end+window, func() {
			if s.awaiting {
				s.awaiting = false
				s.metrics.VerdictTimeout.Inc()
				s.metrics.VerdictLatencyUS.ObserveTime(window)
				if td, ok := s.devices[s.lastTarget]; ok {
					if s.lastCorrupt {
						td.Lossy++
					}
					if s.lastContended {
						td.Contended++
					}
				}
				s.attacker.Radio.Medium().Tracer().Instant(s.attacker.Radio.Name,
					"probe timeout", s.attacker.sched.Now(), 0, ex, nil)
			}
		})
		return
	}
}

// verify attributes SIFS-timed ACKs to the last probe.
func (s *Scanner) verify(f dot11.Frame, rx radio.Reception) {
	if !s.awaiting {
		return
	}
	if f.TransmitterAddress() == s.lastTarget && rx.Start > s.lastEnd {
		// The target was on the air when its ACK was due: its own
		// transmission pre-empted the SIFS response, so the timeout
		// says nothing about silence.
		s.lastContended = true
		return
	}
	ack, ok := f.(*dot11.Ack)
	if !ok || ack.RA != s.attacker.MAC {
		return
	}
	expected := s.lastEnd + s.attacker.Radio.Band().SIFS()
	if rx.Start < expected-eventsim.Microsecond || rx.Start > expected+attributionWindow {
		return
	}
	s.awaiting = false
	s.metrics.VerdictAck.Inc()
	s.metrics.VerdictLatencyUS.ObserveTime(rx.Start - s.lastEnd)
	if d, ok := s.devices[s.lastTarget]; ok {
		d.Acks++
		if !d.Responded {
			d.Responded = true
			// End-to-end exchange latency: first probe out to the first
			// verified response back.
			s.metrics.ExchangeLatencyUS.ObserveTime(rx.Start - d.FirstProbe)
		}
		// Build the trace args only when tracing: an untraced drive
		// verifies every probe and would allocate them for nothing.
		if tr := s.attacker.Radio.Medium().Tracer(); tr != nil {
			tr.Instant(s.attacker.Radio.Name, "probe verified", rx.Start, 0, d.ExchangeID, map[string]string{
				"gap": (rx.Start - s.lastEnd).String(),
			})
		}
	}
}

// onCorrupt is the verifier's loss detector: a reception that failed
// the FCS check while a probe's attribution window was open means
// something answered but arrived mangled — the timeout that follows
// is lossy, not silent.
func (s *Scanner) onCorrupt(rx radio.Reception) {
	if s.awaiting && rx.Start > s.lastEnd {
		s.lastCorrupt = true
	}
}

// Devices returns all discovered devices sorted by discovery time.
func (s *Scanner) Devices() []*Device {
	out := make([]*Device, 0, len(s.devices))
	for _, d := range s.devices {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Discovered != out[j].Discovered {
			return out[i].Discovered < out[j].Discovered
		}
		// Byte order equals the order of the fixed-width hex rendering,
		// without the two string allocations per comparison.
		return bytes.Compare(out[i].MAC[:], out[j].MAC[:]) < 0
	})
	return out
}

// owesProbes reports whether the injector should probe d again. A
// responder owes nothing, and a clean non-responder owes
// ProbesPerDevice probes. A tainted one (a lossy or contended probe)
// owes up to 3·ProbesPerDevice: a collided ACK or a busy victim says
// nothing about silence, so it keeps being probed while it stays
// audible. finalizeVerdicts still calls a tainted non-responder
// Inconclusive however many probes it got.
func (s *Scanner) owesProbes(d *Device) bool {
	switch {
	case d.Responded:
		return false
	case d.Lossy > 0 || d.Contended > 0:
		return d.Probes < 3*s.ProbesPerDevice
	default:
		return d.Probes < s.ProbesPerDevice
	}
}

// Pending reports how many discovered devices still owe probes.
func (s *Scanner) Pending() int {
	n := 0
	for _, d := range s.devices {
		if s.owesProbes(d) {
			n++
		}
	}
	return n
}

// Tally summarises the scan.
type Tally struct {
	Clients, APs               int
	ClientsResponded, APsQuiet int
	APsResponded               int
	Total, TotalResponded      int
	// Inconclusive counts devices whose verdict could not separate
	// "does not respond" from "channel ate the evidence".
	Inconclusive int
}

// Tally computes the scan summary.
func (s *Scanner) Tally() Tally {
	var t Tally
	for _, d := range s.devices {
		t.Total++
		if d.Responded {
			t.TotalResponded++
		}
		if d.Verdict == VerdictInconclusive {
			t.Inconclusive++
		}
		switch d.Kind {
		case KindAP:
			t.APs++
			if d.Responded {
				t.APsResponded++
			} else {
				t.APsQuiet++
			}
		default:
			t.Clients++
			if d.Responded {
				t.ClientsResponded++
			}
		}
	}
	return t
}
