// Package core implements the Polite WiFi toolkit — the paper's
// contribution. An Attacker owns a monitor-mode radio with no network
// membership at all: it is never authenticated, never associated, and
// holds no keys. From that position it can:
//
//   - Probe any device: inject a fake null frame and observe the ACK
//     the victim's PHY is compelled to send (§2, Figure 2).
//   - Probe with RTS instead, eliciting CTS — the variant that defeats
//     even hypothetical validating receivers (§2.2).
//   - Scan a neighbourhood with the paper's three-worker pipeline:
//     discovery → injection → verification (§3, Table 2).
//   - Drain a battery by pinning a power-saving device awake (§4.2,
//     Figure 6).
//   - Measure CSI of the elicited ACKs to sense activity and
//     keystrokes through walls (§4.1/4.3, Figure 5).
package core

import (
	"fmt"

	"politewifi/internal/dot11"
	"politewifi/internal/eventsim"
	"politewifi/internal/phy"
	"politewifi/internal/radio"
)

// DefaultFakeMAC is the spoofed transmitter address the paper uses in
// its captures.
var DefaultFakeMAC = dot11.MustMAC("aa:bb:bb:bb:bb:bb")

// Attacker is a monitor-mode radio plus injection helpers. It is not
// a mac.Station: it never acknowledges, never associates, and sees
// every frame its radio can decode.
type Attacker struct {
	Radio *radio.Radio
	// MAC is the (spoofed) transmitter address written into injected
	// frames. Nothing checks it — that is the point.
	MAC dot11.MAC
	// Rate is the PHY rate for injected frames. The default 24 Mbps
	// keeps ACKs at the 24 Mbps basic rate; wardriving drops to
	// 6 Mbps for reach, as real injection tools do.
	Rate phy.Rate

	sched *eventsim.Scheduler
	seq   uint16

	handlers        []func(f dot11.Frame, rx radio.Reception)
	corruptHandlers []func(rx radio.Reception)

	// Zero-alloc sniffing and injection state: dec parses each
	// reception into pooled per-type structs (valid only for the
	// duration of the OnFrame callbacks), wireScratch backs
	// serialization (the medium copies transmitted bytes), and the
	// canonical fake frames are reused across injects.
	dec         dot11.Decoder
	wireScratch []byte
	nullFrame   dot11.Data
	rtsFrame    dot11.RTS

	// Stats.
	Injected     uint64
	InjectDrops  uint64 // transmitter busy
	FramesSeen   uint64
	FCSErrors    uint64 // receptions that failed the FCS check
	AcksToMe     uint64
	CTSToMe      uint64
	DeauthsForMe uint64
}

// NewAttacker attaches an attacker radio to the medium.
func NewAttacker(m *radio.Medium, pos radio.Position, band phy.Band, channel int, spoof dot11.MAC) *Attacker {
	a := &Attacker{
		MAC:   spoof,
		Rate:  InjectionRate,
		sched: m.Sched,
	}
	a.Radio = m.NewRadio("attacker-"+spoof.String(), pos, band, channel)
	a.Radio.SetHandler(a.onReceive)
	return a
}

// OnFrame registers a monitor-mode callback invoked for every
// correctly received frame.
func (a *Attacker) OnFrame(h func(f dot11.Frame, rx radio.Reception)) {
	a.handlers = append(a.handlers, h)
}

// OnCorrupt registers a callback for receptions that failed the FCS
// check. A real monitor-mode capture sees these as phy errors; the
// verifier uses them to tell "nothing answered" (silent) apart from
// "something answered but was mangled in flight" (inconclusive).
func (a *Attacker) OnCorrupt(h func(rx radio.Reception)) {
	a.corruptHandlers = append(a.corruptHandlers, h)
}

func (a *Attacker) onReceive(rx radio.Reception) {
	if !rx.FCSOK {
		a.FCSErrors++
		for _, h := range a.corruptHandlers {
			h(rx)
		}
		return
	}
	f, err := a.dec.Decode(rx.Data)
	if err != nil {
		return
	}
	a.FramesSeen++
	switch ff := f.(type) {
	case *dot11.Ack:
		if ff.RA == a.MAC {
			a.AcksToMe++
		}
	case *dot11.CTS:
		if ff.RA == a.MAC {
			a.CTSToMe++
		}
	case *dot11.Deauth:
		if ff.Addr1 == a.MAC {
			a.DeauthsForMe++
		}
	}
	for _, h := range a.handlers {
		h(f, rx)
	}
}

func (a *Attacker) nextSeq() uint16 {
	a.seq = dot11.NextSeq(a.seq)
	return a.seq
}

// InjectionRate is the PHY rate used for fake frames. 24 Mbps keeps
// the solicited ACKs at the 24 Mbps basic rate.
var InjectionRate = phy.Rate24

// Inject serializes and transmits an arbitrary frame, returning the
// time the transmission ends.
func (a *Attacker) Inject(f dot11.Frame) (eventsim.Time, error) {
	wire, err := dot11.AppendSerialize(a.wireScratch[:0], f)
	if err != nil {
		return 0, err
	}
	a.wireScratch = wire[:0]
	if a.Radio.Medium().Tracer() != nil {
		a.Radio.SetNextTxLabel("inject " + f.Control().Name())
	}
	end, err := a.Radio.Transmit(wire, a.Rate)
	if err != nil {
		a.InjectDrops++
		return 0, fmt.Errorf("core: inject: %w", err)
	}
	a.Injected++
	return end, nil
}

// InjectNull sends the paper's canonical fake frame: an unencrypted
// null-function data frame whose only valid field is the target's
// address. The frame struct is reused across injections — the medium
// copies the serialized bytes before Inject returns.
func (a *Attacker) InjectNull(target dot11.MAC) (eventsim.Time, error) {
	a.nullFrame = dot11.Data{
		Header: dot11.Header{
			Addr1: target, Addr2: a.MAC, Addr3: a.MAC,
			Seq: dot11.SequenceControl{Number: a.nextSeq()},
		},
		Null: true,
	}
	return a.Inject(&a.nullFrame)
}

// InjectRTS sends a fake request-to-send. Control frames cannot be
// protected, so the CTS response is unpreventable even in principle.
func (a *Attacker) InjectRTS(target dot11.MAC) (eventsim.Time, error) {
	// Duration/ID is a uint16 microsecond field; clamp in signed sim
	// time before narrowing (the dot11.CTSFor underflow lesson).
	us := (a.Radio.Band().SIFS() + phy.Airtime(phy.ControlRate(a.Rate), 14)) / eventsim.Microsecond * 2
	if us > 32767 {
		us = 32767
	}
	a.rtsFrame = dot11.RTS{
		RA:       target,
		TA:       a.MAC,
		Duration: uint16(us),
	}
	return a.Inject(&a.rtsFrame)
}

// InjectDeauth forges a deauthentication frame that claims to come
// from `from` (typically the victim's AP) — the classic
// deauthentication attack of Bellardo & Savage. Against an 802.11w
// (PMF) victim the forgery is discarded at the host; either way the
// victim's PHY acknowledges the frame.
func (a *Attacker) InjectDeauth(victim, from dot11.MAC) (eventsim.Time, error) {
	return a.Inject(&dot11.Deauth{
		Header: dot11.Header{
			FC:    dot11.FrameControl{FromDS: true},
			Addr1: victim, Addr2: from, Addr3: from,
			Seq: dot11.SequenceControl{Number: a.nextSeq()},
		},
		Reason: dot11.ReasonDeauthLeaving,
	})
}
