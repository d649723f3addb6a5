// Package trace captures simulated air traffic the way the paper's
// authors used Wireshark: a sniffer collects frames, writes them to
// standard pcap files (DLT_IEEE802_11, readable by Wireshark), and
// renders the Source/Destination/Info tables shown in the paper's
// Figures 2 and 3.
package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"strings"

	"politewifi/internal/dot11"
	"politewifi/internal/eventsim"
	"politewifi/internal/radio"
	"politewifi/internal/telemetry"
)

// Record is one captured frame.
type Record struct {
	Time    eventsim.Time
	Data    []byte // full frame including FCS
	RSSIDBm float64
	FCSOK   bool
}

// Frame decodes the record, returning nil for undecodable frames.
func (r Record) Frame() dot11.Frame {
	f, err := dot11.Decode(r.Data)
	if err != nil {
		return nil
	}
	return f
}

// Capture is an in-memory packet capture.
type Capture struct {
	Records []Record
	// KeepCorrupt retains frames that failed the FCS (PHY errors);
	// off by default, like Wireshark's default view.
	KeepCorrupt bool
}

// Attach subscribes the capture to a radio: every reception the radio
// surfaces is recorded. The radio should be a dedicated monitor-mode
// sniffer (any handler previously set is replaced).
func (c *Capture) Attach(r *radio.Radio) {
	sched := r.Medium().Sched
	r.SetHandler(func(rx radio.Reception) {
		if !rx.FCSOK && !c.KeepCorrupt {
			return
		}
		c.Records = append(c.Records, Record{
			Time:    sched.Now(),
			Data:    append([]byte(nil), rx.Data...),
			RSSIDBm: rx.RSSIDBm,
			FCSOK:   rx.FCSOK,
		})
	})
}

// Len reports the number of captured frames.
func (c *Capture) Len() int { return len(c.Records) }

// Clear drops all records.
func (c *Capture) Clear() { c.Records = nil }

// --- pcap output -----------------------------------------------------

// pcap constants.
const (
	pcapMagicMicros = 0xa1b2c3d4
	// LinkTypeIEEE80211 is DLT 105: raw 802.11 headers, no radiotap.
	LinkTypeIEEE80211 = 105
)

// WritePcap streams the capture as a classic pcap file that Wireshark
// opens directly.
func (c *Capture) WritePcap(w io.Writer) error {
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:], pcapMagicMicros)
	binary.LittleEndian.PutUint16(hdr[4:], 2)      // version major
	binary.LittleEndian.PutUint16(hdr[6:], 4)      // version minor
	binary.LittleEndian.PutUint32(hdr[16:], 65535) // snaplen
	binary.LittleEndian.PutUint32(hdr[20:], LinkTypeIEEE80211)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	rec := make([]byte, 16)
	for _, r := range c.Records {
		us := int64(r.Time / eventsim.Microsecond)
		binary.LittleEndian.PutUint32(rec[0:], uint32(us/1_000_000))
		binary.LittleEndian.PutUint32(rec[4:], uint32(us%1_000_000))
		binary.LittleEndian.PutUint32(rec[8:], uint32(len(r.Data)))
		binary.LittleEndian.PutUint32(rec[12:], uint32(len(r.Data)))
		if _, err := w.Write(rec); err != nil {
			return err
		}
		if _, err := w.Write(r.Data); err != nil {
			return err
		}
	}
	return nil
}

// --- Wireshark-style table rendering ----------------------------------

// sourceOf renders the Source column: the transmitter address, or
// empty for ACK/CTS frames that carry none (Wireshark leaves the
// source blank for them too).
func sourceOf(f dot11.Frame) string {
	ta := f.TransmitterAddress()
	if ta == dot11.ZeroMAC {
		return ""
	}
	return ta.String()
}

// Table renders the capture as the Source/Destination/Info listing of
// the paper's Figures 2 and 3. abbreviate shortens addresses matching
// the given prefixes the way the paper redacts them ("f2:6e:0b:…").
func (c *Capture) Table(abbreviate ...dot11.MAC) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-18s %-18s %s\n", "Time", "Source", "Destination", "Info")
	render := func(m string) string {
		for _, a := range abbreviate {
			if strings.HasPrefix(m, a.String()[:9]) {
				return m[:9] + "…"
			}
		}
		return m
	}
	for _, r := range c.Records {
		f := r.Frame()
		if f == nil {
			continue
		}
		src := sourceOf(f)
		if src != "" {
			src = render(src)
		}
		dst := render(f.ReceiverAddress().String())
		fmt.Fprintf(&b, "%-12s %-18s %-18s %s\n", r.Time, src, dst, f.Info())
	}
	return b.String()
}

// Summary counts captured frames by Info-name.
func (c *Capture) Summary() map[string]int {
	out := make(map[string]int)
	for _, r := range c.Records {
		if f := r.Frame(); f != nil {
			out[f.Control().Name()]++
		}
	}
	return out
}

// CountsInto registers the capture's per-frame-name counts as sampled
// capture.* metrics, so pcap-level counts land in the same report as
// the simulation's own telemetry and the two can be cross-checked.
func (c *Capture) CountsInto(reg *telemetry.Registry) {
	reg.MultiCounterFunc("capture.frames", "captured frames by Info name", func() map[string]uint64 {
		out := make(map[string]uint64)
		for name, n := range c.Summary() {
			out[metricSuffix(name)] = uint64(n)
		}
		return out
	})
	reg.CounterFunc("capture.frames_total", "captured frames", func() uint64 {
		return uint64(len(c.Records))
	})
}

// metricSuffix turns an Info name ("Probe Request") into a metric
// suffix ("probe_request").
func metricSuffix(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		case r == ' ' || r == '-' || r == '/':
			return '_'
		default:
			return r
		}
	}, name)
}
