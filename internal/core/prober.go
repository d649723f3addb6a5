package core

import (
	"hash/fnv"
	"sort"

	"politewifi/internal/dot11"
	"politewifi/internal/eventsim"
	"politewifi/internal/phy"
	"politewifi/internal/radio"
)

// ProbeMode selects the fake frame type used to solicit a response.
type ProbeMode int

// Probe modes.
const (
	// ProbeNull injects fake null data frames and counts ACKs (the
	// paper's default experiment).
	ProbeNull ProbeMode = iota
	// ProbeRTS injects fake RTS frames and counts CTS responses.
	ProbeRTS
)

// String implements fmt.Stringer.
func (m ProbeMode) String() string {
	if m == ProbeRTS {
		return "rts/cts"
	}
	return "null/ack"
}

// ProbeResult reports the outcome of probing one target.
type ProbeResult struct {
	Target    dot11.MAC
	Mode      ProbeMode
	Sent      int
	Responses int
	// Responded is true if at least one response attributable to this
	// probe arrived (the Polite WiFi verdict for the device).
	Responded bool
	// BusyParks counts attempts refunded because the transmitter was
	// busy; Lossy counts attribution windows that saw a corrupted
	// reception. Either taints a negative verdict.
	BusyParks int
	Lossy     int
	// Verdict is the three-state outcome: Responded, Silent (clean
	// budget spent unanswered), or Inconclusive (nothing clean sent,
	// or losses landed inside attribution windows).
	Verdict Verdict
	// FirstGap is the observed gap between the end of the first
	// answered probe and the start of its response — one SIFS plus
	// the round-trip propagation, when the behaviour is present.
	FirstGap eventsim.Time
	// Gaps collects the frame-end→response-start gap of every
	// answered probe; time-of-flight ranging feeds on these.
	Gaps []eventsim.Time
}

// ResponseRate reports the fraction of probes answered.
func (r ProbeResult) ResponseRate() float64 {
	if r.Sent == 0 {
		return 0
	}
	return float64(r.Responses) / float64(r.Sent)
}

// Prober sends a burst of fake frames to one target and attributes
// responses by timing, exactly as the paper's verifier thread does:
// an ACK/CTS addressed to the spoofed MAC that starts ~SIFS after one
// of our frames ended belongs to that frame.
type Prober struct {
	attacker *Attacker
	mode     ProbeMode

	// MaxBusyRetries caps how many busy-transmitter parks a run will
	// absorb before attempts stop being refunded. Without the cap a
	// saturated channel would keep the run alive forever.
	MaxBusyRetries int

	res         ProbeResult
	lastEnd     eventsim.Time
	awaiting    bool
	onComplete  func(ProbeResult)
	remaining   int
	interval    eventsim.Time
	stopped     bool
	busyRetries int
	exchange    uint64 // trace exchange ID for the current run; 0 untraced
}

// attributionWindow is the slack around the expected SIFS response
// start (propagation plus scheduling jitter).
const attributionWindow = 25 * eventsim.Microsecond

// NewProber creates a prober on the attacker.
func NewProber(a *Attacker, mode ProbeMode) *Prober {
	p := &Prober{attacker: a, mode: mode, MaxBusyRetries: 8}
	a.OnFrame(p.onFrame)
	a.OnCorrupt(p.onCorrupt)
	return p
}

// Run probes the target n times at the given interval and calls done
// with the result. The scheduler must be driven by the caller.
func (p *Prober) Run(target dot11.MAC, n int, interval eventsim.Time, done func(ProbeResult)) {
	p.res = ProbeResult{Target: target, Mode: p.mode}
	p.remaining = n
	p.interval = interval
	p.onComplete = done
	p.stopped = false
	p.busyRetries = 0
	p.exchange = p.attacker.Radio.Medium().Tracer().NextExchange()
	p.step()
}

// Stop aborts an in-flight run (the completion callback still fires).
func (p *Prober) Stop() { p.stopped = true }

func (p *Prober) step() {
	if p.stopped || p.remaining == 0 {
		p.finish()
		return
	}
	p.remaining--
	p.attacker.Radio.SetNextTxExchange(p.exchange)
	var end eventsim.Time
	var err error
	switch p.mode {
	case ProbeRTS:
		end, err = p.attacker.InjectRTS(p.res.Target)
	default:
		end, err = p.attacker.InjectNull(p.res.Target)
	}
	if err != nil && p.busyRetries < p.MaxBusyRetries {
		// Transmitter busy: refund the attempt and back off with
		// exponentially growing, deterministically jittered sim-time
		// delays instead of burning budget at the fixed cadence. Past
		// the cap the attempt is consumed like any other miss, so a
		// permanently hogged radio still terminates.
		p.busyRetries++
		p.remaining++
		p.res.BusyParks++
		p.attacker.sched.After(
			backoffDelay(200*eventsim.Microsecond, 2*eventsim.Millisecond, p.busyRetries, p.res.Target),
			p.step)
		return
	}
	if err == nil {
		p.res.Sent++
		p.lastEnd = end
		p.awaiting = true
		// Close the attribution window after SIFS + response airtime +
		// slack, then move on.
		window := p.attacker.Radio.Band().SIFS() +
			phy.Airtime(phy.ControlRate(p.attacker.Rate), 14) + attributionWindow
		p.attacker.sched.Schedule(end+window, func() {
			if p.awaiting {
				p.awaiting = false
				if tr := p.attacker.Radio.Medium().Tracer(); tr != nil {
					tr.Instant(p.attacker.Radio.Name, "probe timeout", p.attacker.sched.Now(), 0, p.exchange,
						map[string]string{"target": p.res.Target.String()})
				}
			}
		})
	}
	p.attacker.sched.After(p.interval, p.step)
}

func (p *Prober) finish() {
	switch {
	case p.res.Responded:
		p.res.Verdict = VerdictResponded
	case p.res.Sent == 0 || p.res.Lossy > 0:
		p.res.Verdict = VerdictInconclusive
	default:
		p.res.Verdict = VerdictSilent
	}
	if done := p.onComplete; done != nil {
		p.onComplete = nil
		done(p.res)
	}
}

// backoffDelay computes the nth backoff wait: base·2^(n−1) capped at
// max, plus jitter in [0, base) derived by hashing the target and
// attempt. The jitter is deliberately not drawn from the simulation
// RNG: a busy retry would then shift the seeded stream every later
// draw reads, so one refunded attempt would perturb the whole run.
func backoffDelay(base, max eventsim.Time, n int, target dot11.MAC) eventsim.Time {
	if base <= 0 {
		return 0
	}
	d := base
	for i := 1; i < n && d < max; i++ {
		d *= 2
	}
	if max > 0 && d > max {
		d = max
	}
	h := fnv.New64a()
	h.Write(target[:])
	h.Write([]byte{byte(n), byte(n >> 8)})
	return d + eventsim.Time(h.Sum64()%uint64(base))
}

// onCorrupt marks the open attribution window lossy: something
// answered in the response slot but failed the FCS check, so the
// coming timeout is evidence of a hostile channel, not of silence.
func (p *Prober) onCorrupt(rx radio.Reception) {
	if p.awaiting && rx.Start > p.lastEnd {
		p.res.Lossy++
	}
}

// onFrame implements the timing-based response attribution.
func (p *Prober) onFrame(f dot11.Frame, rx radio.Reception) {
	if !p.awaiting {
		return
	}
	expected := p.lastEnd + p.attacker.Radio.Band().SIFS()
	if rx.Start < expected-eventsim.Microsecond || rx.Start > expected+attributionWindow {
		return
	}
	match := false
	switch ff := f.(type) {
	case *dot11.Ack:
		match = p.mode == ProbeNull && ff.RA == p.attacker.MAC
	case *dot11.CTS:
		match = p.mode == ProbeRTS && ff.RA == p.attacker.MAC
	}
	if !match {
		return
	}
	p.awaiting = false
	p.res.Responses++
	gap := rx.Start - p.lastEnd
	p.res.Gaps = append(p.res.Gaps, gap)
	if !p.res.Responded {
		p.res.Responded = true
		p.res.FirstGap = gap
	}
	if tr := p.attacker.Radio.Medium().Tracer(); tr != nil {
		tr.Instant(p.attacker.Radio.Name, "probe verified", rx.Start, 0, p.exchange, map[string]string{
			"target": p.res.Target.String(),
			"gap":    gap.String(),
		})
	}
}

// speedOfLight in m/s, for time-of-flight ranging.
const speedOfLight = 299_792_458.0

// RangeFromGaps implements Wi-Peep-style time-of-flight ranging over
// Polite WiFi: the victim's ACK leaves exactly one SIFS after the
// fake frame arrives, so the observed gap is SIFS + 2·d/c. The SIFS
// is a standard constant, leaving the distance:
//
//	d = (gap − SIFS) · c / 2
//
// The median over a probe burst suppresses scheduling jitter.
func RangeFromGaps(band phy.Band, gaps []eventsim.Time) float64 {
	if len(gaps) == 0 {
		return 0
	}
	sorted := append([]eventsim.Time(nil), gaps...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	gap := sorted[len(sorted)/2]
	tof := gap - band.SIFS()
	if tof < 0 {
		return 0
	}
	return tof.Seconds() * speedOfLight / 2
}

// ProbeSync is a convenience that runs the scheduler until the probe
// completes and returns the result.
func ProbeSync(a *Attacker, target dot11.MAC, mode ProbeMode, n int, interval eventsim.Time) ProbeResult {
	var out ProbeResult
	doneAt := eventsim.Time(0)
	p := NewProber(a, mode)
	p.Run(target, n, interval, func(r ProbeResult) {
		out = r
		doneAt = a.sched.Now()
	})
	// Drive until completion (bounded by n·interval plus slack).
	deadline := a.sched.Now() + eventsim.Time(n+2)*interval + 10*eventsim.Millisecond
	for doneAt == 0 && a.sched.Now() < deadline {
		if !a.sched.Step() {
			break
		}
	}
	return out
}
