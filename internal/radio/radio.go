// Package radio simulates a shared wireless medium: radios at
// physical positions, log-distance path loss with shadowing,
// propagation delay, frame error injection from the phy link curves,
// collision/capture behaviour, and carrier sensing.
//
// The medium is event-driven: Transmit schedules start-of-reception
// and end-of-reception events at every radio in range, and the frame
// is delivered to a radio's handler only if it survives the SNR coin
// and was not clobbered by an overlapping transmission.
package radio

import (
	"fmt"
	"math"
	"strconv"

	"politewifi/internal/arena"
	"politewifi/internal/eventsim"
	"politewifi/internal/phy"
	"politewifi/internal/telemetry"
)

// SpeedOfLight in m/s, for propagation delay.
const speedOfLight = 299_792_458.0

// Position is a location in meters.
type Position struct {
	X, Y, Z float64
}

// DistanceTo returns the Euclidean distance to q in meters.
func (p Position) DistanceTo(q Position) float64 {
	dx, dy, dz := p.X-q.X, p.Y-q.Y, p.Z-q.Z
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// String implements fmt.Stringer.
func (p Position) String() string {
	return fmt.Sprintf("(%.1f, %.1f, %.1f)", p.X, p.Y, p.Z)
}

// PathLossModel converts a TX→RX geometry to an attenuation in dB.
type PathLossModel interface {
	// LossDB returns the path loss between two positions at the given
	// carrier frequency in MHz.
	LossDB(from, to Position, freqMHz float64) float64
}

// LogDistance is the standard log-distance path loss model with a
// free-space intercept at 1 m.
type LogDistance struct {
	// Exponent is the path loss exponent: 2.0 free space, ~3.0
	// residential indoor, ~3.5 through walls.
	Exponent float64
}

// LossDB implements PathLossModel.
func (m LogDistance) LossDB(from, to Position, freqMHz float64) float64 {
	d := from.DistanceTo(to)
	if d < 1 {
		d = 1
	}
	// FSPL at 1 m: 20·log10(f_MHz) − 27.55.
	intercept := 20*math.Log10(freqMHz) - 27.55
	return intercept + 10*m.Exponent*math.Log10(d)
}

// Config parameterises a Medium.
type Config struct {
	PathLoss      PathLossModel
	ShadowSigmaDB float64 // per-link lognormal shadowing std dev
	FadingSigmaDB float64 // per-frame fast fading std dev
	// CaptureMarginDB: a frame survives a collision if it is this many
	// dB stronger than the interferer (preamble capture).
	CaptureMarginDB float64
}

// DefaultConfig returns the residential-indoor configuration used by
// the experiments.
func DefaultConfig() Config {
	return Config{
		PathLoss:        LogDistance{Exponent: 3.0},
		ShadowSigmaDB:   4.0,
		FadingSigmaDB:   2.0,
		CaptureMarginDB: 10.0,
	}
}

// Reception describes a frame arriving at a radio.
type Reception struct {
	Data    []byte // full frame including FCS
	Rate    phy.Rate
	RSSIDBm float64
	SNRDB   float64
	Start   eventsim.Time // when the first bit arrived
	End     eventsim.Time // when the last bit arrived
	// FCSOK reports whether the frame passed the error-coin; frames
	// that fail are still delivered so sniffers can count PHY errors,
	// but MAC stations must ignore them.
	FCSOK bool
	// Exchange is the probe-exchange trace ID the transmitter stamped
	// on this frame (0 when untraced). Responders propagate it onto
	// their reply via SetNextTxExchange so probe→response→verdict
	// renders as one causal tree.
	Exchange uint64
}

// Reception Start and End are local arrival times at the receiving
// radio (transmission time plus propagation delay) — what a real
// receiver can actually timestamp, and what time-of-flight ranging
// measures.

// State is a radio's RF state, exported so the power model can meter
// each state separately.
type State int

// Radio states.
const (
	StateSleep State = iota
	StateIdle
	StateRX
	StateTX
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateSleep:
		return "sleep"
	case StateIdle:
		return "idle"
	case StateRX:
		return "rx"
	case StateTX:
		return "tx"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Medium is the shared air. All radios attached to a Medium hear each
// other subject to path loss. A Medium is bound to one scheduler and
// is not safe for concurrent use; external goroutines must go through
// a synchronised port (package core).
type Medium struct {
	Sched *eventsim.Scheduler
	cfg   Config
	rng   *eventsim.RNG

	radios []*Radio
	shadow map[linkKey]float64
	active map[chanKey][]*transmission

	// Frame-buffer arena and free lists for the per-transmission
	// objects; nil/empty means plain allocation (see SetArena).
	arena   *arena.Arena
	txFree  *transmission
	delFree *delivery

	metrics Metrics
	tracer  *telemetry.Tracer
	faults  FaultInjector

	// Frame-log record/replay hooks (see framelog.go). byName resolves
	// recorded receiver names back to radios during replay.
	recorder FrameRecorder
	replayer FrameReplayer
	byName   map[string]*Radio

	originRx     eventsim.Origin
	originTxDone eventsim.Origin
}

// FaultInjector is an optional channel-impairment layer consulted by
// the medium (see internal/faults for the standard implementation).
// It sits after the physical model: CorruptRx only sees deliveries
// that already survived path loss, collisions and the FER coin, so a
// nil injector leaves the medium's behaviour — including its RNG draw
// sequence — bit-identical to an uninstalled one.
//
// Implementations must be deterministic functions of their own seeded
// state; the medium calls them only from scheduler context.
type FaultInjector interface {
	// CorruptRx reports whether the delivery of data from src to dst
	// at virtual time now should be corrupted (delivered with FCSOK
	// false, exactly like a natural PHY error).
	CorruptRx(src, dst *Radio, data []byte, now eventsim.Time) bool
	// NoiseAt reports whether scheduled interference is putting energy
	// on the given channel at virtual time now; CCA sees it as a busy
	// channel even when no decodable transmission is in flight.
	NoiseAt(band phy.Band, channel int, now eventsim.Time) bool
}

// SetFaultInjector installs a channel fault injector. Nil (the
// default) disables fault injection entirely.
func (m *Medium) SetFaultInjector(f FaultInjector) { m.faults = f }

type linkKey struct{ a, b *Radio }

type chanKey struct {
	band    phy.Band
	channel int
}

type transmission struct {
	source   *Radio
	data     []byte
	rate     phy.Rate
	start    eventsim.Time
	end      eventsim.Time
	power    float64
	traceID  uint64   // flow ID linking tx span to rx spans; 0 untraced
	exchange uint64   // probe-exchange ID this frame belongs to; 0 unlinked
	label    string   // semantic frame name set by the MAC/attacker layer
	rec      *FrameTx // frame-log record being built; nil unless recording

	// Pool bookkeeping: transmissions are recycled through the
	// medium's free list once every holder lets go. refs counts the
	// scheduled events still pointing here — one per receiver's
	// end-of-reception plus one for the transmitter-done event.
	key    chanKey
	refs   int
	doneFn func() // pre-bound transmitter-done callback, built once
	next   *transmission
}

// newTransmission takes a transmission from the free list (or
// allocates one) with its done callback already bound.
func (m *Medium) newTransmission() *transmission {
	t := m.txFree
	if t == nil {
		t = &transmission{}
		t.doneFn = t.finish
	} else {
		m.txFree = t.next
		t.next = nil
	}
	return t
}

// releaseTx drops one reference; the last holder returns the
// transmission to the free list.
func (m *Medium) releaseTx(t *transmission) {
	t.refs--
	if t.refs > 0 {
		return
	}
	t.source = nil
	t.data = nil
	t.label = ""
	t.rec = nil
	t.next = m.txFree
	m.txFree = t
}

// finish is the transmitter-done callback: return the radio to idle,
// garbage-collect the channel's active list, and drop this event's
// reference. Bound per transmission (not per radio) because a new
// transmission may legally start at the exact tick the previous one
// ends, before this event fires.
func (t *transmission) finish() {
	r := t.source
	if r.state == StateTX {
		r.setState(StateIdle)
	}
	m := r.medium
	m.reap(t.key)
	m.releaseTx(t)
}

// delivery carries one receiver's pending begin/end reception events
// with pre-bound callbacks, recycled through the medium's free list.
// The object is released (and the transmission reference dropped) when
// the end event fires; the begin event always precedes it.
type delivery struct {
	rx      *Radio
	t       *transmission
	rssi    float64
	recIdx  int // index into t.rec.Rx; -1 when not recording
	beginFn func()
	endFn   func()
	next    *delivery
}

func (m *Medium) newDelivery(rx *Radio, t *transmission, rssi float64, recIdx int) *delivery {
	d := m.delFree
	if d == nil {
		d = &delivery{}
		d.beginFn = func() { d.rx.beginReception(d.t, d.rssi, d.recIdx) }
		d.endFn = d.end
	} else {
		m.delFree = d.next
		d.next = nil
	}
	d.rx, d.t, d.rssi, d.recIdx = rx, t, rssi, recIdx
	return d
}

func (d *delivery) end() {
	rx, t, rssi, recIdx := d.rx, d.t, d.rssi, d.recIdx
	m := rx.medium
	d.rx, d.t = nil, nil
	d.next = m.delFree
	m.delFree = d
	rx.endReception(t, rssi, recIdx)
	m.releaseTx(t)
}

// NewMedium creates a medium on the given scheduler.
func NewMedium(sched *eventsim.Scheduler, rng *eventsim.RNG, cfg Config) *Medium {
	if cfg.PathLoss == nil {
		cfg.PathLoss = LogDistance{Exponent: 3.0}
	}
	return &Medium{
		Sched:        sched,
		cfg:          cfg,
		rng:          rng,
		shadow:       make(map[linkKey]float64),
		active:       make(map[chanKey][]*transmission),
		byName:       make(map[string]*Radio),
		originRx:     sched.Origin("radio.rx"),
		originTxDone: sched.Origin("radio.txdone"),
	}
}

// SetMetrics installs medium counters (see NewMetrics). The zero
// Metrics value disables counting again.
func (m *Medium) SetMetrics(mx Metrics) { m.metrics = mx }

// SetArena installs a frame-buffer arena: transmitted bytes are copied
// into it instead of individually allocated, and every reception's
// Data aliases arena memory. The owner must not Reset the arena while
// the medium's scheduler still has events to run — the wardrive resets
// at stop teardown, after the last handler has fired. Nil (the
// default) restores per-frame allocation, which is what long-lived
// consumers that retain frame bytes (e.g. a concurrent sniffer ring)
// rely on.
func (m *Medium) SetArena(a *arena.Arena) { m.arena = a }

// SetTracer installs a frame-lifecycle tracer. Transmissions get a tx
// span on the transmitter's track and an rx span on each receiver
// that locked on, linked by flow ID. A nil tracer disables tracing.
func (m *Medium) SetTracer(t *telemetry.Tracer) { m.tracer = t }

// Tracer returns the installed tracer (nil when tracing is off), so
// higher layers can add semantic spans to the same timeline.
func (m *Medium) Tracer() *telemetry.Tracer { return m.tracer }

// NewRadio attaches a radio to the medium.
func (m *Medium) NewRadio(name string, pos Position, band phy.Band, channel int) *Radio {
	r := &Radio{
		Name:       name,
		medium:     m,
		pos:        pos,
		band:       band,
		channel:    channel,
		txPowerDBm: 15,
		sensDBm:    -92,
		ccaDBm:     -82,
		state:      StateIdle,
	}
	m.radios = append(m.radios, r)
	m.byName[name] = r
	return r
}

// shadowDB returns the (symmetric, per-link, frozen) shadowing term.
func (m *Medium) shadowDB(a, b *Radio) float64 {
	if a == b {
		return 0
	}
	k := linkKey{a, b}
	if b.Name < a.Name {
		k = linkKey{b, a}
	}
	if v, ok := m.shadow[k]; ok {
		return v
	}
	v := m.rng.Normal(0, m.cfg.ShadowSigmaDB)
	m.shadow[k] = v
	return v
}

// rssiAt computes the received power of a transmission from tx at rx.
func (m *Medium) rssiAt(tx, rx *Radio, txPower float64) float64 {
	freq := phy.ChannelFreqMHz(tx.band, tx.channel)
	loss := m.cfg.PathLoss.LossDB(tx.pos, rx.pos, freq) + m.shadowDB(tx, rx)
	return txPower - loss
}

// Radio is one attachment point to the medium. Exactly one frame can
// be in flight from a radio at a time.
type Radio struct {
	Name    string
	medium  *Medium
	pos     Position
	band    phy.Band
	channel int

	txPowerDBm float64
	sensDBm    float64 // preamble decode sensitivity
	ccaDBm     float64 // carrier sense (energy detect) threshold

	state    State
	stateLis func(old, new State, at eventsim.Time)

	handler func(rx Reception)

	// nextTxLabel names the next Transmit in traces ("ACK", "Probe
	// Request", ...); consumed by one transmission, set by the layer
	// that knows the frame's meaning.
	nextTxLabel string

	// nextTxExchange links the next Transmit to a probe exchange;
	// consumed (or discarded on a busy transmitter) by the next
	// Transmit call.
	nextTxExchange uint64

	// Current lock: the transmission the receiver is synchronised to.
	lockedTo    *transmission
	lockArrival eventsim.Time
	corrupted   bool

	txUntil eventsim.Time
}

// Medium returns the medium the radio is attached to.
func (r *Radio) Medium() *Medium { return r.medium }

// Position returns the radio's location.
func (r *Radio) Position() Position { return r.pos }

// Band returns the radio's band.
func (r *Radio) Band() phy.Band { return r.band }

// Channel returns the radio's channel number.
func (r *Radio) Channel() int { return r.channel }

// SetChannel retunes the radio.
func (r *Radio) SetChannel(ch int) { r.channel = ch }

// SetBand moves the radio to another band (dual-band dongles hop
// between 2.4 and 5 GHz while scanning).
func (r *Radio) SetBand(b phy.Band) { r.band = b }

// SetTxPower sets the transmit power in dBm.
func (r *Radio) SetTxPower(dbm float64) { r.txPowerDBm = dbm }

// SetHandler installs the reception callback.
func (r *Radio) SetHandler(h func(rx Reception)) { r.handler = h }

// SetNextTxLabel names the next transmission from this radio for the
// frame-lifecycle trace. No-op unless a tracer is installed.
func (r *Radio) SetNextTxLabel(label string) {
	if r.medium.tracer != nil {
		r.nextTxLabel = label
	}
}

// SetNextTxExchange tags the next transmission from this radio with a
// probe-exchange ID, linking it into that exchange's causal tree in
// the trace and stamping Reception.Exchange at every receiver. No-op
// unless a tracer is installed.
func (r *Radio) SetNextTxExchange(ex uint64) {
	if r.medium.tracer != nil {
		r.nextTxExchange = ex
	}
}

// OnStateChange installs a state transition listener used by the
// power model.
func (r *Radio) OnStateChange(f func(old, new State, at eventsim.Time)) { r.stateLis = f }

// State returns the current RF state.
func (r *Radio) State() State { return r.state }

func (r *Radio) setState(s State) {
	if s == r.state {
		return
	}
	old := r.state
	r.state = s
	if r.stateLis != nil {
		r.stateLis(old, s, r.medium.Sched.Now())
	}
}

// Sleep powers the radio down: it hears nothing and the medium skips
// it entirely. Power-save mode is built on this.
func (r *Radio) Sleep() {
	r.lockedTo = nil
	r.setState(StateSleep)
}

// Wake powers the radio back up.
func (r *Radio) Wake() {
	if r.state == StateSleep {
		r.setState(StateIdle)
	}
}

// Asleep reports whether the radio is powered down.
func (r *Radio) Asleep() bool { return r.state == StateSleep }

// CCABusy reports whether the radio's clear channel assessment sees
// energy above threshold right now. Every call is a recordable event:
// the answer depends on lazily-drawn per-link shadowing, so replay
// answers from the log instead of re-deriving it.
func (r *Radio) CCABusy() bool {
	m := r.medium
	if m.replayer != nil {
		busy, ok := m.replayer.ReplayCCA(r.Name, m.Sched.Now())
		return ok && busy
	}
	busy := r.ccaBusyLive()
	if m.recorder != nil {
		m.recorder.RecordCCA(r.Name, m.Sched.Now(), busy)
	}
	return busy
}

func (r *Radio) ccaBusyLive() bool {
	if r.state == StateTX {
		return true
	}
	now := r.medium.Sched.Now()
	if r.medium.faults != nil && r.medium.faults.NoiseAt(r.band, r.channel, now) {
		return true
	}
	key := chanKey{r.band, r.channel}
	for _, t := range r.medium.active[key] {
		if t.source == r || t.end <= now {
			continue
		}
		if r.medium.rssiAt(t.source, r, t.power) >= r.ccaDBm {
			return true
		}
	}
	return false
}

// Transmitting reports whether the radio is mid-transmission.
func (r *Radio) Transmitting() bool { return r.medium.Sched.Now() < r.txUntil }

// ErrTxBusy is returned when a transmission is requested while one is
// already in flight from this radio.
var ErrTxBusy = fmt.Errorf("radio: transmitter busy")

// Transmit puts a frame on the air at the given rate. It returns the
// time the transmission will end. The caller (MAC) is responsible for
// CSMA etiquette; the radio will happily transmit over others.
func (r *Radio) Transmit(data []byte, rate phy.Rate) (eventsim.Time, error) {
	m := r.medium
	now := m.Sched.Now()
	// Consume the pending exchange tag up front: a busy-transmitter
	// bounce must not leave a stale tag to leak onto some later,
	// unrelated frame.
	exchange := r.nextTxExchange
	r.nextTxExchange = 0
	if r.Transmitting() {
		return 0, ErrTxBusy
	}
	if m.replayer != nil {
		return r.replayTransmit(now, data, rate, exchange)
	}
	air := phy.Airtime(rate, len(data))
	// Copy the caller's bytes: senders reuse their serialization
	// scratch immediately, while receivers read these bytes at
	// end-of-reception. The arena batches the copies per stop.
	var buf []byte
	if m.arena != nil {
		buf = m.arena.Alloc(len(data))
		copy(buf, data)
	} else {
		buf = append([]byte(nil), data...)
	}
	t := m.newTransmission()
	t.source = r
	t.data = buf
	t.rate = rate
	t.start = now
	t.end = now + air
	t.power = r.txPowerDBm
	t.traceID = 0
	t.exchange = 0
	t.key = chanKey{r.band, r.channel}
	t.refs = 1 // the transmitter-done event; receivers add their own
	r.txUntil = t.end
	r.setState(StateTX)
	key := t.key
	m.active[key] = append(m.active[key], t)

	m.metrics.Transmissions.Inc()
	m.metrics.TxAirtimeUS.Add(uint64(air / eventsim.Microsecond))
	if m.tracer != nil {
		t.label = r.nextTxLabel
		r.nextTxLabel = ""
		if t.label == "" {
			t.label = "frame"
		}
		t.traceID = m.tracer.NextID()
		t.exchange = exchange
		m.tracer.Span(r.Name, "tx "+t.label, t.start, t.end, t.traceID, t.exchange, map[string]string{
			"bytes": strconv.Itoa(len(t.data)),
			"rate":  t.rate.String(),
		})
	}
	if m.recorder != nil {
		// Copy the bytes once more: buf may live in the per-stop arena,
		// which is reset before the log is serialized.
		t.rec = &FrameTx{
			Src:      r.Name,
			Start:    t.start,
			End:      t.end,
			Rate:     rate,
			Data:     append([]byte(nil), data...),
			Label:    t.label,
			Exchange: t.exchange,
		}
	}

	// Schedule per-receiver arrival events.
	for _, rx := range m.radios {
		if rx == r || rx.band != r.band || rx.channel != r.channel {
			continue
		}
		rssi := m.rssiAt(r, rx, t.power)
		if m.cfg.FadingSigmaDB > 0 {
			rssi += m.rng.Normal(0, m.cfg.FadingSigmaDB)
		}
		if rssi < rx.sensDBm {
			m.metrics.BelowSensitivity.Inc()
			if t.rec != nil {
				t.rec.BelowSens++
			}
			continue // below decode sensitivity; contributes only to CCA
		}
		delay := eventsim.Time(rx.pos.DistanceTo(r.pos) / speedOfLight * 1e9)
		recIdx := -1
		if t.rec != nil {
			t.rec.Rx = append(t.rec.Rx, FrameRx{
				Dst:   rx.Name,
				Begin: t.start + delay,
				End:   t.end + delay,
				RSSI:  rssi,
			})
			recIdx = len(t.rec.Rx) - 1
		}
		d := m.newDelivery(rx, t, rssi, recIdx)
		t.refs++
		m.Sched.ScheduleTagged(m.originRx, t.start+delay, d.beginFn)
		m.Sched.ScheduleTagged(m.originRx, t.end+delay, d.endFn)
	}
	if t.rec != nil {
		m.recorder.RecordTx(t.rec)
	}

	// Return the transmitter to idle and garbage-collect; PS
	// stations re-doze later under MAC control.
	m.Sched.ScheduleTagged(m.originTxDone, t.end, t.doneFn)
	return t.end, nil
}

func (m *Medium) reap(key chanKey) {
	now := m.Sched.Now()
	live := m.active[key][:0]
	for _, t := range m.active[key] {
		if t.end > now {
			live = append(live, t)
		}
	}
	m.active[key] = live
}

func (r *Radio) beginReception(t *transmission, rssi float64, recIdx int) {
	if r.state == StateSleep || r.state == StateTX {
		return
	}
	if r.lockedTo == nil {
		// Lock onto the new transmission.
		r.lockedTo = t
		r.lockArrival = r.medium.Sched.Now()
		r.corrupted = false
		r.setState(StateRX)
		t.recordFx(recIdx, FxLock)
		return
	}
	// Overlap: capture or mutual corruption.
	cur := r.medium.rssiAt(r.lockedTo.source, r, r.lockedTo.power)
	margin := r.medium.cfg.CaptureMarginDB
	switch {
	case cur >= rssi+margin:
		// Current frame survives; the newcomer is just noise.
		r.medium.metrics.CaptureWins.Inc()
		t.recordFx(recIdx, FxWin)
	case rssi >= cur+margin:
		// Newcomer captures the receiver.
		r.medium.metrics.CaptureWins.Inc()
		r.lockedTo = t
		r.lockArrival = r.medium.Sched.Now()
		r.corrupted = false
		t.recordFx(recIdx, FxSteal)
	default:
		// Both lost.
		r.medium.metrics.Collisions.Inc()
		r.corrupted = true
		t.recordFx(recIdx, FxClash)
	}
}

// recordFx notes a begin-of-reception effect on the frame log entry.
func (t *transmission) recordFx(recIdx int, fx string) {
	if t.rec != nil && recIdx >= 0 {
		t.rec.Rx[recIdx].Fx = fx
	}
}

// lockArrivalFor returns the arrival timestamp captured when the
// receiver locked onto t.
func (r *Radio) lockArrivalFor(t *transmission) eventsim.Time {
	return r.lockArrival
}

func (r *Radio) endReception(t *transmission, rssi float64, recIdx int) {
	if r.lockedTo != t {
		return
	}
	locked := r.lockedTo
	corrupted := r.corrupted
	r.lockedTo = nil
	r.corrupted = false
	if r.state == StateRX {
		r.setState(StateIdle)
	}
	rec := (*FrameRx)(nil)
	if t.rec != nil && recIdx >= 0 {
		rec = &t.rec.Rx[recIdx]
	}
	if r.handler == nil {
		if rec != nil {
			rec.Out = OutUnlock
		}
		return
	}
	snr := phy.SNRFromRSSI(rssi)
	fcsOK := !corrupted
	drop := ""
	if fcsOK {
		fer := phy.FER(locked.rate, snr, len(locked.data))
		if r.medium.rng.Coin(fer) {
			fcsOK = false
			drop = DropSNR
			r.medium.metrics.SNRDrops.Inc()
		}
	}
	// Channel faults sit after the physical model: only deliveries
	// that would otherwise have decoded cleanly are offered up, so the
	// injector's drop counts measure impairment, not double-counted
	// PHY errors.
	consulted := false
	if fcsOK && r.medium.faults != nil {
		consulted = true
		if r.medium.faults.CorruptRx(locked.source, r, locked.data, r.medium.Sched.Now()) {
			fcsOK = false
			if fr, ok := r.medium.faults.(FaultReplayer); ok {
				drop = fr.LastDropKind()
			}
		}
	}
	if rec != nil {
		rec.Out = OutDeliver
		rec.FCSOK = fcsOK
		rec.Drop = drop
		rec.Consulted = consulted
	}
	r.medium.metrics.Deliveries.Inc()
	if tr := r.medium.tracer; tr != nil {
		tr.Span(r.Name, "rx "+locked.label, r.lockArrivalFor(locked), r.medium.Sched.Now(), locked.traceID, locked.exchange, map[string]string{
			"rssi": strconv.FormatFloat(rssi, 'f', 1, 64),
			"snr":  strconv.FormatFloat(snr, 'f', 1, 64),
			"fcs":  strconv.FormatBool(fcsOK),
		})
	}
	r.handler(Reception{
		Data:     locked.data,
		Rate:     locked.rate,
		RSSIDBm:  rssi,
		SNRDB:    snr,
		Start:    r.lockArrivalFor(locked),
		End:      r.medium.Sched.Now(),
		FCSOK:    fcsOK,
		Exchange: locked.exchange,
	})
}

// RSSIBetween reports the mean received power from a to b, exposed
// for placement and discovery logic.
func (m *Medium) RSSIBetween(a, b *Radio) float64 {
	return m.rssiAt(a, b, a.txPowerDBm)
}
