// Package power models the energy consumption of a WiFi device as a
// function of its radio state machine, reproducing the measurement
// setup of the paper's §4.2 battery-drain experiment: per-state power
// draws integrated over simulated time, plus a per-frame host
// processing cost, and a battery model that converts mean power into
// expected lifetime.
package power

import (
	"fmt"

	"politewifi/internal/eventsim"
	"politewifi/internal/mac"
	"politewifi/internal/radio"
)

// Profile is a device power profile: milliwatts per radio state and
// microjoules of host CPU work per processed frame.
type Profile struct {
	Name string
	// SleepMW is the doze-state draw (RTC + memory retention).
	SleepMW float64
	// IdleMW is the awake-and-listening draw. For small WiFi modules
	// the receiver runs whenever the radio is up, so this dominates.
	IdleMW float64
	// RxMW is the active-reception draw.
	RxMW float64
	// TxMW is the transmit draw at full power.
	TxMW float64
	// FrameOverheadUJ is the host-side energy to take an interrupt,
	// DMA the frame and run MAC processing, per frame.
	FrameOverheadUJ float64
}

// ESP8266 approximates the paper's target device: an Espressif
// ESP8266 module in station power-save mode. The values are
// calibrated to the paper's measurements (10 mW idle with power save,
// ~230 mW once the radio is pinned awake, ~360 mW at 900 fake
// frames/s) and bracketed by the module datasheet (RX 50–56 mA,
// TX up to 170 mA at 3.3 V, plus regulator losses).
var ESP8266 = Profile{
	Name:            "Espressif ESP8266",
	SleepMW:         1.8,
	IdleMW:          224.0,
	RxMW:            264.0,
	TxMW:            560.0,
	FrameOverheadUJ: 135.0,
}

// Generic is a laptop-class profile for comparative runs.
var Generic = Profile{
	Name:            "Generic client",
	SleepMW:         8,
	IdleMW:          350,
	RxMW:            420,
	TxMW:            900,
	FrameOverheadUJ: 40,
}

// Meter integrates a radio's energy use over simulated time.
type Meter struct {
	sched   *eventsim.Scheduler
	profile Profile

	start     eventsim.Time
	lastState radio.State
	lastAt    eventsim.Time

	energyUJ float64
}

// NewMeter creates a meter; use Attach (or wire OnStateChange and
// AddFrame yourself) to connect it to a device.
func NewMeter(sched *eventsim.Scheduler, profile Profile) *Meter {
	now := sched.Now()
	return &Meter{
		sched:     sched,
		profile:   profile,
		start:     now,
		lastState: radio.StateIdle,
		lastAt:    now,
	}
}

// Attach wires the meter to a station: radio state transitions and
// per-frame host processing are charged automatically. The station's
// current radio state seeds the meter.
func Attach(st *mac.Station, profile Profile) *Meter {
	m := NewMeter(st.Radio.Medium().Sched, profile)
	m.lastState = st.Radio.State()
	st.Radio.OnStateChange(func(old, new radio.State, at eventsim.Time) {
		m.Transition(new, at)
	})
	st.OnUpperProcess = func(frameLen int) { m.AddFrame() }
	return m
}

func (m *Meter) powerOf(s radio.State) float64 {
	switch s {
	case radio.StateSleep:
		return m.profile.SleepMW
	case radio.StateRX:
		return m.profile.RxMW
	case radio.StateTX:
		return m.profile.TxMW
	default:
		return m.profile.IdleMW
	}
}

// Transition charges the elapsed interval at the old state's power
// and switches to the new state.
func (m *Meter) Transition(to radio.State, at eventsim.Time) {
	m.settle(at)
	m.lastState = to
}

// settle charges energy up to the given time.
func (m *Meter) settle(at eventsim.Time) {
	if at < m.lastAt {
		at = m.lastAt
	}
	dt := at - m.lastAt
	if dt > 0 {
		// mW × s = mJ; ×1000 = µJ.
		m.energyUJ += m.powerOf(m.lastState) * dt.Seconds() * 1000
		m.lastAt = at
	}
}

// AddFrame charges one frame's host processing overhead.
func (m *Meter) AddFrame() {
	m.energyUJ += m.profile.FrameOverheadUJ
}

// MeanPowerMW reports the average power draw since the meter started
// (or since the last Reset).
func (m *Meter) MeanPowerMW() float64 {
	m.settle(m.sched.Now())
	elapsed := (m.sched.Now() - m.start).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return m.energyUJ / 1000 / elapsed
}

// Reset zeroes the accumulators, starting a fresh measurement window
// from the current instant (the state machine position is kept).
func (m *Meter) Reset() {
	m.settle(m.sched.Now())
	m.start = m.sched.Now()
	m.lastAt = m.start
	m.energyUJ = 0
}

// Battery converts capacity and draw into lifetime.
type Battery struct {
	Name        string
	CapacityMWh float64
}

// Security cameras from the paper's §4.2 lifetime analysis.
var (
	// LogitechCircle2 runs "up to 3 months" on a 2400 mWh battery.
	LogitechCircle2 = Battery{Name: "Logitech Circle 2", CapacityMWh: 2400}
	// BlinkXT2 runs "up to 2 years" on a 6000 mWh battery.
	BlinkXT2 = Battery{Name: "Amazon Blink XT2", CapacityMWh: 6000}
)

// LifetimeHours reports how long the battery lasts at a constant draw,
// in fractional hours (0 for a non-positive draw).
func (b Battery) LifetimeHours(drawMW float64) float64 {
	if drawMW <= 0 {
		return 0
	}
	return b.CapacityMWh / drawMW
}

// String implements fmt.Stringer.
func (b Battery) String() string {
	return fmt.Sprintf("%s (%.0f mWh)", b.Name, b.CapacityMWh)
}
