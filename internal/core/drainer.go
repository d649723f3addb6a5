package core

import (
	"politewifi/internal/dot11"
	"politewifi/internal/eventsim"
)

// Drainer executes the §4.2 battery-drain attack: a steady stream of
// fake frames at a chosen rate pins a power-saving victim's radio
// awake and forces it to transmit an ACK per frame. Couple it with a
// power.Meter on the victim to reproduce Figure 6.
type Drainer struct {
	attacker *Attacker
	target   dot11.MAC

	RateHz float64

	ticker  *eventsim.Ticker
	Sent    uint64
	stopped bool
}

// NewDrainer aims a drainer at the target.
func NewDrainer(a *Attacker, target dot11.MAC) *Drainer {
	return &Drainer{attacker: a, target: target}
}

// Start begins injecting at rateHz fake frames per second. A rate of
// zero is a no-op (the baseline measurement).
func (d *Drainer) Start(rateHz float64) {
	d.Stop()
	d.RateHz = rateHz
	d.stopped = false
	if rateHz <= 0 {
		return
	}
	interval := eventsim.Time(float64(eventsim.Second) / rateHz)
	if interval < eventsim.Microsecond {
		interval = eventsim.Microsecond
	}
	d.ticker = d.attacker.sched.Every(interval, func() { d.try(3) })
}

// try injects one fake frame, deferring briefly (like a real
// injector's hardware carrier sense) when the medium is busy so the
// attack frame does not collide with a beacon and silently unpin the
// victim.
func (d *Drainer) try(retries int) {
	if d.stopped {
		return
	}
	if d.attacker.Radio.CCABusy() || d.attacker.Radio.Transmitting() {
		if retries > 0 {
			d.attacker.sched.After(300*eventsim.Microsecond, func() { d.try(retries - 1) })
		}
		return
	}
	if _, err := d.attacker.InjectNull(d.target); err == nil {
		d.Sent++
	}
}

// Stop halts the attack.
func (d *Drainer) Stop() {
	d.stopped = true
	if d.ticker != nil {
		d.ticker.Stop()
		d.ticker = nil
	}
}
