package radio

import (
	"testing"
	"testing/quick"

	"politewifi/internal/eventsim"
	"politewifi/internal/phy"
)

func newTestMedium(cfg Config) *Medium {
	sched := eventsim.NewScheduler()
	rng := eventsim.NewRNG(1)
	return NewMedium(sched, rng, cfg)
}

// quiet config: no shadowing or fading, free-space loss, so delivery
// is deterministic.
func quietConfig() Config {
	return Config{PathLoss: LogDistance{Exponent: 2.0}, CaptureMarginDB: 10}
}

func TestDistance(t *testing.T) {
	a := Position{0, 0, 0}
	b := Position{3, 4, 0}
	if d := a.DistanceTo(b); d != 5 {
		t.Fatalf("distance = %v, want 5", d)
	}
}

func TestLogDistanceLoss(t *testing.T) {
	m := LogDistance{Exponent: 2.0}
	// Free-space at 1 m, 2437 MHz: 20log10(2437)-27.55 ≈ 40.2 dB.
	l1 := m.LossDB(Position{}, Position{X: 1}, 2437)
	if l1 < 39 || l1 < 0 || l1 > 42 {
		t.Fatalf("loss at 1m = %v, want ~40", l1)
	}
	// Doubling distance with n=2 adds ~6 dB.
	l2 := m.LossDB(Position{}, Position{X: 2}, 2437)
	if d := l2 - l1; d < 5.9 || d > 6.1 {
		t.Fatalf("doubling added %v dB, want ~6", d)
	}
	// Sub-meter clamps to 1 m.
	l0 := m.LossDB(Position{}, Position{X: 0.1}, 2437)
	if l0 != l1 {
		t.Fatalf("sub-meter loss %v != 1m loss %v", l0, l1)
	}
	// 5 GHz has more loss than 2.4 GHz.
	if m.LossDB(Position{}, Position{X: 10}, 5180) <= m.LossDB(Position{}, Position{X: 10}, 2437) {
		t.Fatal("5 GHz should attenuate more")
	}
}

func TestDeliveryAtCloseRange(t *testing.T) {
	m := newTestMedium(quietConfig())
	tx := m.NewRadio("tx", Position{0, 0, 0}, phy.Band2GHz, 6)
	rx := m.NewRadio("rx", Position{5, 0, 0}, phy.Band2GHz, 6)
	var got []Reception
	rx.SetHandler(func(r Reception) { got = append(got, r) })

	frame := make([]byte, 100)
	end, err := tx.Transmit(frame, phy.Rate24)
	if err != nil {
		t.Fatal(err)
	}
	if end != phy.Airtime(phy.Rate24, 100) {
		t.Fatalf("end = %v, want airtime", end)
	}
	for m.Sched.Step() {
	}
	if len(got) != 1 {
		t.Fatalf("receptions = %d, want 1", len(got))
	}
	r := got[0]
	if !r.FCSOK {
		t.Fatal("frame should be clean at 5 m")
	}
	if len(r.Data) != 100 {
		t.Fatalf("data len = %d", len(r.Data))
	}
	if r.RSSIDBm > 0 || r.RSSIDBm < -80 {
		t.Fatalf("implausible RSSI %v", r.RSSIDBm)
	}
	if r.End <= r.Start {
		t.Fatal("reception interval empty")
	}
}

func TestNoDeliveryOutOfRange(t *testing.T) {
	m := newTestMedium(Config{PathLoss: LogDistance{Exponent: 3.5}})
	tx := m.NewRadio("tx", Position{0, 0, 0}, phy.Band2GHz, 6)
	rx := m.NewRadio("rx", Position{10000, 0, 0}, phy.Band2GHz, 6)
	count := 0
	rx.SetHandler(func(Reception) { count++ })
	tx.Transmit(make([]byte, 50), phy.Rate24)
	for m.Sched.Step() {
	}
	if count != 0 {
		t.Fatal("frame delivered at 10 km")
	}
}

func TestChannelIsolation(t *testing.T) {
	m := newTestMedium(quietConfig())
	tx := m.NewRadio("tx", Position{}, phy.Band2GHz, 1)
	rx6 := m.NewRadio("rx6", Position{X: 2}, phy.Band2GHz, 6)
	rx5g := m.NewRadio("rx5g", Position{X: 2}, phy.Band5GHz, 36)
	count := 0
	rx6.SetHandler(func(Reception) { count++ })
	rx5g.SetHandler(func(Reception) { count++ })
	tx.Transmit(make([]byte, 50), phy.Rate24)
	for m.Sched.Step() {
	}
	if count != 0 {
		t.Fatal("cross-channel delivery")
	}
}

func TestSleepingRadioHearsNothing(t *testing.T) {
	m := newTestMedium(quietConfig())
	tx := m.NewRadio("tx", Position{}, phy.Band2GHz, 6)
	rx := m.NewRadio("rx", Position{X: 3}, phy.Band2GHz, 6)
	count := 0
	rx.SetHandler(func(Reception) { count++ })
	rx.Sleep()
	if !rx.Asleep() {
		t.Fatal("Asleep() = false")
	}
	tx.Transmit(make([]byte, 50), phy.Rate24)
	for m.Sched.Step() {
	}
	if count != 0 {
		t.Fatal("sleeping radio received a frame")
	}
	rx.Wake()
	tx.Transmit(make([]byte, 50), phy.Rate24)
	for m.Sched.Step() {
	}
	if count != 1 {
		t.Fatalf("awake radio receptions = %d, want 1", count)
	}
}

func TestTxBusy(t *testing.T) {
	m := newTestMedium(quietConfig())
	tx := m.NewRadio("tx", Position{}, phy.Band2GHz, 6)
	if _, err := tx.Transmit(make([]byte, 1000), phy.Rate6); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Transmit(make([]byte, 10), phy.Rate6); err != ErrTxBusy {
		t.Fatalf("second Transmit err = %v, want ErrTxBusy", err)
	}
	if !tx.Transmitting() {
		t.Fatal("Transmitting() = false mid-frame")
	}
	for m.Sched.Step() {
	}
	if tx.Transmitting() {
		t.Fatal("Transmitting() = true after frame end")
	}
	if _, err := tx.Transmit(make([]byte, 10), phy.Rate6); err != nil {
		t.Fatalf("transmit after idle: %v", err)
	}
}

func TestCollisionBothLost(t *testing.T) {
	m := newTestMedium(quietConfig())
	a := m.NewRadio("a", Position{X: -5}, phy.Band2GHz, 6)
	b := m.NewRadio("b", Position{X: 5}, phy.Band2GHz, 6)
	rx := m.NewRadio("rx", Position{}, phy.Band2GHz, 6) // equidistant
	var clean, dirty int
	rx.SetHandler(func(r Reception) {
		if r.FCSOK {
			clean++
		} else {
			dirty++
		}
	})
	// Overlapping equal-power transmissions: no capture possible.
	a.Transmit(make([]byte, 500), phy.Rate24)
	b.Transmit(make([]byte, 500), phy.Rate24)
	for m.Sched.Step() {
	}
	if clean != 0 {
		t.Fatalf("clean receptions = %d, want 0 (collision)", clean)
	}
}

func TestCapture(t *testing.T) {
	m := newTestMedium(quietConfig())
	strong := m.NewRadio("strong", Position{X: 1}, phy.Band2GHz, 6)
	weak := m.NewRadio("weak", Position{X: 300}, phy.Band2GHz, 6)
	weak.SetTxPower(15)
	strong.SetTxPower(15)
	rx := m.NewRadio("rx", Position{}, phy.Band2GHz, 6)
	var clean int
	rx.SetHandler(func(r Reception) {
		if r.FCSOK {
			clean++
		}
	})
	// The strong frame starts first; the weak one overlaps but is far
	// below the capture margin, so the strong frame survives.
	strong.Transmit(make([]byte, 500), phy.Rate24)
	weak.Transmit(make([]byte, 500), phy.Rate24)
	for m.Sched.Step() {
	}
	if clean != 1 {
		t.Fatalf("clean receptions = %d, want 1 (capture)", clean)
	}
}

func TestCaptureByStrongerLateFrame(t *testing.T) {
	m := newTestMedium(quietConfig())
	weak := m.NewRadio("weak", Position{X: 300}, phy.Band2GHz, 6)
	strong := m.NewRadio("strong", Position{X: 1}, phy.Band2GHz, 6)
	rx := m.NewRadio("rx", Position{}, phy.Band2GHz, 6)
	var cleanFrom int
	rx.SetHandler(func(r Reception) {
		if r.FCSOK && len(r.Data) == 200 {
			cleanFrom++
		}
	})
	// Weak frame first, strong frame (distinguished by length 200)
	// arrives mid-reception and captures the receiver.
	weak.Transmit(make([]byte, 500), phy.Rate24)
	m.Sched.RunFor(10 * eventsim.Microsecond)
	strong.Transmit(make([]byte, 200), phy.Rate24)
	for m.Sched.Step() {
	}
	if cleanFrom != 1 {
		t.Fatalf("strong late frame not captured (clean=%d)", cleanFrom)
	}
}

func TestCCABusy(t *testing.T) {
	m := newTestMedium(quietConfig())
	tx := m.NewRadio("tx", Position{}, phy.Band2GHz, 6)
	other := m.NewRadio("other", Position{X: 5}, phy.Band2GHz, 6)
	if other.CCABusy() {
		t.Fatal("CCA busy on silent medium")
	}
	tx.Transmit(make([]byte, 1500), phy.Rate6)
	m.Sched.RunFor(100 * eventsim.Microsecond)
	if !other.CCABusy() {
		t.Fatal("CCA idle during nearby transmission")
	}
	if !tx.CCABusy() {
		t.Fatal("own transmission should read busy")
	}
	for m.Sched.Step() {
	}
	if other.CCABusy() {
		t.Fatal("CCA busy after medium cleared")
	}
}

func TestStateTransitions(t *testing.T) {
	m := newTestMedium(quietConfig())
	tx := m.NewRadio("tx", Position{}, phy.Band2GHz, 6)
	rx := m.NewRadio("rx", Position{X: 3}, phy.Band2GHz, 6)
	rx.SetHandler(func(Reception) {})
	var states []State
	rx.OnStateChange(func(old, new State, at eventsim.Time) { states = append(states, new) })
	tx.Transmit(make([]byte, 100), phy.Rate24)
	for m.Sched.Step() {
	}
	if len(states) != 2 || states[0] != StateRX || states[1] != StateIdle {
		t.Fatalf("rx states = %v, want [rx idle]", states)
	}
	var txStates []State
	tx.OnStateChange(func(old, new State, at eventsim.Time) { txStates = append(txStates, new) })
	tx.Transmit(make([]byte, 100), phy.Rate24)
	for m.Sched.Step() {
	}
	if len(txStates) != 2 || txStates[0] != StateTX || txStates[1] != StateIdle {
		t.Fatalf("tx states = %v, want [tx idle]", txStates)
	}
}

// inRange reports whether a transmission from a would be decodable at
// b on average.
func inRange(m *Medium, a, b *Radio) bool {
	return a.band == b.band && a.channel == b.channel && m.RSSIBetween(a, b) >= b.sensDBm
}

func TestInRangeAndRSSISymmetry(t *testing.T) {
	m := newTestMedium(DefaultConfig())
	a := m.NewRadio("a", Position{}, phy.Band2GHz, 6)
	b := m.NewRadio("b", Position{X: 20}, phy.Band2GHz, 6)
	if !inRange(m, a, b) || !inRange(m, b, a) {
		t.Fatal("20 m link should be in range")
	}
	// Shadowing is symmetric per link.
	if m.RSSIBetween(a, b) != m.RSSIBetween(b, a) {
		t.Fatal("per-link shadowing not symmetric")
	}
}

func TestFERLossAtLongRange(t *testing.T) {
	// At the edge of sensitivity the error coin must drop some frames.
	m := newTestMedium(Config{PathLoss: LogDistance{Exponent: 3.0}, FadingSigmaDB: 3})
	tx := m.NewRadio("tx", Position{}, phy.Band2GHz, 6)
	rx := m.NewRadio("rx", Position{X: 55}, phy.Band2GHz, 6)
	var clean, total int
	rx.SetHandler(func(r Reception) {
		total++
		if r.FCSOK {
			clean++
		}
	})
	for i := 0; i < 200; i++ {
		tx.Transmit(make([]byte, 1500), phy.Rate54) // fragile rate
		for m.Sched.Step() {
		}
	}
	if clean == 200 {
		t.Fatalf("no frame errors at the edge of range (total=%d)", total)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []float64 {
		m := newTestMedium(DefaultConfig())
		tx := m.NewRadio("tx", Position{}, phy.Band2GHz, 6)
		rx := m.NewRadio("rx", Position{X: 30}, phy.Band2GHz, 6)
		var rssis []float64
		rx.SetHandler(func(r Reception) { rssis = append(rssis, r.RSSIDBm) })
		for i := 0; i < 20; i++ {
			tx.Transmit(make([]byte, 100), phy.Rate24)
			for m.Sched.Step() {
			}
		}
		return rssis
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("replay diverged")
		}
	}
}

// Property: received power decreases with distance (no shadowing).
func TestMonotonePathLossProperty(t *testing.T) {
	f := func(d1, d2 uint8) bool {
		da, db := float64(d1)+1, float64(d2)+1
		if da > db {
			da, db = db, da
		}
		m := LogDistance{Exponent: 3.0}
		la := m.LossDB(Position{}, Position{X: da}, 2437)
		lb := m.LossDB(Position{}, Position{X: db}, 2437)
		return la <= lb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{StateSleep: "sleep", StateIdle: "idle", StateRX: "rx", StateTX: "tx"} {
		if s.String() != want {
			t.Fatalf("State(%d).String() = %q", s, s.String())
		}
	}
}

func BenchmarkTransmitDeliver(b *testing.B) {
	m := newTestMedium(DefaultConfig())
	tx := m.NewRadio("tx", Position{}, phy.Band2GHz, 6)
	rx := m.NewRadio("rx", Position{X: 10}, phy.Band2GHz, 6)
	rx.SetHandler(func(Reception) {})
	frame := make([]byte, 28)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.Transmit(frame, phy.Rate24)
		for m.Sched.Step() {
		}
	}
}

// TestHiddenTerminal: two transmitters out of range of each other but
// both audible at a middle receiver collide there — the scenario
// RTS/CTS exists to prevent, and the reason control frames can never
// be encrypted.
func TestHiddenTerminal(t *testing.T) {
	m := newTestMedium(Config{PathLoss: LogDistance{Exponent: 3.5}, CaptureMarginDB: 10})
	a := m.NewRadio("a", Position{X: -45}, phy.Band2GHz, 6)
	b := m.NewRadio("b", Position{X: 45}, phy.Band2GHz, 6)
	mid := m.NewRadio("mid", Position{}, phy.Band2GHz, 6)

	if inRange(m, a, b) {
		t.Fatal("terminals must be hidden from each other")
	}
	if !inRange(m, a, mid) || !inRange(m, b, mid) {
		t.Fatal("both terminals must reach the middle receiver")
	}
	// Neither transmitter senses the other.
	a.Transmit(make([]byte, 1000), phy.Rate6)
	m.Sched.RunFor(50 * eventsim.Microsecond)
	if b.CCABusy() {
		t.Fatal("hidden terminal sensed the other transmission")
	}
	var clean int
	mid.SetHandler(func(r Reception) {
		if r.FCSOK {
			clean++
		}
	})
	b.Transmit(make([]byte, 1000), phy.Rate6)
	for m.Sched.Step() {
	}
	if clean != 0 {
		t.Fatalf("hidden-terminal collision delivered %d clean frames", clean)
	}
}
