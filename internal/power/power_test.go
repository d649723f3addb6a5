package power

import (
	"math"
	"testing"
	"testing/quick"

	"politewifi/internal/dot11"
	"politewifi/internal/eventsim"
	"politewifi/internal/mac"
	"politewifi/internal/phy"
	"politewifi/internal/radio"
)

// energyMJ reports the meter's total consumed energy in millijoules
// up to now.
func energyMJ(m *Meter) float64 {
	m.settle(m.sched.Now())
	return m.energyUJ / 1000
}

func newMeterEnv() (*eventsim.Scheduler, *Meter) {
	sched := eventsim.NewScheduler()
	m := NewMeter(sched, Profile{
		Name: "test", SleepMW: 1, IdleMW: 100, RxMW: 200, TxMW: 400, FrameOverheadUJ: 50,
	})
	return sched, m
}

func TestMeterStateIntegration(t *testing.T) {
	sched, m := newMeterEnv()
	// 1 s idle, 1 s RX, 1 s TX, 1 s sleep.
	sched.RunFor(eventsim.Second)
	m.Transition(radio.StateRX, sched.Now())
	sched.RunFor(eventsim.Second)
	m.Transition(radio.StateTX, sched.Now())
	sched.RunFor(eventsim.Second)
	m.Transition(radio.StateSleep, sched.Now())
	sched.RunFor(eventsim.Second)

	wantMJ := 100.0 + 200 + 400 + 1 // mW × 1 s each
	if got := energyMJ(m); math.Abs(got-wantMJ) > 1e-6 {
		t.Fatalf("EnergyMJ = %v, want %v", got, wantMJ)
	}
	if got := m.MeanPowerMW(); math.Abs(got-wantMJ/4) > 1e-6 {
		t.Fatalf("MeanPowerMW = %v, want %v", got, wantMJ/4)
	}
}

func TestMeterFrameOverhead(t *testing.T) {
	sched, m := newMeterEnv()
	sched.RunFor(eventsim.Second)
	for i := 0; i < 100; i++ {
		m.AddFrame()
	}
	// 100 frames × 50 µJ = 5 mJ on top of 100 mJ idle.
	if got := energyMJ(m); math.Abs(got-105) > 1e-6 {
		t.Fatalf("EnergyMJ = %v, want 105", got)
	}
}

func TestMeterReset(t *testing.T) {
	sched, m := newMeterEnv()
	sched.RunFor(eventsim.Second)
	m.AddFrame()
	m.Reset()
	if energyMJ(m) != 0 {
		t.Fatal("Reset did not zero accumulators")
	}
	sched.RunFor(2 * eventsim.Second)
	if got := m.MeanPowerMW(); math.Abs(got-100) > 1e-6 {
		t.Fatalf("post-reset mean = %v, want 100 (idle)", got)
	}
}

func TestMeterZeroElapsed(t *testing.T) {
	_, m := newMeterEnv()
	if m.MeanPowerMW() != 0 {
		t.Fatal("mean power with zero elapsed should be 0")
	}
}

// Property: energy is nonnegative and nondecreasing in time.
func TestEnergyMonotoneProperty(t *testing.T) {
	f := func(steps []uint8) bool {
		sched, m := newMeterEnv()
		states := []radio.State{radio.StateSleep, radio.StateIdle, radio.StateRX, radio.StateTX}
		prev := 0.0
		for _, s := range steps {
			sched.RunFor(eventsim.Time(s) * eventsim.Millisecond)
			m.Transition(states[int(s)%len(states)], sched.Now())
			e := energyMJ(m)
			if e < prev-1e-9 {
				return false
			}
			prev = e
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBatteryLifetime(t *testing.T) {
	// The paper's §4.2 arithmetic: at 360 mW the Circle 2 (2400 mWh)
	// lasts ~6.7 h and the Blink XT2 (6000 mWh) ~16.7 h.
	if got := LogitechCircle2.LifetimeHours(360); math.Abs(got-6.67) > 0.01 {
		t.Fatalf("Circle 2 lifetime = %v h, want ~6.67", got)
	}
	if got := BlinkXT2.LifetimeHours(360); math.Abs(got-16.67) > 0.01 {
		t.Fatalf("Blink XT2 lifetime = %v h, want ~16.67", got)
	}
	if got := LogitechCircle2.LifetimeHours(2400); got != 1 {
		t.Fatalf("LifetimeHours(2400) = %v, want 1", got)
	}
	if LogitechCircle2.LifetimeHours(0) != 0 {
		t.Fatal("LifetimeHours(0) should be 0 sentinel")
	}
	if LogitechCircle2.String() == "" || BlinkXT2.String() == "" {
		t.Fatal("battery strings empty")
	}
}

// TestAttachedMeterIdleBaseline: a power-saving ESP8266 with no
// attack traffic should sit near the paper's 10 mW baseline.
func TestAttachedMeterIdleBaseline(t *testing.T) {
	sched := eventsim.NewScheduler()
	rng := eventsim.NewRNG(9)
	med := radio.NewMedium(sched, rng, radio.Config{
		PathLoss: radio.LogDistance{Exponent: 2.0},
	})
	ap := mac.New(med, rng, mac.Config{
		Name: "ap", Addr: dot11.MustMAC("f2:6e:0b:00:00:01"), Role: mac.RoleAP,
		Profile: mac.ProfileGenericAP, SSID: "iot", Passphrase: "passpasspass",
		Position: radio.Position{}, Band: phy.Band2GHz, Channel: 6,
	})
	_ = ap
	victim := mac.New(med, rng, mac.Config{
		Name: "esp", Addr: dot11.MustMAC("ec:fa:bc:00:00:02"), Role: mac.RoleClient,
		Profile: mac.ProfileESP8266, SSID: "iot", Passphrase: "passpasspass",
		Position: radio.Position{X: 4}, Band: phy.Band2GHz, Channel: 6,
	})
	ok := false
	victim.Associate(dot11.MustMAC("f2:6e:0b:00:00:01"), func(v bool) { ok = v })
	sched.RunFor(300 * eventsim.Millisecond)
	if !ok {
		t.Fatal("association failed")
	}
	victim.EnablePowerSave()
	sched.RunFor(500 * eventsim.Millisecond) // let it settle into dozing

	meter := Attach(victim, ESP8266)
	meter.Reset()
	sched.RunFor(20 * eventsim.Second)
	mean := meter.MeanPowerMW()
	if mean < 3 || mean > 25 {
		t.Fatalf("idle PS baseline = %.1f mW, want ~10 mW", mean)
	}
}

func TestProfilesSane(t *testing.T) {
	for _, p := range []Profile{ESP8266, Generic} {
		if p.SleepMW <= 0 || p.SleepMW >= p.IdleMW {
			t.Fatalf("%s: sleep power ordering wrong", p.Name)
		}
		if p.IdleMW > p.RxMW || p.RxMW > p.TxMW {
			t.Fatalf("%s: state power ordering wrong", p.Name)
		}
	}
}
