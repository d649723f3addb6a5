package core

import (
	"testing"

	"politewifi/internal/dot11"
	"politewifi/internal/eventsim"
	"politewifi/internal/faults"
	"politewifi/internal/mac"
	"politewifi/internal/phy"
	"politewifi/internal/radio"
	"politewifi/internal/telemetry"
)

// TestScannerHoggedChannelInconclusive pins the scanner's own
// transmitter at 100% duty after it has discovered a target. The
// injector must keep yielding to the busy transmitter, the scan must
// still end when its dwell does, and the target must be written off as
// inconclusive — not silent, because no probe ever flew.
func TestScannerHoggedChannelInconclusive(t *testing.T) {
	sched := eventsim.NewScheduler()
	rng := eventsim.NewRNG(31)
	m := radio.NewMedium(sched, rng.Fork(), radio.Config{
		PathLoss: radio.LogDistance{Exponent: 2.2}, CaptureMarginDB: 10,
	})
	target := dot11.MustMAC("ec:fa:bc:00:00:99")
	mac.New(m, rng.Fork(), mac.Config{
		Name: "ap", Addr: target, Role: mac.RoleAP, Profile: mac.ProfileGenericAP,
		SSID: "h", Position: radio.Position{X: 10}, Band: phy.Band2GHz, Channel: 6,
	})
	attacker := NewAttacker(m, radio.Position{}, phy.Band2GHz, 6, DefaultFakeMAC)
	reg := telemetry.NewRegistry(sched.ObservedNow)
	sc := NewScanner(attacker)
	sc.SetMetrics(reg)
	sc.EnableFaultInstruments(reg)

	// Discovery only: the injector is not running yet, so the AP's
	// first beacon puts it on the target list unprobed.
	sched.RunFor(150 * eventsim.Millisecond)
	if sc.Pending() != 1 {
		t.Fatalf("pending = %d after the first beacon, want the AP queued", sc.Pending())
	}

	// Hog: back-to-back transmissions with zero gap. Each chain link
	// re-transmits at the exact instant the previous frame ends, which
	// keeps Transmitting() true at every instant but those ends. The
	// injector starts 1 µs later, so its 2 ms ticks never land on a
	// frame end (the 960 µs frames and the ticks share an 80 µs grid).
	filler := make([]byte, 700)
	var hog func()
	hog = func() {
		end, err := attacker.Radio.Transmit(filler, phy.Rate6)
		if err != nil {
			sched.After(eventsim.Microsecond, hog)
			return
		}
		sched.Schedule(end, hog)
	}
	hog()
	sched.RunFor(eventsim.Microsecond)
	sc.Start()
	sched.RunFor(2 * eventsim.Second)
	sc.Stop()

	tally := sc.Tally()
	if tally.Total != 1 || tally.TotalResponded != 0 {
		t.Fatalf("tally = %+v, want 1 discovered / 0 responded", tally)
	}
	if tally.Inconclusive != 1 {
		t.Fatalf("tally = %+v, want the hogged-out target inconclusive", tally)
	}
	for _, d := range sc.Devices() {
		if d.Verdict != VerdictInconclusive {
			t.Fatalf("device %s verdict = %s, want inconclusive", d.MAC, d.Verdict)
		}
		if d.Probes != 0 {
			t.Fatalf("device %s got %d probes through a 100%% busy transmitter", d.MAC, d.Probes)
		}
	}
	rep := reg.Snapshot()
	if c := rep.Counter("pipeline.probes_injected"); c == nil || c.Value != 0 {
		t.Fatalf("pipeline.probes_injected = %+v, want 0", c)
	}
	if c := rep.Counter("pipeline.verdicts.inconclusive"); c == nil || c.Value != 1 {
		t.Fatalf("pipeline.verdicts.inconclusive = %+v, want 1", c)
	}
}

// TestScannerACKLossInconclusive runs the scanner against a live
// neighbourhood whose every ACK/CTS is eaten by the channel. The
// victims answer — their responses just never survive to the capture
// radio — so the honest verdict is inconclusive (a corrupted frame in
// the attribution window), never silent-by-default.
func TestScannerACKLossInconclusive(t *testing.T) {
	sched := eventsim.NewScheduler()
	rng := eventsim.NewRNG(19)
	m := radio.NewMedium(sched, rng.Fork(), radio.Config{
		PathLoss: radio.LogDistance{Exponent: 2.2}, CaptureMarginDB: 10,
	})
	inj := faults.New(eventsim.NewRNG(7), faults.Config{ACKLoss: 1})
	m.SetFaultInjector(inj)

	for i := 0; i < 2; i++ {
		apMAC := dot11.MustMAC("f2:6e:0b:00:0" + string(rune('0'+i)) + ":01")
		clMAC := dot11.MustMAC("ec:fa:bc:00:0" + string(rune('0'+i)) + ":02")
		pos := radio.Position{X: float64(i) * 20}
		mac.New(m, rng.Fork(), mac.Config{
			Name: "ap", Addr: apMAC, Role: mac.RoleAP, Profile: mac.ProfileGenericAP,
			SSID: "h", Position: pos, Band: phy.Band2GHz, Channel: 6,
		})
		cl := mac.New(m, rng.Fork(), mac.Config{
			Name: "cl", Addr: clMAC, Role: mac.RoleClient, Profile: mac.ProfileGenericClient,
			SSID: "h", Position: radio.Position{X: pos.X + 3}, Band: phy.Band2GHz, Channel: 6,
		})
		cl.Associate(apMAC, nil)
		sched.Every(150*eventsim.Millisecond, func() {
			if cl.Associated() {
				cl.SendData(apMAC, []byte("chatter"))
			}
		})
	}
	attacker := NewAttacker(m, radio.Position{X: 10, Y: 10}, phy.Band2GHz, 6, DefaultFakeMAC)
	sc := NewScanner(attacker)
	sc.Start()
	sched.RunFor(4 * eventsim.Second)
	sc.Stop()

	tally := sc.Tally()
	if tally.Total < 2 {
		t.Fatalf("discovered %d devices, want at least the 2 APs/clients", tally.Total)
	}
	if tally.TotalResponded != 0 {
		t.Fatalf("tally = %+v: responses attributed through 100%% ACK loss", tally)
	}
	if tally.Inconclusive < 1 {
		t.Fatalf("tally = %+v, want lossy targets marked inconclusive", tally)
	}
	if inj.ACKDrops == 0 {
		t.Fatal("the injector never dropped an ACK — the fault path was not exercised")
	}
	// Every probe's answer was mangled, so each audible target keeps
	// being re-probed up to the tainted budget instead of being written
	// off after ProbesPerDevice.
	for _, d := range sc.Devices() {
		if d.Lossy > 0 && d.Probes != 3*sc.ProbesPerDevice {
			t.Errorf("lossy device %s got %d probes, want %d", d.MAC, d.Probes, 3*sc.ProbesPerDevice)
		}
	}
}

// TestScannerOwesProbes pins the re-probe budget shared by the
// injector's queue filter and Pending.
func TestScannerOwesProbes(t *testing.T) {
	sc := &Scanner{ProbesPerDevice: 3}
	for _, tc := range []struct {
		name string
		d    Device
		want bool
	}{
		{"unprobed", Device{}, true},
		{"responder", Device{Probes: 1, Responded: true}, false},
		{"clean budget left", Device{Probes: 2}, true},
		{"clean budget spent", Device{Probes: 3}, false},
		{"lossy past clean budget", Device{Probes: 3, Lossy: 1}, true},
		{"contended past clean budget", Device{Probes: 8, Contended: 1}, true},
		{"tainted budget spent", Device{Probes: 9, Lossy: 2, Contended: 1}, false},
	} {
		if got := sc.owesProbes(&tc.d); got != tc.want {
			t.Errorf("%s: owesProbes = %v, want %v", tc.name, got, tc.want)
		}
	}
}
