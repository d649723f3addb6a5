package core

import (
	"testing"

	"politewifi/internal/dot11"
	"politewifi/internal/eventsim"
	"politewifi/internal/mac"
	"politewifi/internal/phy"
	"politewifi/internal/radio"
	"politewifi/internal/rt"
	"politewifi/internal/telemetry"
)

// TestConcurrentScanner runs the paper's three-goroutine pipeline
// against a small neighbourhood and expects every device discovered
// and verified. This test exercises real concurrency: run it with
// -race.
func TestConcurrentScanner(t *testing.T) {
	sched := eventsim.NewScheduler()
	rng := eventsim.NewRNG(19)
	m := radio.NewMedium(sched, rng.Fork(), radio.Config{
		PathLoss: radio.LogDistance{Exponent: 2.2}, CaptureMarginDB: 10,
	})
	var aps []dot11.MAC
	for i := 0; i < 3; i++ {
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
		aps = append(aps, apMAC)
	}
	attacker := NewAttacker(m, radio.Position{X: 20, Y: 10}, phy.Band2GHz, 6, DefaultFakeMAC)

	bridge := rt.NewBridge(sched)
	cs := NewConcurrentScanner(attacker, bridge)
	tally := cs.Run(4 * eventsim.Second)

	if tally.Total < 6 {
		t.Fatalf("discovered %d devices, want 6", tally.Total)
	}
	if tally.TotalResponded != tally.Total {
		t.Fatalf("responded %d of %d: %+v", tally.TotalResponded, tally.Total, cs.Devices())
	}
	if tally.APs < 3 || tally.Clients < 3 {
		t.Fatalf("tally = %+v", tally)
	}
	_ = aps
}

// TestConcurrentScannerTelemetryRace drives the three-goroutine
// pipeline with every instrument attached — registry on the race-free
// ObservedNow clock, medium metrics, tracer, pipeline metrics, bridge
// counters — and cross-checks the resulting report. The point is the
// -race run: worker goroutines stamp counters and read the virtual
// clock while the driver fires events, which is exactly the interleaving
// the atomic clock mirror exists for.
func TestConcurrentScannerTelemetryRace(t *testing.T) {
	sched := eventsim.NewScheduler()
	rng := eventsim.NewRNG(23)
	m := radio.NewMedium(sched, rng.Fork(), radio.Config{
		PathLoss: radio.LogDistance{Exponent: 2.2}, CaptureMarginDB: 10,
	})
	reg := telemetry.NewRegistry(sched.ObservedNow)
	telemetry.AttachScheduler(reg, sched, false)
	m.SetMetrics(radio.NewMetrics(reg))
	m.SetTracer(telemetry.NewTracer())
	macMx := mac.NewMetrics(reg)

	apMAC := dot11.MustMAC("f2:6e:0b:00:00:01")
	clMAC := dot11.MustMAC("ec:fa:bc:00:00:02")
	ap := mac.New(m, rng.Fork(), mac.Config{
		Name: "ap", Addr: apMAC, Role: mac.RoleAP, Profile: mac.ProfileGenericAP,
		SSID: "h", Band: phy.Band2GHz, Channel: 6,
	})
	ap.SetMetrics(macMx)
	cl := mac.New(m, rng.Fork(), mac.Config{
		Name: "cl", Addr: clMAC, Role: mac.RoleClient, Profile: mac.ProfileGenericClient,
		SSID: "h", Position: radio.Position{X: 3}, Band: phy.Band2GHz, Channel: 6,
	})
	cl.SetMetrics(macMx)
	cl.Associate(apMAC, nil)
	sched.Every(100*eventsim.Millisecond, func() {
		if cl.Associated() {
			cl.SendData(apMAC, []byte("chatter"))
		}
	})

	attacker := NewAttacker(m, radio.Position{X: 8, Y: 4}, phy.Band2GHz, 6, DefaultFakeMAC)
	attacker.InstrumentInto(reg)
	bridge := rt.NewBridge(sched)
	bridge.InstrumentInto(reg)
	cs := NewConcurrentScanner(attacker, bridge)
	cs.SetMetrics(reg)
	tally := cs.Run(2 * eventsim.Second)

	if tally.Total < 2 || tally.TotalResponded != tally.Total {
		t.Fatalf("tally = %+v", tally)
	}
	rep := reg.Snapshot()
	if c := rep.Counter("pipeline.devices_discovered"); c == nil || c.Value != uint64(tally.Total) {
		t.Fatalf("pipeline.devices_discovered = %+v, tally = %+v", c, tally)
	}
	if c := rep.Counter("pipeline.verdicts.ack"); c == nil || c.Value < uint64(tally.TotalResponded) {
		t.Fatalf("pipeline.verdicts.ack = %+v", c)
	}
	if c := rep.Counter("rt.drive_quanta"); c == nil || c.Value == 0 {
		t.Fatalf("rt.drive_quanta = %+v", c)
	}
	// Verdict latency is measured in virtual time between arming and
	// resolution; an ACK verdict arrives within the verification window.
	var lat *telemetry.HistogramSnapshot
	for i := range rep.Histograms {
		if rep.Histograms[i].Name == "pipeline.verdict_latency_us" {
			lat = &rep.Histograms[i]
		}
	}
	if lat == nil || lat.Count == 0 {
		t.Fatal("pipeline.verdict_latency_us empty")
	}
	if lat.Min < 0 || lat.Max > 50_000 {
		t.Fatalf("verdict latency out of range: min=%v max=%v", lat.Min, lat.Max)
	}
	for _, fam := range []string{"sched", "medium", "mac", "pipeline", "core", "rt"} {
		found := false
		for _, f := range rep.Families() {
			if f == fam {
				found = true
			}
		}
		if !found {
			t.Fatalf("family %q missing from report (have %v)", fam, rep.Families())
		}
	}
}

// TestConcurrentScannerSettlesEachQuantum gives the pipeline two
// quanta of virtual time for one seeded target. Run holds the clock
// until the workers have settled, so the probe is injected before the
// first quantum and its ACK verdict recorded at the second boundary,
// however late the OS schedules the worker goroutines.
func TestConcurrentScannerSettlesEachQuantum(t *testing.T) {
	for i := 0; i < 20; i++ {
		sched := eventsim.NewScheduler()
		rng := eventsim.NewRNG(29)
		m := radio.NewMedium(sched, rng.Fork(), radio.Config{
			PathLoss: radio.LogDistance{Exponent: 2.2}, CaptureMarginDB: 10,
		})
		apMAC := dot11.MustMAC("f2:6e:0b:00:00:07")
		mac.New(m, rng.Fork(), mac.Config{
			Name: "ap", Addr: apMAC, Role: mac.RoleAP, Profile: mac.ProfileGenericAP,
			SSID: "h", Band: phy.Band2GHz, Channel: 6,
		})
		attacker := NewAttacker(m, radio.Position{X: 5}, phy.Band2GHz, 6, DefaultFakeMAC)
		cs := NewConcurrentScanner(attacker, rt.NewBridge(sched))
		cs.SeedTargets(apMAC)
		tally := cs.Run(2 * eventsim.Millisecond)
		if tally.Total != 1 || tally.TotalResponded != 1 {
			t.Fatalf("run %d: tally = %+v, want the seeded AP probed and answered", i, tally)
		}
		if d := cs.Devices()[0]; d.Probes != 1 {
			t.Fatalf("run %d: %d probes, want 1", i, d.Probes)
		}
	}
}

// TestBridgeDoSerialises hammers the bridge from several goroutines
// while it drives; -race validates mutual exclusion.
func TestBridgeDoSerialises(t *testing.T) {
	sched := eventsim.NewScheduler()
	bridge := rt.NewBridge(sched)
	counter := 0
	doneCh := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			for i := 0; i < 200; i++ {
				bridge.Do(func() { counter++ })
			}
			doneCh <- struct{}{}
		}()
	}
	bridge.Drive(eventsim.Millisecond, 100*eventsim.Millisecond)
	for g := 0; g < 4; g++ {
		<-doneCh
	}
	bridge.Do(func() {
		if counter != 800 {
			t.Errorf("counter = %d, want 800", counter)
		}
	})
	if bridge.Now() < 100*eventsim.Millisecond {
		t.Fatal("Drive did not advance virtual time")
	}
}
