package world

import (
	"testing"

	"politewifi/internal/dot11"
	"politewifi/internal/eventsim"
	"politewifi/internal/oui"
)

func TestBuildCityFullScale(t *testing.T) {
	rng := eventsim.NewRNG(1)
	city := BuildCity(rng, 1.0)
	if city.TotalAPs != oui.TotalAPs {
		t.Fatalf("APs = %d, want %d", city.TotalAPs, oui.TotalAPs)
	}
	if city.TotalClients != oui.TotalClients {
		t.Fatalf("clients = %d, want %d", city.TotalClients, oui.TotalClients)
	}
	if len(city.Households) != oui.TotalAPs {
		t.Fatalf("households = %d", len(city.Households))
	}
	// All MACs unique.
	seen := make(map[dot11.MAC]bool)
	for _, h := range city.Households {
		if seen[h.AP.MAC] {
			t.Fatal("duplicate AP MAC")
		}
		seen[h.AP.MAC] = true
		for _, c := range h.Clients {
			if seen[c.MAC] {
				t.Fatal("duplicate client MAC")
			}
			seen[c.MAC] = true
		}
	}
	if len(seen) != oui.TotalDevices {
		t.Fatalf("total MACs = %d, want %d", len(seen), oui.TotalDevices)
	}
	// Addresses carry their vendor's prefix from the DB.
	ap := city.Households[0].AP
	if o := city.DB.Register(ap.Vendor); ap.MAC.OUI() != o {
		t.Fatalf("AP %v of %q, whose prefix is %v", ap.MAC, ap.Vendor, o)
	}
}

func TestBuildCityScaled(t *testing.T) {
	rng := eventsim.NewRNG(2)
	city := BuildCity(rng, 0.01)
	if city.TotalAPs < 20 || city.TotalAPs > 80 {
		t.Fatalf("scaled APs = %d", city.TotalAPs)
	}
	if city.TotalClients < 5 || city.TotalClients > 40 {
		t.Fatalf("scaled clients = %d", city.TotalClients)
	}
}

func TestStopsPartition(t *testing.T) {
	rng := eventsim.NewRNG(3)
	city := BuildCity(rng, 0.02)
	stops := city.Stops(10)
	total := 0
	for _, s := range stops {
		if len(s.Households) > 10 {
			t.Fatalf("stop has %d households", len(s.Households))
		}
		total += len(s.Households)
	}
	if total != len(city.Households) {
		t.Fatalf("partition covers %d of %d", total, len(city.Households))
	}
	if stops[0].Pos.Z != 1.8 {
		t.Fatal("attacker antenna height wrong")
	}
}

func TestChannelsAssigned(t *testing.T) {
	rng := eventsim.NewRNG(4)
	city := BuildCity(rng, 0.05)
	chans := map[int]int{}
	bands := map[int]int{} // per-band household counts
	for _, h := range city.Households {
		chans[h.Channel]++
		bands[int(h.Band)]++
	}
	for _, ch := range []int{1, 6, 11, 36, 149} {
		if chans[ch] == 0 {
			t.Fatalf("channel %d unused: %v", ch, chans)
		}
	}
	for ch := range chans {
		switch ch {
		case 1, 6, 11, 36, 149:
		default:
			t.Fatalf("unexpected channel %d", ch)
		}
	}
	// Roughly a quarter of households on 5 GHz.
	total := len(city.Households)
	if five := bands[1]; five < total/8 || five > total/2 {
		t.Fatalf("5 GHz households = %d of %d, want ~25%%", five, total)
	}
}

// TestWardriveSmall runs a scaled-down drive end to end: every
// discovered device must respond (the §3 result), and discovery must
// cover nearly the whole population.
func TestWardriveSmall(t *testing.T) {
	cfg := Config{
		Seed:              77,
		Scale:             0.02, // ~76 APs, ~30 clients
		HouseholdsPerStop: 4,
		DwellPerChannel:   1200 * eventsim.Millisecond,
		VehicleSpeedKmh:   40,
	}
	res := Run(cfg)

	if res.Total() == 0 {
		t.Fatal("nothing discovered")
	}
	// The headline result: 100% of discovered devices respond.
	if res.TotalResponded() != res.Total() {
		t.Fatalf("responded %d of %d; non-responders: %+v",
			res.TotalResponded(), res.Total(), res.NonResponders)
	}
	// Coverage: nearly all devices should be discovered (all are
	// active and in range of their stop).
	city := BuildCity(eventsim.NewRNG(77), cfg.Scale)
	want := city.TotalAPs + city.TotalClients
	if res.Total() < want*85/100 {
		t.Fatalf("discovered %d of %d devices", res.Total(), want)
	}
	if res.APsDiscovered == 0 || res.ClientsDiscovered == 0 {
		t.Fatalf("APs=%d clients=%d", res.APsDiscovered, res.ClientsDiscovered)
	}
	// Vendor attribution populated.
	if len(res.APVendors) == 0 || len(res.ClientVendors) == 0 {
		t.Fatal("vendor maps empty")
	}
	if res.DriveMinutes <= 0 {
		t.Fatal("drive duration not modelled")
	}
	if res.Stops == 0 {
		t.Fatal("no stops")
	}
}

// TestWardriveProbesEveryDevice pins 0.02-scale cities whose one
// non-responder was a working device the scanner failed to settle:
//   - 47000189, 50000207: the first ProbesPerDevice probes were all
//     tainted (a collided ACK, a victim busy on its own
//     transmissions), and the device stays audible for the rest of its
//     stop, so re-probing it must get its answer;
//   - 54000229: an AP's own transmissions pre-empted the SIFS ACK of
//     each clean probe, so those probes count as contended and the AP
//     is re-probed;
//   - 166000507: a client first heard 0.64 ms before the last dwell on
//     its channel ended, so it gets its probes on the extra visit.
//
// Every device responds.
func TestWardriveProbesEveryDevice(t *testing.T) {
	for _, seed := range []int64{47000189, 50000207, 54000229, 166000507} {
		cfg := DefaultConfig()
		cfg.Seed, cfg.Scale = seed, 0.02
		res := Run(cfg)
		if res.Total() == 0 || res.TotalResponded() != res.Total() {
			t.Errorf("seed %d: responded %d of %d; non-responders: %+v",
				seed, res.TotalResponded(), res.Total(), res.NonResponders)
		}
	}
}

// TestDriveMinutesCountsSimulatedTime: city 166000507 takes runStop's
// extra visits at its stop 1 (channels 1 and 6, 50 ms each), so that
// stop counts 6.1 s of the modelled drive, not the nominal 6 s. A
// drive cancelled after stop 2 and resumed merges to the same figure.
func TestDriveMinutesCountsSimulatedTime(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed, cfg.Scale = 166000507, 0.02
	var perStop []eventsim.Time
	var last eventsim.Time
	cfg.Progress = func(p Progress) {
		perStop = append(perStop, p.SimTime-last)
		last = p.SimTime
	}
	res := Run(cfg)
	if len(perStop) != res.Stops || perStop[1] != 6100*eventsim.Millisecond {
		t.Fatalf("per-stop simulated time %v; want stop 1 at 6.1s", perStop)
	}
	nominal := res.SimPerStop * eventsim.Time(res.Stops)
	if res.dwell != nominal+100*eventsim.Millisecond {
		t.Fatalf("dwell %v, want %v plus the 100ms of extra visits", res.dwell, nominal)
	}
	if want := (res.driveH + res.dwell.Seconds()/3600) * 60; res.DriveMinutes != want {
		t.Fatalf("DriveMinutes = %v, want %v", res.DriveMinutes, want)
	}
	if short := (res.driveH + nominal.Seconds()/3600) * 60; res.DriveMinutes <= short {
		t.Fatalf("DriveMinutes = %v does not exceed the nominal %v", res.DriveMinutes, short)
	}

	part := DefaultConfig()
	part.Seed, part.Scale, part.Workers = cfg.Seed, cfg.Scale, 1
	part.Cancel, part.Progress = cancelAtStop(2, nil)
	merged := Run(part)
	if merged.StopsDone != 2 {
		t.Fatalf("setup: cancel at stop 2 left StopsDone=%d", merged.StopsDone)
	}
	rest := DefaultConfig()
	rest.Seed, rest.Scale, rest.StartStop = cfg.Seed, cfg.Scale, merged.StopsDone
	merged.Merge(Run(rest))
	if merged.DriveMinutes != res.DriveMinutes {
		t.Fatalf("resumed drive DriveMinutes = %v, uninterrupted %v", merged.DriveMinutes, res.DriveMinutes)
	}
}

func TestRunDefaultsFilled(t *testing.T) {
	res := Run(Config{Seed: 5, Scale: 0.004, HouseholdsPerStop: 10,
		DwellPerChannel: 800 * eventsim.Millisecond})
	if res.Total() == 0 {
		t.Fatal("tiny run found nothing")
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Scale != 1.0 || cfg.HouseholdsPerStop == 0 || cfg.DwellPerChannel == 0 {
		t.Fatalf("default config: %+v", cfg)
	}
}
