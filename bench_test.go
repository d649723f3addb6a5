// Benchmark harness: one testing.B target per paper table/figure
// (E1–E9, see DESIGN.md §4) plus the ablation benches of DESIGN.md
// §5. Custom metrics carry the experiment's headline number so a
// bench run doubles as a results table:
//
//	go test -bench=. -benchmem
package politewifi_test

import (
	"io"
	"testing"

	"politewifi/internal/core"
	"politewifi/internal/csi"
	"politewifi/internal/dot11"
	"politewifi/internal/eventsim"
	"politewifi/internal/experiments"
	"politewifi/internal/mac"
	"politewifi/internal/phy"
	"politewifi/internal/power"
	"politewifi/internal/radio"
	"politewifi/internal/telemetry"
	"politewifi/internal/telemetry/stream"
	"politewifi/internal/world"
)

const benchSeed = 20201104

// --- E1: Figure 2 ------------------------------------------------------

func BenchmarkFigure2(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		r := experiments.Figure2(benchSeed + int64(i))
		if !r.Acked {
			b.Fatal("fake frame not acknowledged")
		}
		gap = r.GapMicros
	}
	b.ReportMetric(gap, "ack-gap-µs")
}

// --- E2: Table 1 --------------------------------------------------------

func BenchmarkTable1(b *testing.B) {
	var acks int
	for i := 0; i < b.N; i++ {
		r := experiments.Table1(benchSeed + int64(i))
		if !r.AllPolite {
			b.Fatal("a chipset refused to ACK")
		}
		acks = 0
		for _, row := range r.Rows {
			acks += row.Acks
		}
	}
	b.ReportMetric(float64(acks), "acks/5-devices")
}

// --- E3: Figure 3 -------------------------------------------------------

func BenchmarkFigure3(b *testing.B) {
	var deauths int
	for i := 0; i < b.N; i++ {
		r := experiments.Figure3(benchSeed + int64(i))
		if !r.AckedDespite || !r.AckedBlocklist {
			b.Fatal("AP stopped ACKing")
		}
		deauths = r.DeauthBursts
	}
	b.ReportMetric(float64(deauths), "deauths")
}

// --- E4: §2.2 SIFS analysis ---------------------------------------------

func BenchmarkSIFS(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		r := experiments.SIFSAnalysis(benchSeed + int64(i))
		worst = 0
		for _, row := range r.Rows {
			if row.Ratio > worst {
				worst = row.Ratio
			}
		}
	}
	b.ReportMetric(worst, "max-decode/SIFS")
}

// --- E5: Table 2 (scaled census so one iteration stays ~100 ms) ----------

// table2 runs E5 at the given census scale (1.0 = the full 5,328
// devices).
func table2(seed int64, scale float64) *experiments.Table2Result {
	cfg := world.DefaultConfig()
	cfg.Seed, cfg.Scale = seed, scale
	return experiments.Table2WithConfig(cfg)
}

func BenchmarkTable2(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		r := table2(benchSeed+int64(i), 0.02)
		rate = r.ResponseRate
	}
	b.ReportMetric(rate*100, "respond-%")
}

// BenchmarkTable2FullScale runs the complete 5,328-device drive; it
// is the paper's headline measurement and takes ~2 s per iteration.
func BenchmarkTable2FullScale(b *testing.B) {
	if testing.Short() {
		b.Skip("full census in -short mode")
	}
	var total, responded int
	for i := 0; i < b.N; i++ {
		r := table2(benchSeed, 1.0)
		total, responded = r.Run.Total(), r.Run.TotalResponded()
	}
	b.ReportMetric(float64(total), "devices")
	b.ReportMetric(float64(responded), "responded")
}

// BenchmarkWardrive contrasts the sequential drive (Workers: 1) with
// the sharded worker pool (Workers: 0 = all cores) — the scaling
// measurement behind BENCH_wardrive.json. Short mode shrinks the
// census so the CI smoke job (`go test -run '^$' -bench Wardrive
// -benchtime 1x -short .`) compiles and exercises the parallel path
// in seconds; the committed artifact is regenerated at scale 1.0
// (see EXPERIMENTS.md).
func BenchmarkWardrive(b *testing.B) {
	scale := 1.0
	if testing.Short() {
		scale = 0.05
	}
	for _, bench := range []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{"parallel", 0},
	} {
		b.Run(bench.name, func(b *testing.B) {
			var total, responded int
			for i := 0; i < b.N; i++ {
				cfg := world.DefaultConfig()
				cfg.Seed = benchSeed
				cfg.Scale = scale
				cfg.Workers = bench.workers
				r := world.Run(cfg)
				total, responded = r.Total(), r.TotalResponded()
			}
			b.ReportMetric(float64(total), "devices")
			b.ReportMetric(float64(responded), "responded")
		})
	}
}

// --- E6: Figure 5 --------------------------------------------------------

func BenchmarkFigure5(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		r := experiments.Figure5(benchSeed + int64(i))
		if !r.Separable {
			b.Fatal("activity phases not separable")
		}
		acc = r.ClassifierAccuracy
	}
	b.ReportMetric(acc*100, "classifier-%")
}

// --- E7: Figure 6 --------------------------------------------------------

func BenchmarkFigure6(b *testing.B) {
	var amp float64
	for i := 0; i < b.N; i++ {
		r := experiments.Figure6(benchSeed+int64(i), 6*eventsim.Second)
		amp = r.Amplification
	}
	b.ReportMetric(amp, "power-amplification-x")
}

// --- E8: battery arithmetic ----------------------------------------------

func BenchmarkBatteryLife(b *testing.B) {
	var hours float64
	for i := 0; i < b.N; i++ {
		r := experiments.BatteryLife(360)
		hours = r.Rows[0].LifetimeHours
	}
	b.ReportMetric(hours, "circle2-hours")
}

// --- E9: single-device sensing --------------------------------------------

func BenchmarkSensing(b *testing.B) {
	var localized float64
	for i := 0; i < b.N; i++ {
		r := experiments.Sensing(benchSeed + int64(i))
		if r.Localized {
			localized++
		}
	}
	b.ReportMetric(localized/float64(b.N)*100, "localised-%")
}

// --- EX1: 802.11w footnote-2 study -----------------------------------------

func BenchmarkPMFStudy(b *testing.B) {
	var forgeriesAcked float64
	for i := 0; i < b.N; i++ {
		r := experiments.PMFStudy(benchSeed + int64(i))
		forgeriesAcked = 0
		for _, row := range r.Rows {
			if row.ForgeryAcked {
				forgeriesAcked++
			}
		}
	}
	b.ReportMetric(forgeriesAcked, "forgeries-acked")
}

// --- EX2: breathing-rate recovery -------------------------------------------

func BenchmarkVitalSigns(b *testing.B) {
	var err float64
	for i := 0; i < b.N; i++ {
		r := experiments.VitalSigns(benchSeed + int64(i))
		err = r.MeanError
	}
	b.ReportMetric(err, "mean-bpm-error")
}

// --- EX3: Wi-Peep-style localization -----------------------------------------

func BenchmarkLocalization(b *testing.B) {
	var tofErr float64
	for i := 0; i < b.N; i++ {
		r := experiments.Localization(benchSeed + int64(i))
		tofErr = r.ToFMeanErr
	}
	b.ReportMetric(tofErr, "tof-mean-error-m")
}

// --- EX4: occupancy detection -----------------------------------------------

func BenchmarkOccupancy(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		r := experiments.Occupancy(benchSeed + int64(i))
		acc = r.Accuracy
	}
	b.ReportMetric(acc*100, "occupancy-accuracy-%")
}

// BenchmarkSensingRateSweep reports the rate at which sensing
// accuracy saturates — the ablation behind the paper's 100–1000
// pkt/s guidance.
func BenchmarkSensingRateSweep(b *testing.B) {
	var sat float64
	for i := 0; i < b.N; i++ {
		r := experiments.SensingRateSweep(benchSeed + int64(i))
		sat = r.SaturationHz
	}
	b.ReportMetric(sat, "saturation-hz")
}

// BenchmarkDeviceSweep reports the worst-case attacked lifetime over
// the §4.2 future-work device classes.
func BenchmarkDeviceSweep(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		r := experiments.DeviceSweep(benchSeed + int64(i))
		worst = 1e12
		for _, row := range r.Rows {
			if row.LifetimeH < worst {
				worst = row.LifetimeH
			}
		}
	}
	b.ReportMetric(worst, "worst-lifetime-h")
}

// --- Ablations (DESIGN.md §5) ---------------------------------------------

// benchLab builds the standard one-victim network for ablations.
type benchLab struct {
	sched    *eventsim.Scheduler
	victim   *mac.Station
	attacker *core.Attacker
}

func newBenchLab(seed int64, profile mac.ChipsetProfile, powerSave bool) *benchLab {
	sched := eventsim.NewScheduler()
	rng := eventsim.NewRNG(seed)
	medium := radio.NewMedium(sched, rng.Fork(), radio.Config{
		PathLoss: radio.LogDistance{Exponent: 2.2}, CaptureMarginDB: 10,
	})
	apAddr := dot11.MustMAC("f2:6e:0b:00:00:01")
	victimAddr := dot11.MustMAC("f2:6e:0b:12:34:56")
	mac.New(medium, rng.Fork(), mac.Config{
		Name: "ap", Addr: apAddr, Role: mac.RoleAP, Profile: mac.ProfileGenericAP,
		SSID: "n", Position: radio.Position{}, Band: phy.Band2GHz, Channel: 6,
	})
	victim := mac.New(medium, rng.Fork(), mac.Config{
		Name: "victim", Addr: victimAddr, Role: mac.RoleClient, Profile: profile,
		SSID: "n", Position: radio.Position{X: 5}, Band: phy.Band2GHz, Channel: 6,
	})
	victim.Associate(apAddr, nil)
	sched.RunFor(300 * eventsim.Millisecond)
	if powerSave {
		victim.EnablePowerSave()
		sched.RunFor(500 * eventsim.Millisecond)
	}
	attacker := core.NewAttacker(medium, radio.Position{X: 12}, phy.Band2GHz, 6, core.DefaultFakeMAC)
	return &benchLab{sched: sched, victim: victim, attacker: attacker}
}

// BenchmarkAckPath contrasts the standard ACK-at-PHY receive path
// with the hypothetical decrypt-then-ACK station: the metric is the
// fraction of fake probes answered (1.0 vs 0.0).
func BenchmarkAckPath(b *testing.B) {
	cases := []struct {
		name    string
		profile mac.ChipsetProfile
	}{
		{"phy-ack", mac.ProfileGenericClient},
		{"validate-then-ack", mac.ProfileValidating},
	}
	victimAddr := dot11.MustMAC("f2:6e:0b:12:34:56")
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				l := newBenchLab(benchSeed+int64(i), c.profile, false)
				res := core.ProbeSync(l.attacker, victimAddr, core.ProbeNull, 10, 3*eventsim.Millisecond)
				rate = res.ResponseRate()
			}
			b.ReportMetric(rate*100, "fake-ack-%")
		})
	}
}

// BenchmarkRTSCTS contrasts data-frame probing with RTS/CTS probing
// against the validating station — the §2.2 point that RTS defeats
// even a perfect validator.
func BenchmarkRTSCTS(b *testing.B) {
	victimAddr := dot11.MustMAC("f2:6e:0b:12:34:56")
	for _, mode := range []core.ProbeMode{core.ProbeNull, core.ProbeRTS} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				l := newBenchLab(benchSeed+int64(i), mac.ProfileValidating, false)
				res := core.ProbeSync(l.attacker, victimAddr, mode, 10, 3*eventsim.Millisecond)
				rate = res.ResponseRate()
			}
			b.ReportMetric(rate*100, "response-%")
		})
	}
}

// BenchmarkDrainPowerSave contrasts the drain attack against a
// power-saving victim (huge amplification) and an always-on victim
// (marginal increase) — power save is the attack's lever.
func BenchmarkDrainPowerSave(b *testing.B) {
	victimAddr := dot11.MustMAC("f2:6e:0b:12:34:56")
	for _, ps := range []bool{true, false} {
		name := "ps-off"
		if ps {
			name = "ps-on"
		}
		b.Run(name, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				// Baseline.
				l := newBenchLab(benchSeed+int64(i), mac.ProfileESP8266, ps)
				m := power.Attach(l.victim, power.ESP8266)
				m.Reset()
				l.sched.RunFor(5 * eventsim.Second)
				base := m.MeanPowerMW()
				// Under attack.
				d := core.NewDrainer(l.attacker, victimAddr)
				d.Start(900)
				l.sched.RunFor(eventsim.Second)
				m.Reset()
				l.sched.RunFor(5 * eventsim.Second)
				d.Stop()
				ratio = m.MeanPowerMW() / base
			}
			b.ReportMetric(ratio, "amplification-x")
		})
	}
}

// BenchmarkScannerPipeline measures the wardrive scanner's verified
// devices per simulated second.
func BenchmarkScannerPipeline(b *testing.B) {
	var verified float64
	for i := 0; i < b.N; i++ {
		r := table2(benchSeed+int64(i), 0.01)
		verified = float64(r.Run.TotalResponded())
	}
	b.ReportMetric(verified, "devices-verified")
}

// BenchmarkCSIPipeline contrasts activity separability on raw CSI
// amplitudes versus the Hampel+smoothing pipeline.
func BenchmarkCSIPipeline(b *testing.B) {
	rng := eventsim.NewRNG(benchSeed)
	scene := csi.NewScene(rng.Fork())
	tl := csi.Figure5Timeline(rng.Fork())
	series := scene.Collect(tl, 150, 45)
	raw := series.Amplitudes(17)
	for _, filtered := range []bool{false, true} {
		name := "raw"
		if filtered {
			name = "hampel+smooth"
		}
		b.Run(name, func(b *testing.B) {
			var sep float64
			for i := 0; i < b.N; i++ {
				x := raw
				if filtered {
					x = csi.MovingAverage(csi.Hampel(raw, 5, 3), 2)
				}
				ground := x[0 : 9*150]
				pickup := x[13*150 : 22*150]
				sep = (csi.Std(pickup) / csi.Mean(pickup)) / (csi.Std(ground) / csi.Mean(ground))
			}
			b.ReportMetric(sep, "pickup/ground-separation")
		})
	}
}

// --- Telemetry overhead -------------------------------------------------

// BenchmarkTelemetryOverhead runs the full wardrive pipeline with the
// metrics registry detached ("off"), attached ("on"), and attached
// with the flight-recorder stream emitting per-stop NDJSON records
// ("stream"). The deltas are the end-to-end cost of instrumentation —
// counters, gauges, per-origin scheduler accounting — and of the
// per-stop snapshot+marshal the stream adds, both targeted at <5%.
func BenchmarkTelemetryOverhead(b *testing.B) {
	for _, mode := range []string{"off", "on", "stream"} {
		b.Run(mode, func(b *testing.B) {
			var verified float64
			for i := 0; i < b.N; i++ {
				cfg := world.DefaultConfig()
				cfg.Seed = benchSeed + int64(i)
				cfg.Scale = 0.01
				if mode != "off" {
					cfg.Metrics = telemetry.NewRegistry(nil)
				}
				if mode == "stream" {
					cfg.Stream = stream.NewWriter(io.Discard)
				}
				r := experiments.Table2WithConfig(cfg)
				verified = float64(r.Run.TotalResponded())
				if mode != "off" {
					if c := cfg.Metrics.Snapshot().Counter("pipeline.devices_discovered"); c == nil || c.Value == 0 {
						b.Fatal("instrumented run recorded no discoveries")
					}
				}
				if mode == "stream" {
					if cfg.Stream.Count() != r.Run.Stops || cfg.Stream.Err() != nil {
						b.Fatalf("stream wrote %d/%d records (err %v)",
							cfg.Stream.Count(), r.Run.Stops, cfg.Stream.Err())
					}
				}
			}
			b.ReportMetric(verified, "devices-verified")
		})
	}
}

// --- Micro: the core exchange -------------------------------------------

// BenchmarkFakeFrameExchange measures one full fake-frame→ACK round
// trip through codec, medium and MAC.
func BenchmarkFakeFrameExchange(b *testing.B) {
	victimAddr := dot11.MustMAC("f2:6e:0b:12:34:56")
	l := newBenchLab(benchSeed, mac.ProfileGenericClient, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.attacker.InjectNull(victimAddr)
		// One exchange fits in 150 µs: 30 µs frame + SIFS + 28 µs ACK.
		l.sched.RunFor(150 * eventsim.Microsecond)
	}
	if l.victim.Stats.AcksSent == 0 {
		b.Fatal("no ACKs")
	}
}
