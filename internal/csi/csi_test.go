package csi

import (
	"math"
	"testing"
	"testing/quick"

	"politewifi/internal/eventsim"
	"politewifi/internal/phy"
)

func TestVec3(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, 6, 3}
	if a.Dist(b) != 5 {
		t.Fatalf("Dist = %v", a.Dist(b))
	}
	if a.Add(b).Sub(b) != a {
		t.Fatal("Add/Sub not inverse")
	}
	if (Vec3{0, 6, 0}).Norm() != 6 {
		t.Fatal("Norm wrong")
	}
}

func noiselessScene() *Scene {
	sc := NewScene(nil)
	sc.NoiseSigma = 0
	return sc
}

func TestMeasureDeterministic(t *testing.T) {
	sc := noiselessScene()
	s1 := sc.Measure(1.0, State{})
	s2 := sc.Measure(1.0, State{})
	for k := 0; k < phy.NumSubcarriers; k++ {
		if s1.H[k] != s2.H[k] {
			t.Fatal("noiseless measurement not deterministic")
		}
	}
	if s1.T != 1.0 {
		t.Fatalf("T = %v", s1.T)
	}
}

func TestMeasureFrequencySelectivity(t *testing.T) {
	// Multipath must make different subcarriers see different
	// amplitudes (frequency-selective fading) — otherwise CSI would
	// carry no more information than RSSI.
	sc := noiselessScene()
	s := sc.Measure(0, State{})
	amps := make([]float64, phy.NumSubcarriers)
	for k := range amps {
		amps[k] = s.Amplitude(k)
		if amps[k] <= 0 {
			t.Fatalf("subcarrier %d amplitude %v", k, amps[k])
		}
	}
	if Range(amps)/Mean(amps) < 0.01 {
		t.Fatal("channel is frequency-flat; multipath model broken")
	}
}

func TestDeviceMotionMovesChannel(t *testing.T) {
	sc := noiselessScene()
	base := sc.Measure(0, State{})
	moved := sc.Measure(0, State{DeviceOffset: Vec3{0, 0, 0.3}})
	diff := 0.0
	for k := 0; k < phy.NumSubcarriers; k++ {
		diff += math.Abs(base.Amplitude(k) - moved.Amplitude(k))
	}
	if diff == 0 {
		t.Fatal("moving the device did not change the CSI")
	}
}

func TestBodyScattererMovesChannel(t *testing.T) {
	sc := noiselessScene()
	base := sc.Measure(0, State{})
	withBody := sc.Measure(0, State{Bodies: []Scatterer{{Pos: Vec3{-1, 0, 1}, Reflectivity: 0.8}}})
	same := true
	for k := 0; k < phy.NumSubcarriers; k++ {
		if base.H[k] != withBody.H[k] {
			same = false
		}
	}
	if same {
		t.Fatal("body scatterer invisible in CSI")
	}
}

// TestFigure5Separation is the heart of E6: the four activity phases
// must be statistically separable on a single subcarrier's amplitude,
// as in the paper's Figure 5.
func TestFigure5Separation(t *testing.T) {
	rng := eventsim.NewRNG(17)
	sc := NewScene(rng.Fork())
	tl := Figure5Timeline(rng.Fork())
	series := sc.Collect(tl, 150, 45)
	if len(series) != 150*45 {
		t.Fatalf("series length = %d", len(series))
	}
	amp := series.Amplitudes(17) // the paper plots subcarrier 17

	window := func(from, to float64) []float64 {
		return amp[int(from*150):int(to*150)]
	}
	// Normalised stds per phase.
	phaseStd := func(x []float64) float64 { return Std(x) / Mean(x) }
	ground := phaseStd(window(0, 9))
	pickup := phaseStd(window(13, 22))
	holdW := phaseStd(window(23, 31))
	typeW := phaseStd(window(33, 41))

	if ground > 0.05 {
		t.Fatalf("on-ground std = %v, want near-flat", ground)
	}
	if pickup < 8*ground {
		t.Fatalf("pickup std %v not ≫ ground std %v", pickup, ground)
	}
	if typeW < 1.5*ground {
		t.Fatalf("typing std %v not clearly above ground %v", typeW, ground)
	}
	// Typing has more high-band energy than holding (the feature
	// keystroke inference keys on).
	fH := Extract(window(23, 31), 150)
	fT := Extract(window(33, 41), 150)
	if fT.HighBand <= fH.HighBand {
		t.Fatalf("typing high-band %v ≤ hold high-band %v", fT.HighBand, fH.HighBand)
	}
	_ = holdW
}

func TestSeriesHelpers(t *testing.T) {
	rng := eventsim.NewRNG(3)
	sc := NewScene(rng)
	tl := &Timeline{}
	series := sc.Collect(tl, 100, 2)
	if got := series.MeanRate(); math.Abs(got-100) > 1 {
		t.Fatalf("MeanRate = %v", got)
	}
	times := series.Times()
	if times[0] != 0 || times[1] != 0.01 {
		t.Fatalf("Times head = %v", times[:2])
	}
	var empty Series
	if empty.MeanRate() != 0 {
		t.Fatal("empty MeanRate should be 0")
	}
}

func TestTimelineAt(t *testing.T) {
	rng := eventsim.NewRNG(1)
	tl := Figure5Timeline(rng)
	cases := map[float64]string{
		1: "on-ground", 10: "approach", 15: "pick-up",
		25: "hold", 35: "typing", 44: "on-ground",
	}
	for tt, want := range cases {
		if got := tl.Label(tt); got != want {
			t.Errorf("Label(%v) = %q, want %q", tt, got, want)
		}
	}
	act, local := tl.At(33)
	if act.Name() != "typing" || math.Abs(local-1) > 1e-9 {
		t.Fatalf("At(33) = %s, %v", act.Name(), local)
	}
}

func TestHampel(t *testing.T) {
	x := []float64{1, 1, 1, 1, 50, 1, 1, 1, 1}
	y := Hampel(x, 3, 3)
	if y[4] != 1 {
		t.Fatalf("spike not removed: %v", y[4])
	}
	for i, v := range y {
		if i != 4 && v != x[i] {
			t.Fatalf("non-outlier %d modified", i)
		}
	}
	// Degenerate inputs.
	if got := Hampel(nil, 3, 3); len(got) != 0 {
		t.Fatal("Hampel(nil) not empty")
	}
	if got := Hampel([]float64{5}, 0, 3); got[0] != 5 {
		t.Fatal("window<1 should copy input")
	}
}

func TestMedian(t *testing.T) {
	if median([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd median wrong")
	}
	if median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Fatal("even median wrong")
	}
	if median(nil) != 0 {
		t.Fatal("empty median should be 0")
	}
}

func TestMovingAverage(t *testing.T) {
	x := []float64{0, 0, 9, 0, 0}
	y := MovingAverage(x, 1)
	if y[2] != 3 {
		t.Fatalf("center = %v, want 3", y[2])
	}
	if y[0] != 0 || y[4] != 0 {
		t.Fatalf("edges = %v, %v", y[0], y[4])
	}
	// Constant signal unchanged.
	c := MovingAverage([]float64{5, 5, 5, 5}, 2)
	for _, v := range c {
		if v != 5 {
			t.Fatal("constant signal changed")
		}
	}
}

func TestStatsBasics(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(x) != 5 {
		t.Fatalf("Mean = %v", Mean(x))
	}
	if Std(x) != 2 {
		t.Fatalf("Std = %v", Std(x))
	}
	if Range(x) != 7 {
		t.Fatalf("Range = %v", Range(x))
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 || Range(nil) != 0 {
		t.Fatal("degenerate stats wrong")
	}
}

func TestGoertzelPicksTone(t *testing.T) {
	fs := 100.0
	n := 500
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 7 * float64(i) / fs)
	}
	p7 := Goertzel(x, fs, 7)
	p3 := Goertzel(x, fs, 3)
	if p7 < 100*p3 {
		t.Fatalf("Goertzel: P(7Hz)=%v not ≫ P(3Hz)=%v", p7, p3)
	}
	if Goertzel(nil, fs, 7) != 0 {
		t.Fatal("empty Goertzel should be 0")
	}
}

func TestDominantFrequency(t *testing.T) {
	fs := 150.0
	n := 1500
	x := make([]float64, n)
	for i := range x {
		x[i] = 10 + 2*math.Sin(2*math.Pi*4.0*float64(i)/fs)
	}
	got := DominantFrequency(x, fs, 0.5, 8, 60)
	if math.Abs(got-4.0) > 0.3 {
		t.Fatalf("DominantFrequency = %v, want ~4", got)
	}
}

func TestBreathingRateRecoverable(t *testing.T) {
	// The paper's open question: vital signs from ACK CSI. 16 BPM
	// chest motion should appear as a ~0.27 Hz dominant frequency.
	rng := eventsim.NewRNG(5)
	sc := NewScene(rng.Fork())
	tl := (&Timeline{}).Add(0, 60, Breathing(16))
	series := sc.Collect(tl, 50, 60)
	amp := MovingAverage(series.Amplitudes(10), 5)
	got := DominantFrequency(amp, 50, 0.1, 1.0, 90)
	want := 16.0 / 60
	if math.Abs(got-want) > 0.06 {
		t.Fatalf("breathing dominant freq = %.3f Hz, want %.3f", got, want)
	}
}

func TestClassifierSeparatesActivities(t *testing.T) {
	rng := eventsim.NewRNG(23)
	sc := NewScene(rng.Fork())
	fs := 150.0
	winLen := int(fs * 4)

	collect := func(act Activity, seed int64, secs float64) [][]float64 {
		scene := NewScene(eventsim.NewRNG(seed))
		tl := (&Timeline{}).Add(0, secs, act)
		series := scene.Collect(tl, fs, secs)
		amp := series.Amplitudes(17)
		var wins [][]float64
		for i := 0; i+winLen <= len(amp); i += winLen {
			wins = append(wins, amp[i:i+winLen])
		}
		return wins
	}
	train := map[string][][]float64{
		"on-ground": collect(OnGround(), 100, 24),
		"hold":      collect(Hold(eventsim.NewRNG(101)), 102, 24),
		"typing":    collect(Typing(eventsim.NewRNG(103)), 104, 24),
	}
	c := Train(train, fs)
	if len(c.labels) != 3 {
		t.Fatalf("labels = %v", c.labels)
	}
	test := map[string][][]float64{
		"on-ground": collect(OnGround(), 200, 16),
		"hold":      collect(Hold(eventsim.NewRNG(201)), 202, 16),
		"typing":    collect(Typing(eventsim.NewRNG(203)), 204, 16),
	}
	acc, cm := c.ConfusionMatrix(test, fs)
	if acc < 0.75 {
		t.Fatalf("held-out accuracy = %.2f, confusion = %v", acc, cm)
	}
	_ = sc
}

func TestClassifierEmpty(t *testing.T) {
	c := Train(nil, 100)
	if c.Classify([]float64{1, 2, 3}, 100) != "" {
		t.Fatal("empty classifier should return empty label")
	}
	acc, _ := c.ConfusionMatrix(nil, 100)
	if acc != 0 {
		t.Fatal("empty confusion accuracy should be 0")
	}
}

// Property: Hampel never increases the range of a series.
func TestHampelRangeProperty(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		x := make([]float64, len(raw))
		for i, v := range raw {
			x[i] = float64(v)
		}
		y := Hampel(x, 3, 3)
		return Range(y) <= Range(x)+1e-9 && len(y) == len(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: moving average preserves the mean of a constant-extended
// signal within tolerance and never exceeds the input range.
func TestMovingAverageBoundsProperty(t *testing.T) {
	f := func(raw []int8, w uint8) bool {
		if len(raw) == 0 {
			return true
		}
		x := make([]float64, len(raw))
		for i, v := range raw {
			x[i] = float64(v)
		}
		y := MovingAverage(x, int(w%10)+1)
		lo, hi := x[0], x[0]
		for _, v := range x {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		for _, v := range y {
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMeasure(b *testing.B) {
	sc := noiselessScene()
	st := State{Bodies: []Scatterer{{Pos: Vec3{-1, 0, 1}, Reflectivity: 0.8}}}
	for i := 0; i < b.N; i++ {
		sc.Measure(float64(i)/150, st)
	}
}

func BenchmarkExtract(b *testing.B) {
	rng := eventsim.NewRNG(9)
	sc := NewScene(rng)
	tl := (&Timeline{}).Add(0, 10, Typing(eventsim.NewRNG(10)))
	amp := sc.Collect(tl, 150, 4).Amplitudes(17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Extract(amp, 150)
	}
}

func TestEstimateDelayLoSOnly(t *testing.T) {
	// A scene with no walls: the delay estimate must match the LoS
	// distance almost exactly.
	sc := &Scene{
		Attacker:   Vec3{},
		DeviceRest: Vec3{X: 12},
		CenterHz:   phy.ChannelFreqMHz(phy.Band2GHz, 6) * 1e6,
	}
	s := sc.Measure(0, State{})
	d := EstimateDelay(s) * speedOfLight
	if math.Abs(d-12) > 0.2 {
		t.Fatalf("LoS-only range = %.2f m, want 12", d)
	}
}

func TestEstimateRangeWithMultipath(t *testing.T) {
	rng := eventsim.NewRNG(41)
	sc := NewScene(rng) // LoS 8.03 m plus wall reflections + noise
	tl := &Timeline{}
	series := sc.Collect(tl, 100, 3)
	got := EstimateRange(series)
	want := sc.Attacker.Dist(sc.DeviceRest)
	if math.Abs(got-want) > 3 {
		t.Fatalf("range = %.2f m, want ~%.2f", got, want)
	}
	if EstimateRange(nil) != 0 {
		t.Fatal("empty series should give 0")
	}
}

func TestSpectrogramShape(t *testing.T) {
	fs := 100.0
	x := make([]float64, 1000)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 5 * float64(i) / fs)
	}
	freqs := []float64{2, 5, 8}
	spec := Spectrogram(x, fs, 100, 50, freqs)
	if len(spec) != 19 {
		t.Fatalf("frames = %d, want 19", len(spec))
	}
	// The 5 Hz bin dominates in every frame.
	for ti, row := range spec {
		if row[1] < 10*row[0] || row[1] < 10*row[2] {
			t.Fatalf("frame %d: 5 Hz bin not dominant: %v", ti, row)
		}
	}
	// Degenerate inputs.
	if Spectrogram(x[:10], fs, 100, 50, freqs) != nil {
		t.Fatal("short input should give nil")
	}
	if Spectrogram(x, fs, 1, 50, freqs) != nil {
		t.Fatal("tiny window should give nil")
	}
}

func TestBandEnergy(t *testing.T) {
	spec := [][]float64{{1, 2, 3}, {4, 5, 6}}
	freqs := []float64{1, 5, 9}
	env := BandEnergy(spec, freqs, 2, 6)
	if len(env) != 2 || env[0] != 2 || env[1] != 5 {
		t.Fatalf("env = %v", env)
	}
}

// TestKeystrokeTimesOnBursts: synthetic bursts of high-frequency
// oscillation are located in time.
func TestKeystrokeTimesOnBursts(t *testing.T) {
	fs := 150.0
	n := int(fs * 12)
	x := make([]float64, n)
	for i := range x {
		// Carrier with mild measurement noise (a perfectly constant
		// signal would trip Hampel's MAD=0 degenerate rule).
		x[i] = 10 + 0.02*math.Sin(13.7*float64(i))
	}
	trueBursts := []int{int(2 * fs), int(5 * fs), int(9 * fs)}
	for _, b := range trueBursts {
		for i := b; i < b+int(fs/2) && i < n; i++ {
			x[i] += 0.5 * math.Sin(2*math.Pi*5*float64(i)/fs)
		}
	}
	got := KeystrokeTimes(x, fs, 3)
	if len(got) != len(trueBursts) {
		t.Fatalf("detected %d bursts (%v), want %d", len(got), got, len(trueBursts))
	}
	for i, tb := range trueBursts {
		if d := got[i] - (tb + int(fs/4)); d < -int(fs) || d > int(fs) {
			t.Fatalf("burst %d located at %d, want near %d", i, got[i], tb)
		}
	}
}

// TestKeystrokeTimesOnRealTyping: the typing activity model produces
// a plausible keystroke count over a 10 s window.
func TestKeystrokeTimesOnRealTyping(t *testing.T) {
	rng := eventsim.NewRNG(77)
	sc := NewScene(rng.Fork())
	tl := (&Timeline{}).Add(0, 10, Typing(rng.Fork()))
	amp := sc.Collect(tl, 150, 10).Amplitudes(17)
	got := KeystrokeTimes(amp, 150, 2)
	// The burst gate is on roughly half the time with strikes at
	// ~3.5 Hz; crude detection should still find several distinct
	// events — and none on a quiet signal.
	if len(got) < 3 {
		t.Fatalf("typing bursts detected = %d, want several", len(got))
	}
	quiet := sc.Collect(&Timeline{}, 150, 10).Amplitudes(17)
	if q := KeystrokeTimes(quiet, 150, 6); len(q) > 2 {
		t.Fatalf("quiet signal produced %d keystrokes", len(q))
	}
}
