// Package csi models channel state information the way the paper's
// keystroke-inference experiment measures it: the attacker injects
// fake frames, the victim's ACKs traverse a multipath channel, and
// the attacker extracts one complex value per OFDM subcarrier from
// each ACK. Human activity near the victim device perturbs the
// multipath geometry, which shows up as amplitude fluctuations —
// the signal of Figure 5.
//
// The package is pure computation: geometry → per-subcarrier channel
// response → time series → DSP → activity classification. The
// simulator's attack driver (package core) decides *when* samples are
// taken (one per received ACK).
package csi

import (
	"math"
	"math/cmplx"

	"politewifi/internal/eventsim"
	"politewifi/internal/phy"
)

// speedOfLight in m/s.
const speedOfLight = 299_792_458.0

// Vec3 is a point or displacement in meters.
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Norm returns the Euclidean length.
func (v Vec3) Norm() float64 { return math.Sqrt(v.X*v.X + v.Y*v.Y + v.Z*v.Z) }

// Dist returns the distance to w.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Norm() }

// Scatterer is a point reflector with a reflectivity coefficient.
type Scatterer struct {
	Pos          Vec3 // relative to the device's rest position
	Reflectivity float64
}

// Sample is one CSI measurement: the complex channel response per
// occupied subcarrier at measurement time T (seconds).
type Sample struct {
	T float64
	H [phy.NumSubcarriers]complex128
}

// Amplitude returns |H| for one CSI slot.
func (s Sample) Amplitude(slot int) float64 { return cmplx.Abs(s.H[slot]) }

// Phase returns arg(H) for one CSI slot.
func (s Sample) Phase(slot int) float64 { return cmplx.Phase(s.H[slot]) }

// Series is a CSI time series (one Sample per received ACK).
type Series []Sample

// Amplitudes extracts the amplitude track of one subcarrier.
func (s Series) Amplitudes(slot int) []float64 {
	out := make([]float64, len(s))
	for i, smp := range s {
		out[i] = smp.Amplitude(slot)
	}
	return out
}

// Times extracts the sample timestamps.
func (s Series) Times() []float64 {
	out := make([]float64, len(s))
	for i, smp := range s {
		out[i] = smp.T
	}
	return out
}

// MeanRate reports the average sampling rate in Hz.
func (s Series) MeanRate() float64 {
	if len(s) < 2 {
		return 0
	}
	span := s[len(s)-1].T - s[0].T
	if span <= 0 {
		return 0
	}
	return float64(len(s)-1) / span
}

// Scene is the physical environment between the attacker (Tx, which
// receives the ACKs — radio channels are reciprocal) and the victim
// device.
type Scene struct {
	// Attacker is the sensing radio's position.
	Attacker Vec3
	// DeviceRest is the victim device's rest position.
	DeviceRest Vec3
	// Walls are static virtual scatter points (room reflections).
	Walls []Scatterer
	// CenterHz is the channel center frequency.
	CenterHz float64
	// NoiseSigma is the relative measurement noise per subcarrier.
	NoiseSigma float64

	rng *eventsim.RNG
}

// NewScene builds the default through-the-wall sensing scene used by
// the Figure 5 experiment: attacker 8 m from the device on channel 6,
// four wall reflections, 2% measurement noise.
func NewScene(rng *eventsim.RNG) *Scene {
	return &Scene{
		Attacker:   Vec3{0, 0, 1},
		DeviceRest: Vec3{8, 0, 0.5},
		Walls: []Scatterer{
			{Pos: Vec3{4, 3, 1.5}, Reflectivity: 0.45},
			{Pos: Vec3{4, -3, 1.5}, Reflectivity: 0.4},
			{Pos: Vec3{-1, 1, 1}, Reflectivity: 0.3},
			{Pos: Vec3{9, 2, 2}, Reflectivity: 0.35},
		},
		CenterHz:   phy.ChannelFreqMHz(phy.Band2GHz, 6) * 1e6,
		NoiseSigma: 0.02,
		rng:        rng,
	}
}

// State is the instantaneous physical configuration produced by an
// activity: where the device is, and which body scatterers exist.
type State struct {
	// DeviceOffset displaces the device from its rest position
	// (picking the tablet up moves every propagation path at once).
	DeviceOffset Vec3
	// Bodies are body-part scatterers, positioned relative to the
	// device rest position.
	Bodies []Scatterer
}

// Measure computes the CSI sample for the given physical state at
// time t. Channel response per subcarrier k:
//
//	H(f_k) = Σ_paths a_p · exp(−j·2π·f_k·τ_p)
//
// with the line-of-sight path, one path per wall scatterer, and one
// per body scatterer; amplitudes follow 1/d spreading with a
// reflectivity factor for bounced paths.
func (sc *Scene) Measure(t float64, st State) Sample {
	dev := sc.DeviceRest.Add(st.DeviceOffset)

	type path struct {
		delay float64 // seconds
		gain  float64
	}
	var paths []path

	// Line of sight.
	dLOS := sc.Attacker.Dist(dev)
	if dLOS < 0.1 {
		dLOS = 0.1
	}
	paths = append(paths, path{dLOS / speedOfLight, 1 / dLOS})

	addBounce := func(p Vec3, refl float64) {
		d1 := sc.Attacker.Dist(p)
		d2 := p.Dist(dev)
		if d1 < 0.1 {
			d1 = 0.1
		}
		if d2 < 0.1 {
			d2 = 0.1
		}
		paths = append(paths, path{(d1 + d2) / speedOfLight, refl / (d1 * d2)})
	}
	for _, w := range sc.Walls {
		addBounce(w.Pos, w.Reflectivity)
	}
	for _, b := range st.Bodies {
		addBounce(sc.DeviceRest.Add(b.Pos), b.Reflectivity)
	}

	var s Sample
	s.T = t
	for slot := 0; slot < phy.NumSubcarriers; slot++ {
		f := sc.CenterHz + phy.SubcarrierOffsetHz(slot)
		var h complex128
		for _, p := range paths {
			phase := -2 * math.Pi * f * p.delay
			h += complex(p.gain, 0) * cmplx.Exp(complex(0, phase))
		}
		if sc.NoiseSigma > 0 && sc.rng != nil {
			h += complex(sc.rng.Normal(0, sc.NoiseSigma*cmplx.Abs(h)),
				sc.rng.Normal(0, sc.NoiseSigma*cmplx.Abs(h)))
		}
		s.H[slot] = h
	}
	return s
}

// Timeline schedules activities over wall-clock seconds.
type Timeline struct {
	entries []timelineEntry
}

type timelineEntry struct {
	start, end float64
	act        Activity
}

// Add appends an activity active during [start, end).
func (tl *Timeline) Add(start, end float64, act Activity) *Timeline {
	tl.entries = append(tl.entries, timelineEntry{start, end, act})
	return tl
}

// At returns the active activity and its local time, defaulting to
// OnGround outside every window.
func (tl *Timeline) At(t float64) (Activity, float64) {
	for _, e := range tl.entries {
		if t >= e.start && t < e.end {
			return e.act, t - e.start
		}
	}
	return OnGround(), 0
}

// Label returns the name of the activity active at t.
func (tl *Timeline) Label(t float64) string {
	act, _ := tl.At(t)
	return act.Name()
}

// MeasureAt samples the scene under the timeline's activity at time t.
func (sc *Scene) MeasureAt(tl *Timeline, t float64) Sample {
	act, local := tl.At(t)
	return sc.Measure(t, act.State(local))
}

// Collect samples the scene at the given rate over [0, duration),
// producing the full CSI series for a scripted experiment.
func (sc *Scene) Collect(tl *Timeline, rateHz, duration float64) Series {
	n := int(duration * rateHz)
	out := make(Series, 0, n)
	for i := 0; i < n; i++ {
		t := float64(i) / rateHz
		out = append(out, sc.MeasureAt(tl, t))
	}
	return out
}
