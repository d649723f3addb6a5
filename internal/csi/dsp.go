package csi

import (
	"math"
	"sort"
)

// Hampel replaces outliers with the window median: for each point,
// if it deviates from the median of its window by more than nsigma
// scaled median absolute deviations it is replaced. Standard first
// stage of WiFi sensing pipelines (removes per-packet glitches).
func Hampel(x []float64, window int, nsigma float64) []float64 {
	if window < 1 || len(x) == 0 {
		return append([]float64(nil), x...)
	}
	out := make([]float64, len(x))
	buf := make([]float64, 0, 2*window+1)
	for i := range x {
		lo, hi := i-window, i+window+1
		if lo < 0 {
			lo = 0
		}
		if hi > len(x) {
			hi = len(x)
		}
		buf = append(buf[:0], x[lo:hi]...)
		med := median(buf)
		// MAD scaled to be consistent with a Gaussian sigma.
		for j := range buf {
			buf[j] = math.Abs(buf[j] - med)
		}
		mad := 1.4826 * median(buf)
		dev := math.Abs(x[i] - med)
		// MAD of 0 means the window is essentially constant: any
		// deviation at all is an outlier.
		if (mad > 0 && dev > nsigma*mad) || (mad == 0 && dev > 0) {
			out[i] = med
		} else {
			out[i] = x[i]
		}
	}
	return out
}

// median sorts buf in place and returns its median.
func median(buf []float64) float64 {
	sort.Float64s(buf)
	n := len(buf)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return buf[n/2]
	}
	return (buf[n/2-1] + buf[n/2]) / 2
}

// MovingAverage smooths x with a centered window of the given
// half-width (effective length 2w+1, truncated at the edges).
func MovingAverage(x []float64, w int) []float64 {
	if w < 1 || len(x) == 0 {
		return append([]float64(nil), x...)
	}
	out := make([]float64, len(x))
	for i := range x {
		lo, hi := i-w, i+w+1
		if lo < 0 {
			lo = 0
		}
		if hi > len(x) {
			hi = len(x)
		}
		sum := 0.0
		for _, v := range x[lo:hi] {
			sum += v
		}
		out[i] = sum / float64(hi-lo)
	}
	return out
}

// Mean returns the arithmetic mean.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Variance returns the population variance.
func Variance(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	s := 0.0
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(len(x))
}

// Std returns the population standard deviation.
func Std(x []float64) float64 { return math.Sqrt(Variance(x)) }

// SlidingStd computes the standard deviation in a centered window of
// half-width w at every point — the workhorse for activity
// segmentation.
func SlidingStd(x []float64, w int) []float64 {
	out := make([]float64, len(x))
	for i := range x {
		lo, hi := i-w, i+w+1
		if lo < 0 {
			lo = 0
		}
		if hi > len(x) {
			hi = len(x)
		}
		out[i] = Std(x[lo:hi])
	}
	return out
}

// Range returns max−min.
func Range(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	lo, hi := x[0], x[0]
	for _, v := range x {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return hi - lo
}

// Goertzel computes the signal power at frequency f (Hz) for a
// series sampled at fs — a single-bin DFT, ideal for probing a few
// frequencies (typing cadence, breathing rate) without a full FFT.
func Goertzel(x []float64, fs, f float64) float64 {
	if len(x) == 0 || fs <= 0 {
		return 0
	}
	w := 2 * math.Pi * f / fs
	coeff := 2 * math.Cos(w)
	var s0, s1, s2 float64
	for _, v := range x {
		s0 = v + coeff*s1 - s2
		s2, s1 = s1, s0
	}
	power := s1*s1 + s2*s2 - coeff*s1*s2
	return power / float64(len(x))
}

// DominantFrequency scans [fmin, fmax] in nbins steps and returns the
// frequency with the most Goertzel power, after mean removal.
func DominantFrequency(x []float64, fs, fmin, fmax float64, nbins int) float64 {
	if nbins < 2 || len(x) == 0 {
		return 0
	}
	centered := make([]float64, len(x))
	m := Mean(x)
	for i, v := range x {
		centered[i] = v - m
	}
	bestF, bestP := fmin, -1.0
	for i := 0; i < nbins; i++ {
		f := fmin + (fmax-fmin)*float64(i)/float64(nbins-1)
		p := Goertzel(centered, fs, f)
		if p > bestP {
			bestF, bestP = f, p
		}
	}
	return bestF
}
