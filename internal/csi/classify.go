package csi

import (
	"fmt"
	"math"
	"sort"
)

// Features summarises a CSI amplitude window for classification. The
// four features separate the Figure 5 activities: quiet windows have
// tiny Std; pick-up has huge Range; typing has high-frequency energy
// that holding lacks.
type Features struct {
	Std      float64 // overall variability
	Range    float64 // peak-to-peak swing
	DomFreq  float64 // dominant fluctuation frequency, Hz
	HighBand float64 // power above 2.5 Hz relative to total
}

// Extract computes features for an amplitude window sampled at fs,
// normalising out the mean amplitude so distance doesn't masquerade
// as activity.
func Extract(x []float64, fs float64) Features {
	m := Mean(x)
	if m == 0 {
		m = 1
	}
	norm := make([]float64, len(x))
	for i, v := range x {
		norm[i] = v / m
	}
	var high, total float64
	for f := 0.5; f <= 8; f += 0.5 {
		p := Goertzel(centered(norm), fs, f)
		total += p
		if f > 2.5 {
			high += p
		}
	}
	hb := 0.0
	if total > 0 {
		hb = high / total
	}
	return Features{
		Std:      Std(norm),
		Range:    Range(norm),
		DomFreq:  DominantFrequency(norm, fs, 0.2, 8, 40),
		HighBand: hb,
	}
}

func centered(x []float64) []float64 {
	m := Mean(x)
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = v - m
	}
	return out
}

// vec converts features to a slice for distance math.
func (f Features) vec() []float64 {
	return []float64{f.Std, f.Range, f.DomFreq, f.HighBand}
}

// Classifier is a nearest-centroid activity classifier over
// z-normalised feature space — deliberately simple: the paper's point
// is that the signal is there, not that the model is fancy.
type Classifier struct {
	labels    []string
	centroids [][]float64
	mean, std []float64
}

// Train builds a classifier from labelled amplitude windows.
func Train(samples map[string][][]float64, fs float64) *Classifier {
	labels := make([]string, 0, len(samples))
	for l := range samples {
		labels = append(labels, l)
	}
	sort.Strings(labels)

	var all [][]float64
	perLabel := make(map[string][][]float64)
	for _, l := range labels {
		for _, win := range samples[l] {
			v := Extract(win, fs).vec()
			perLabel[l] = append(perLabel[l], v)
			all = append(all, v)
		}
	}
	if len(all) == 0 {
		return &Classifier{}
	}
	dim := len(all[0])
	mean := make([]float64, dim)
	std := make([]float64, dim)
	for _, v := range all {
		for i, x := range v {
			mean[i] += x
		}
	}
	for i := range mean {
		mean[i] /= float64(len(all))
	}
	for _, v := range all {
		for i, x := range v {
			d := x - mean[i]
			std[i] += d * d
		}
	}
	for i := range std {
		std[i] = math.Sqrt(std[i] / float64(len(all)))
		if std[i] == 0 {
			std[i] = 1
		}
	}
	c := &Classifier{labels: labels, mean: mean, std: std}
	for _, l := range labels {
		cent := make([]float64, dim)
		for _, v := range perLabel[l] {
			for i, x := range v {
				cent[i] += (x - mean[i]) / std[i]
			}
		}
		for i := range cent {
			cent[i] /= float64(len(perLabel[l]))
		}
		c.centroids = append(c.centroids, cent)
	}
	return c
}

// Classify labels an amplitude window.
func (c *Classifier) Classify(x []float64, fs float64) string {
	if len(c.labels) == 0 {
		return ""
	}
	v := Extract(x, fs).vec()
	z := make([]float64, len(v))
	for i, x := range v {
		z[i] = (x - c.mean[i]) / c.std[i]
	}
	best, bestD := 0, math.MaxFloat64
	for i, cent := range c.centroids {
		d := 0.0
		for j := range cent {
			dd := z[j] - cent[j]
			d += dd * dd
		}
		if d < bestD {
			best, bestD = i, d
		}
	}
	return c.labels[best]
}

// ConfusionMatrix evaluates the classifier on labelled windows and
// returns accuracy plus a label×label count matrix.
func (c *Classifier) ConfusionMatrix(test map[string][][]float64, fs float64) (float64, map[string]map[string]int) {
	cm := make(map[string]map[string]int)
	correct, total := 0, 0
	for truth, wins := range test {
		if cm[truth] == nil {
			cm[truth] = make(map[string]int)
		}
		for _, w := range wins {
			got := c.Classify(w, fs)
			cm[truth][got]++
			if got == truth {
				correct++
			}
			total++
		}
	}
	if total == 0 {
		return 0, cm
	}
	return float64(correct) / float64(total), cm
}

// String renders the classifier for debugging.
func (c *Classifier) String() string {
	return fmt.Sprintf("nearest-centroid over %v", c.labels)
}
