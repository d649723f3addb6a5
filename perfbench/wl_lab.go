package main

import (
	"errors"
	"fmt"
	"time"

	"politewifi/internal/eventsim"
	"politewifi/internal/experiments"
)

// The lab workload: the paper's non-drive experiments, once each in
// sequence. It is the control for drive-side optimisations — csi,
// power and crypto80211 carry it, phy and radio fan-out barely do.

// labRun is one experiment of the pass and how to run it.
type labRun struct {
	name string
	run  func(seed int64) any
}

var labPass = []labRun{
	{"figure2", func(s int64) any { return experiments.Figure2(s) }},
	{"table1", func(s int64) any { return experiments.Table1(s) }},
	{"figure3", func(s int64) any { return experiments.Figure3(s) }},
	{"sifs", func(s int64) any { return experiments.SIFSAnalysis(s) }},
	{"figure5", func(s int64) any { return experiments.Figure5(s) }},
	{"figure6", func(s int64) any { return experiments.Figure6(s, 6*eventsim.Second) }},
	{"sensing", func(s int64) any { return experiments.Sensing(s) }},
	{"pmf", func(s int64) any { return experiments.PMFStudy(s) }},
	{"vitalsigns", func(s int64) any { return experiments.VitalSigns(s) }},
	{"localization", func(s int64) any { return experiments.Localization(s) }},
	{"occupancy", func(s int64) any { return experiments.Occupancy(s) }},
	{"ratesweep", func(s int64) any { return experiments.SensingRateSweep(s) }},
	{"devicesweep", func(s int64) any { return experiments.DeviceSweep(s) }},
}

// runLabPass runs the experiments once each, gating each on its
// finding, and returns each experiment's wall time.
func runLabPass(seed int64, pass []labRun, out *outcome) map[string]time.Duration {
	took := make(map[string]time.Duration, len(pass))
	for _, e := range pass {
		t := time.Now()
		res := e.run(seed)
		took[e.name] = time.Since(t)
		if err := labChecks[e.name](res); err != nil {
			out.gate(fmt.Errorf("%s: %w", e.name, err))
		} else {
			out.gate(nil)
		}
	}
	return took
}

func runLab(opts options, traced bool) (*outcome, error) {
	// Set-up warms the code paths with the quick experiments: every
	// one that finishes in a few tens of milliseconds.
	var warm []labRun
	for _, e := range labPass {
		switch e.name {
		case "figure2", "table1", "figure3", "sifs", "pmf", "localization", "occupancy", "sensing":
			warm = append(warm, e)
		}
	}
	out := &outcome{}
	s, err := runSession(opts.untracedSeconds(traced), 1, func(int) error {
		var o outcome
		runLabPass(opts.seed, warm, &o)
		if o.failed > 0 {
			return errors.New(o.failures[0])
		}
		return nil
	}, func() []float64 {
		t := time.Now()
		runLabPass(opts.seed, labPass, out)
		return []float64{time.Since(t).Seconds()}
	})
	if err != nil {
		return nil, err
	}
	if !traced {
		out.values = endToEndValues(s)
		return out, nil
	}

	out.values = make(map[string]float64)
	var took map[string]time.Duration
	d, err := profiled(out.values, func() { took = runLabPass(opts.seed, labPass, out) })
	if err != nil {
		return nil, err
	}
	for name, t := range took {
		out.values["experiments."+name+"_ms"] = millis(t)
	}
	finishLedger(out.values, d.cycles, d.wall.Seconds(), median(s.walls))
	return out, nil
}
