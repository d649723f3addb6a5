package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"politewifi/internal/eventsim"
	"politewifi/internal/experiments"
	"politewifi/internal/world"
)

// cmdExperiments regenerates every table and figure of the paper in
// one run and optionally writes machine-readable artifacts (CSV
// series, pcap captures) to an output directory:
//
//	politewifi experiments [-seed N] [-scale F] [-quick] [-out DIR] [-only NAME]
//
// -scale scales the Table 2 wardrive census (1.0 = the full 5,328
// devices; the full run takes a few seconds). -quick shrinks the
// slow experiments for a fast smoke run. -only runs a single
// experiment by name (figure2, table1, figure3, sifs, table2,
// figure5, figure6, battery, sensing, pmf, vitals, localization,
// occupancy, ratesweep, devicesweep, losssweep). The loss sweep
// repeats the wardrive once per channel loss rate, so it is opt-in:
// pass -losssweep (or -only losssweep) to include it.
func cmdExperiments(args []string) {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	seed := fs.Int64("seed", 20201104, "simulation seed")
	scale := fs.Float64("scale", 1.0, "Table 2 census scale (1.0 = 5,328 devices)")
	workers := fs.Int("workers", 0, "wardrive stop workers (0 = all cores)")
	quick := fs.Bool("quick", false, "shrink slow experiments")
	out := fs.String("out", "", "directory for CSV/pcap artifacts")
	only := fs.String("only", "", "run a single experiment by name")
	lossSweep := fs.Bool("losssweep", false, "include the wardrive loss sweep (one drive per loss rate)")
	progress := fs.Bool("progress", false, "render a live wardrive progress meter on stderr")
	fs.Parse(args)

	if *quick {
		if *scale == 1.0 {
			*scale = 0.05
		}
	}
	measure := 20 * eventsim.Second
	if *quick {
		measure = 8 * eventsim.Second
	}

	run := func(name string, f func()) {
		if *only != "" && *only != name {
			return
		}
		fmt.Printf("══════ %s ══════\n", name)
		f()
		fmt.Println()
	}

	var peakMW float64 = 360 // paper value; replaced by the measured one

	run("figure2", func() {
		r := experiments.Figure2(*seed)
		fmt.Print(r.Render())
		if *out != "" {
			writeArtifact(*out, "figure2.pcap", func(f *os.File) error {
				return r.Capture.WritePcap(f)
			})
		}
	})
	run("table1", func() { fmt.Print(experiments.Table1(*seed).Render()) })
	run("figure3", func() {
		r := experiments.Figure3(*seed)
		fmt.Print(r.Render())
		if *out != "" {
			writeArtifact(*out, "figure3.pcap", func(f *os.File) error {
				return r.Capture.WritePcap(f)
			})
		}
	})
	run("sifs", func() { fmt.Print(experiments.SIFSAnalysis(*seed).Render()) })
	run("table2", func() {
		cfg := world.DefaultConfig()
		cfg.Seed = *seed
		cfg.Scale = *scale
		cfg.Workers = *workers
		if *progress {
			cfg.Progress = world.NewProgressPrinter(os.Stderr, time.Now)
		}
		fmt.Print(experiments.Table2WithConfig(cfg).Render())
	})
	run("figure5", func() {
		r := experiments.Figure5(*seed)
		fmt.Print(r.Render())
		if *out != "" {
			writeArtifact(*out, "figure5.csv", func(f *os.File) error {
				fmt.Fprintln(f, "t_seconds,amplitude_subcarrier17")
				amp := r.Series.Amplitudes(r.Subcarrier)
				for i, t := range r.Series.Times() {
					fmt.Fprintf(f, "%.4f,%.6f\n", t, amp[i])
				}
				return nil
			})
		}
	})
	run("figure6", func() {
		r := experiments.Figure6(*seed, measure)
		fmt.Print(r.Render())
		peakMW = r.PeakMW
		if *out != "" {
			writeArtifact(*out, "figure6.csv", func(f *os.File) error {
				fmt.Fprintln(f, "rate_fps,power_mw")
				for _, p := range r.Points {
					fmt.Fprintf(f, "%.0f,%.2f\n", p.RateHz, p.PowerMW)
				}
				return nil
			})
		}
	})
	run("battery", func() { fmt.Print(experiments.BatteryLife(peakMW).Render()) })
	run("sensing", func() { fmt.Print(experiments.Sensing(*seed).Render()) })
	run("pmf", func() { fmt.Print(experiments.PMFStudy(*seed).Render()) })
	run("vitals", func() { fmt.Print(experiments.VitalSigns(*seed).Render()) })
	run("localization", func() { fmt.Print(experiments.Localization(*seed).Render()) })
	run("occupancy", func() { fmt.Print(experiments.Occupancy(*seed).Render()) })
	run("ratesweep", func() { fmt.Print(experiments.SensingRateSweep(*seed).Render()) })
	run("devicesweep", func() { fmt.Print(experiments.DeviceSweep(*seed).Render()) })
	if *lossSweep || *only == "losssweep" {
		run("losssweep", func() {
			cfg := world.DefaultConfig()
			cfg.Seed = *seed
			cfg.Scale = *scale
			cfg.Workers = *workers
			r := experiments.LossSweep(cfg, nil)
			fmt.Print(r.Render())
			if *out != "" {
				writeArtifact(*out, "losssweep.csv", func(f *os.File) error {
					fmt.Fprintln(f, "loss_rate,discovered,responded,inconclusive,silent,response_rate,census_recall")
					for _, p := range r.Points {
						fmt.Fprintf(f, "%.2f,%d,%d,%d,%d,%.4f,%.4f\n",
							p.LossRate, p.Discovered, p.Responded, p.Inconclusive, p.Silent,
							p.ResponseRate, p.CensusRecall)
					}
					return nil
				})
			}
		})
	}
}

func writeArtifact(dir, name string, write func(*os.File) error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return
	}
	defer f.Close()
	if err := write(f); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: write %s: %v\n", path, err)
		return
	}
	fmt.Printf("wrote %s\n", path)
}
