package main

import (
	"time"

	"politewifi/internal/eventsim"
	"politewifi/internal/telemetry"
	"politewifi/internal/world"
)

// The drive workload: the full-scale Table 2 census (world.Run at
// scale 1.0, pristine channel, no telemetry, stream, trace or record)
// on a private pool of opts.workers workers — the ROADMAP's reference
// measurement. The traced run repeats it through a Submit executor
// with the telemetry registry attached, and its census must equal the
// untraced run's.

func driveConfig(seed int64, scale float64, workers int) world.Config {
	cfg := world.DefaultConfig()
	cfg.Seed = seed
	cfg.Scale = scale
	cfg.Workers = workers
	return cfg
}

// driveSetup builds a full city and runs a 2%-scale warm-up drive of
// it; set-up k uses city jobSeed(seed, k).
func driveSetup(opts options) func(k int) error {
	return func(k int) error {
		seed := jobSeed(opts.seed, k)
		world.BuildCity(eventsim.NewRNG(seed), 1)
		return checkCensus(world.Run(driveConfig(seed, 0.02, opts.workers)))
	}
}

func runDrive(opts options, traced bool) (*outcome, error) {
	out := &outcome{}
	cfg := driveConfig(opts.seed, 1, opts.workers)
	var ref *world.Result
	// A set-up takes a few per cent of a drive, so each round sets up
	// three times to sample set-up as often as the other workloads do.
	s, err := runSession(opts.untracedSeconds(traced), 3, driveSetup(opts), func() []float64 {
		t := time.Now()
		res := world.Run(cfg)
		took := time.Since(t)
		err := checkCensus(res)
		if err == nil && ref != nil {
			err = checkSameDigest("repeated drive", ref, res)
		}
		if ref == nil {
			ref = res
		}
		out.gate(err)
		return []float64{took.Seconds()}
	})
	if err != nil {
		return nil, err
	}
	if !traced {
		out.values = endToEndValues(s)
		return out, nil
	}

	// The traced job: the same drive through a Submit executor, with
	// the telemetry registry attached and the CPU profile running.
	out.values = make(map[string]float64)
	reg := telemetry.NewRegistry(nil)
	tcfg := cfg
	tcfg.Metrics = reg
	tracer := newStopTracer(opts.workers)
	tracer.attach(&tcfg)
	var res *world.Result
	d, err := profiled(out.values, func() { res = world.Run(tcfg) })
	tracer.close()
	if err != nil {
		return nil, err
	}
	tracer.addLedger(out.values)
	err = checkCensus(res)
	if err == nil {
		err = checkSameDigest("traced (Submit) vs untraced (Workers) drive", ref, res)
	}
	out.gate(err)
	addCounters(out.values, reg.Snapshot())
	finishLedger(out.values, d.cycles, d.wall.Seconds(), median(s.walls))
	return out, nil
}

// addCounters adds the simulator's own telemetry counters to the
// ledger under layer names, with the ratios derived from them.
func addCounters(values map[string]float64, rep telemetry.Report) {
	c := func(name string) float64 {
		if s := rep.Counter(name); s != nil {
			return float64(s.Value)
		}
		return 0
	}
	values["eventsim.events"] = c("sched.events_fired")
	for _, o := range eventOrigins {
		values["eventsim.events."+o] = c("sched.fired." + o)
	}
	for _, g := range rep.Gauges {
		if g.Name == "sched.queue_high_water" {
			values["eventsim.queue_high_water"] = g.Max
		}
	}
	values["radio.transmissions"] = c("medium.transmissions")
	values["radio.deliveries"] = c("medium.deliveries")
	values["radio.fanout"] = ratio(c("medium.deliveries"), c("medium.transmissions"))
	values["radio.collisions"] = c("medium.collisions")
	values["mac.acks"] = c("mac.acks.data") + c("mac.acks.mgmt") + c("mac.acks.other")
	values["mac.deauths"] = c("mac.deauths_sent")
	values["core.injected"] = c("core.injected")
	values["core.probes"] = c("pipeline.probes_injected")
	values["core.probe_yield"] = ratio(c("pipeline.verdicts.ack"), c("pipeline.probes_injected"))
}

// finishLedger derives the rows that need the whole traced run:
// gcCycles ran during the traced work, whose job took tracedWall
// seconds against the untraced jobs' median untracedWall.
func finishLedger(values map[string]float64, gcCycles uint64, tracedWall, untracedWall float64) {
	values["eventsim.ns_per_event"] = ratio(values["eventsim.cpu_s"]*1e9, values["eventsim.events"])
	values["gc.cycles"] = float64(gcCycles)
	values["trace.overhead_frac"] = ratio(tracedWall, untracedWall) - 1
}

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
