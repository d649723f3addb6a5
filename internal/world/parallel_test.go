package world

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"politewifi/internal/eventsim"
	"politewifi/internal/telemetry"
)

// parallelTestConfig is small enough for CI but large enough to span
// several stops per worker.
func parallelTestConfig() Config {
	return Config{
		Seed:              99,
		Scale:             0.02, // ~76 APs, ~30 clients, ~20 stops
		HouseholdsPerStop: 4,
		DwellPerChannel:   600 * eventsim.Millisecond,
		VehicleSpeedKmh:   40,
	}
}

// TestWardriveParallelDeterminism is the seed-stability regression
// test: Run with Workers: 1 and Workers: N must produce an identical
// Result — vendor maps, every counter, the NonResponders slice in
// order — and byte-identical merged telemetry reports. CI runs this
// under -race, which also exercises the worker pool for data races.
func TestWardriveParallelDeterminism(t *testing.T) {
	cfgSeq := parallelTestConfig()
	cfgSeq.Workers = 1
	regSeq := telemetry.NewRegistry(nil)
	cfgSeq.Metrics = regSeq

	cfgPar := parallelTestConfig()
	cfgPar.Workers = 4
	regPar := telemetry.NewRegistry(nil)
	cfgPar.Metrics = regPar

	resSeq := Run(cfgSeq)
	resPar := Run(cfgPar)

	if !reflect.DeepEqual(resSeq, resPar) {
		t.Fatalf("parallel result diverged from sequential:\nseq: %+v\npar: %+v", resSeq, resPar)
	}
	if resSeq.Total() == 0 {
		t.Fatal("determinism check ran on an empty drive")
	}

	var bufSeq, bufPar bytes.Buffer
	if err := regSeq.Snapshot().WriteJSON(&bufSeq); err != nil {
		t.Fatal(err)
	}
	if err := regPar.Snapshot().WriteJSON(&bufPar); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufSeq.Bytes(), bufPar.Bytes()) {
		t.Fatalf("telemetry reports differ between Workers:1 and Workers:4:\nseq:\n%s\npar:\n%s",
			bufSeq.String(), bufPar.String())
	}
	if c := regSeq.Snapshot().Counter("sched.events_fired"); c == nil || c.Value == 0 {
		t.Fatal("merged registry recorded no scheduler events")
	}
	if c := regSeq.Snapshot().Counter("pipeline.devices_discovered"); c == nil || c.Value == 0 {
		t.Fatal("merged registry recorded no discoveries")
	}
}

// TestWardriveChromeTraceStable asserts the rendered Chrome trace is
// byte-identical across worker counts: per-stop tracers merge in stop
// order with flow/exchange IDs rebased, and equal-timestamp spans
// keep their deterministic recording order through the stable sort.
// It also checks the causal-exchange guarantee: every probe exchange
// is a connected tree of at least a probe tx plus a verdict event.
func TestWardriveChromeTraceStable(t *testing.T) {
	run := func(workers int) *telemetry.Tracer {
		cfg := parallelTestConfig()
		cfg.Workers = workers
		cfg.Trace = telemetry.NewTracer()
		Run(cfg)
		return cfg.Trace
	}
	trSeq := run(1)
	trPar := run(4)

	var bufSeq, bufPar bytes.Buffer
	if err := trSeq.WriteChromeJSON(&bufSeq); err != nil {
		t.Fatal(err)
	}
	if err := trPar.WriteChromeJSON(&bufPar); err != nil {
		t.Fatal(err)
	}
	if bufSeq.Len() == 0 || trSeq.Len() == 0 {
		t.Fatal("trace is empty; the stability check is vacuous")
	}
	if !bytes.Equal(bufSeq.Bytes(), bufPar.Bytes()) {
		t.Fatalf("Chrome trace differs between Workers:1 and Workers:4 (%d vs %d bytes)",
			bufSeq.Len(), bufPar.Len())
	}

	// Every span of an exchange carries one "exchange" flow event
	// with the exchange's ID.
	var events []struct {
		Cat string
		ID  string
	}
	if err := json.Unmarshal(bufSeq.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	spans := make(map[string]int)
	for _, ev := range events {
		if ev.Cat == "exchange" {
			spans[ev.ID]++
		}
	}
	if len(spans) == 0 {
		t.Fatal("drive recorded no probe exchanges")
	}
	for id, n := range spans {
		if n < 2 {
			t.Fatalf("exchange %s has %d span(s); every probed target must link "+
				"probe→(response|retry|timeout)→verdict", id, n)
		}
	}
}

// TestWardriveReplayStable asserts that the same configuration run
// twice (same worker count) replays bit-identically — the base
// property the cross-worker-count test builds on.
func TestWardriveReplayStable(t *testing.T) {
	cfg := parallelTestConfig()
	cfg.Workers = 3
	a := Run(cfg)
	b := Run(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replay diverged:\nfirst:  %+v\nsecond: %+v", a, b)
	}
}

// TestNonRespondersDeterministicOrder starves the drive of probe time
// so some devices are discovered but never probed, then asserts the
// NonResponders ordering is identical across worker counts and
// replays — the "diff clean" guarantee. A short dwell alone no longer
// starves it (the mop-up visits finish every owed budget at the
// default 2 ms probe interval), so the probe interval is slowed too.
func TestNonRespondersDeterministicOrder(t *testing.T) {
	cfg := parallelTestConfig()
	cfg.DwellPerChannel = 120 * eventsim.Millisecond
	cfg.ProbeInterval = 50 * eventsim.Millisecond // too slow to probe everyone

	cfg.Workers = 1
	seq := Run(cfg)
	cfg.Workers = 4
	par := Run(cfg)

	if len(seq.NonResponders) == 0 {
		t.Fatal("starved drive still probed everyone; the ordering check would be vacuous")
	}
	if !reflect.DeepEqual(seq.NonResponders, par.NonResponders) {
		t.Fatalf("NonResponders order diverged:\nseq: %+v\npar: %+v",
			seq.NonResponders, par.NonResponders)
	}
}

// TestWorkersDefaulting pins the Workers semantics: 0 means "use the
// machine", negative is treated the same, and any value yields the
// same census.
func TestWorkersDefaulting(t *testing.T) {
	cfg := parallelTestConfig()
	cfg.Scale = 0.008
	cfg.Workers = 0
	auto := Run(cfg)
	cfg.Workers = -3
	neg := Run(cfg)
	cfg.Workers = 64 // far more workers than stops
	many := Run(cfg)
	if !reflect.DeepEqual(auto, neg) || !reflect.DeepEqual(auto, many) {
		t.Fatal("worker-count defaulting changed the census")
	}
}
