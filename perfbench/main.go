// Command perfbench is the repository's end-to-end benchmark. It runs
// one of four workloads against the simulator's public package APIs
// (world.Run, serve.New over HTTP, replay.Recorder/replay.Load and
// the experiments package), checks that every output is correct, and
// prints one JSON result line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end table (endToEnd); with
// -trace 1 the same workload runs again with tracing on and the
// metrics are the per-layer ledger (perLayer). Nothing inside the
// simulator is instrumented: per-layer numbers come from a CPU profile
// of this process attributed to the leaf-most sim package on each
// stack (ledger.go), from spans this program records around the calls
// it makes (spans.go), and from the telemetry counters the simulator
// already exports.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload drive --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees; every workload reports
// every one of them. A "job" is the workload's unit of work: one
// full-scale drive, one record→load→replay cycle, one daemon job, or
// one pass over the lab experiments.
var endToEnd = []metricDef{
	{"setup_s", "s"},      // median set-up, repeated before every round of timed work
	{"wall_s", "s"},       // median wall time of one job
	{"cpu_s", "s"},        // process user+sys CPU per job
	{"alloc_mb", "MB"},    // heap bytes allocated per job
	{"jobs_per_s", "1/s"}, // jobs completed per second of timed work
}

// simLayers are the internal packages the profile attributes CPU to,
// named by their last path element.
var simLayers = []string{
	"arena", "core", "crypto80211", "csi", "dot11", "eventsim", "experiments",
	"faults", "jobspec", "mac", "oui", "phy", "power", "radio", "replay",
	"rt", "serve", "stream", "telemetry", "trace", "world",
}

// eventOrigins are the scheduler's origin labels (sched.fired.<origin>).
var eventOrigins = []string{"radio.rx", "radio.txdone", "untagged"}

// perLayer is the traced run's ledger. Every workload reports every
// row; a layer the workload does not exercise reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"world.stops", "count"},
		{"world.stop_busy_ms_p50", "ms"},
		{"world.stop_busy_ms_p99", "ms"},
		{"world.stop_wait_ms_p99", "ms"},
		{"world.emit_wait_ms_p99", "ms"},
		{"world.pool_busy_frac", "frac"},
		{"eventsim.events", "count"},
	}
	for _, o := range eventOrigins {
		defs = append(defs, metricDef{"eventsim.events." + o, "count"})
	}
	defs = append(defs,
		metricDef{"eventsim.queue_high_water", "count"},
		metricDef{"eventsim.ns_per_event", "ns"},
		metricDef{"radio.transmissions", "count"},
		metricDef{"radio.deliveries", "count"},
		metricDef{"radio.fanout", "ratio"},
		metricDef{"radio.collisions", "count"},
		metricDef{"mac.acks", "count"},
		metricDef{"mac.deauths", "count"},
		metricDef{"core.injected", "count"},
		metricDef{"core.probes", "count"},
		metricDef{"core.probe_yield", "frac"},
		metricDef{"stream.records", "count"},
		metricDef{"stream.bytes", "B"},
		metricDef{"stream.write_ms", "ms"},
		metricDef{"replay.log_bytes", "B"},
		metricDef{"replay.records", "count"},
		metricDef{"replay.write_ms", "ms"},
		metricDef{"replay.record_s", "s"},
		metricDef{"replay.load_s", "s"},
		metricDef{"replay.replay_s", "s"},
		metricDef{"serve.handler_ms.submit", "ms"},
		metricDef{"serve.handler_ms.stream", "ms"},
		metricDef{"serve.handler_ms.result", "ms"},
		metricDef{"serve.queue_wait_ms_p50", "ms"},
		metricDef{"serve.rejected", "count"},
		metricDef{"serve.job_p90_ms", "ms"},
		metricDef{"serve.first_record_p50_ms", "ms"},
	)
	for _, e := range labPass {
		defs = append(defs, metricDef{"experiments." + e.name + "_ms", "ms"})
	}
	for _, l := range simLayers {
		defs = append(defs, metricDef{l + ".cpu_s", "s"})
	}
	return append(defs,
		metricDef{"gc.cpu_s", "s"},
		metricDef{"gc.cycles", "count"},
		metricDef{"bench.cpu_s", "s"},
		metricDef{"residual.cpu_s", "s"},
		metricDef{"profile.cpu_s", "s"},
		metricDef{"profile.coverage", "frac"},
		metricDef{"trace.overhead_frac", "frac"},
	)
}

// options are the parsed command-line settings a workload runs with.
type options struct {
	seed    int64
	seconds float64
	// workers bounds the drive's worker pool, the daemon's stop pool
	// and its client count: the load comes from one process using at
	// most this many workers, clients and connections.
	workers int
}

// untracedSeconds is the untraced session's budget: the whole run, or
// the first half of a traced run, where it is the baseline for
// trace.overhead_frac and the traced job follows it.
func (o options) untracedSeconds(traced bool) float64 {
	if traced {
		return o.seconds / 2
	}
	return o.seconds
}

// outcome is what a workload hands back: operations attempted and
// failed (a failed correctness gate is a failed operation), the gate
// failures for stderr, and the metric values by name.
type outcome struct {
	attempted, failed int
	failures          []string
	values            map[string]float64
}

func (o *outcome) gate(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		o.failures = append(o.failures, err.Error())
	}
}

type workloadFunc func(opts options, traced bool) (*outcome, error)

var workloads = map[string]workloadFunc{
	"drive":  runDrive,
	"replay": runReplay,
	"daemon": runDaemon,
	"lab":    runLab,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	workload := flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 30, "how long the run lasts, in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer ledger")
	workers := flag.Int("workers", runtime.NumCPU(), "drive workers, daemon pool size and daemon clients")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || *workers < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0, -workers ≥ 1, -trace 0|1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	out, err := run(options{seed: *seed, seconds: *seconds, workers: *workers}, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	for _, f := range out.failures {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", *workload, f)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: out.values[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
