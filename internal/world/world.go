// Package world builds and drives the large-scale measurement study
// of the paper's §3: a city populated with access points and client
// devices drawn from the exact vendor census of Table 2, and a
// vehicle-mounted attacker that discovers every device, probes it
// with fake frames, and verifies the acknowledgements.
//
// Scale substitution (documented per DESIGN.md): a city-sized RF
// simulation with 5,328 concurrently beaconing radios would spend
// almost all its events on beacons nobody can hear. Because WiFi
// range (~100 m) is tiny compared to the drive (~tens of km),
// non-overlapping neighbourhoods are RF-independent; the drive is
// therefore executed as a sequence of stops, each simulated with its
// own medium containing just the local households plus the attacker.
// The paper's per-device experiment (discover → inject → verify ACK)
// is bit-identical inside each neighbourhood.
package world

import (
	"fmt"
	"runtime"
	"sync"

	"politewifi/internal/arena"
	"politewifi/internal/core"
	"politewifi/internal/crypto80211"
	"politewifi/internal/dot11"
	"politewifi/internal/eventsim"
	"politewifi/internal/faults"
	"politewifi/internal/mac"
	"politewifi/internal/oui"
	"politewifi/internal/phy"
	"politewifi/internal/radio"
	"politewifi/internal/replay"
	"politewifi/internal/telemetry"
	"politewifi/internal/telemetry/stream"
)

// Spec describes one device to be instantiated when the vehicle is
// nearby.
type Spec struct {
	MAC     dot11.MAC
	Vendor  string
	IsAP    bool
	SSID    string
	Profile mac.ChipsetProfile
	Offset  radio.Position // relative to the household
}

// Household is one building: an AP and the client devices audible
// around it.
type Household struct {
	Pos        radio.Position
	Band       phy.Band
	Channel    int
	Passphrase string
	AP         Spec
	Clients    []Spec
}

// City is the full population plus its street layout.
type City struct {
	Households []Household
	DB         *oui.DB

	// TotalAPs and TotalClients record the built population size.
	TotalAPs, TotalClients int
}

// scanPlan is the dual-band hop sequence the attacker's dongle walks
// at each stop: the non-overlapping 2.4 GHz channels plus two common
// 5 GHz channels (where ACKs ride a 16 µs SIFS instead of 10 µs).
type bandChannel struct {
	band    phy.Band
	channel int
}

var scanPlan = []bandChannel{
	{phy.Band2GHz, 1}, {phy.Band2GHz, 6}, {phy.Band2GHz, 11},
	{phy.Band5GHz, 36}, {phy.Band5GHz, 149},
}

// mopUpDwell is the length of the extra visit a channel gets after the
// two passes while some discovered device still owes probes: enough
// for a device's full probe budget at the scanner's probe interval,
// with slack for a busy channel.
const mopUpDwell = 50 * eventsim.Millisecond

// wifiChannels are the usual non-overlapping 2.4 GHz channels.
var wifiChannels = []int{1, 6, 11}

// fiveGHzChannels are the 5 GHz channels households may use.
var fiveGHzChannels = []int{36, 149}

// clientProfiles rotates chipset behaviour across the population so
// the study exercises every profile (including deauthing APs).
var apProfiles = []mac.ChipsetProfile{
	mac.ProfileGenericAP,
	mac.ProfileQualcommIPQ4019, // the deauth-on-unknown firmware
	mac.ProfileGenericAP,
}

var clientProfiles = []mac.ChipsetProfile{
	mac.ProfileGenericClient,
	mac.ProfileIntelAC3160,
	mac.ProfileMurataKM5D18098,
	mac.ProfileESP8266,
	mac.ProfileAtheros,
}

// BuildCity creates a city whose AP and client populations follow the
// Table 2 vendor census scaled by scale (1.0 = the paper's exact
// 3,805 APs and 1,523 clients). Households line a serpentine street
// grid, spaced ~25 m apart. A small fraction of networks are WPA2
// (the ACK behaviour is identical; open networks keep the key
// derivation cost of a 5,000-device build manageable).
func BuildCity(rng *eventsim.RNG, scale float64) *City {
	db := oui.NewDB()
	city := &City{DB: db}

	scaleCensus := func(entries []oui.CensusEntry) []oui.CensusEntry {
		if scale >= 1 {
			return entries
		}
		var out []oui.CensusEntry
		for _, e := range entries {
			n := int(float64(e.Count)*scale + 0.5)
			if n > 0 {
				out = append(out, oui.CensusEntry{Vendor: e.Vendor, Count: n})
			}
		}
		return out
	}

	apCensus := scaleCensus(oui.APCensus())
	clientCensus := scaleCensus(oui.ClientCensus())

	// Mint one household per AP, placed along a serpentine grid.
	seen := make(map[dot11.MAC]bool)
	mint := func(vendor string) dot11.MAC {
		for {
			m := db.MintMAC(vendor, rng)
			if !seen[m] {
				seen[m] = true
				return m
			}
		}
	}

	idx := 0
	const spacing = 25.0 // meters between households
	const rowLen = 200   // households per street
	for _, e := range apCensus {
		for i := 0; i < e.Count; i++ {
			row := idx / rowLen
			col := idx % rowLen
			if row%2 == 1 {
				col = rowLen - 1 - col // serpentine
			}
			h := Household{
				Pos:  radio.Position{X: float64(col) * spacing, Y: float64(row) * spacing * 4},
				Band: phy.Band2GHz,
				AP: Spec{
					MAC:     mint(e.Vendor),
					Vendor:  e.Vendor,
					IsAP:    true,
					SSID:    fmt.Sprintf("%s-%04x", e.Vendor, idx&0xffff),
					Profile: apProfiles[idx%len(apProfiles)],
				},
			}
			if rng.Coin(0.25) {
				// A quarter of households run 5 GHz networks.
				h.Band = phy.Band5GHz
				h.Channel = fiveGHzChannels[rng.Intn(len(fiveGHzChannels))]
			} else {
				h.Channel = wifiChannels[rng.Intn(len(wifiChannels))]
			}
			if rng.Coin(0.05) {
				h.Passphrase = "household passphrase"
			}
			city.Households = append(city.Households, h)
			city.TotalAPs++
			idx++
		}
	}

	// Scatter clients over households.
	hi := 0
	ci := 0
	for _, e := range clientCensus {
		for i := 0; i < e.Count; i++ {
			h := &city.Households[hi%len(city.Households)]
			hi += 1 + rng.Intn(3)
			h.Clients = append(h.Clients, Spec{
				MAC:     mint(e.Vendor),
				Vendor:  e.Vendor,
				SSID:    h.AP.SSID,
				Profile: clientProfiles[ci%len(clientProfiles)],
				Offset: radio.Position{
					X: rng.Uniform(-8, 8), Y: rng.Uniform(-8, 8), Z: rng.Uniform(0, 2),
				},
			})
			ci++
			city.TotalClients++
		}
	}
	return city
}

// Stop is one vehicle stop: the households audible from there.
type Stop struct {
	Pos        radio.Position
	Households []*Household
}

// Stops partitions the city into neighbourhood stops of at most
// perStop households each, returning them in street order. The stop
// position is the centroid of its households.
func (c *City) Stops(perStop int) []Stop {
	if perStop < 1 {
		perStop = 1
	}
	var stops []Stop
	for i := 0; i < len(c.Households); i += perStop {
		j := i + perStop
		if j > len(c.Households) {
			j = len(c.Households)
		}
		var s Stop
		for k := i; k < j; k++ {
			s.Households = append(s.Households, &c.Households[k])
			s.Pos.X += c.Households[k].Pos.X
			s.Pos.Y += c.Households[k].Pos.Y
		}
		n := float64(len(s.Households))
		s.Pos.X /= n
		s.Pos.Y /= n
		s.Pos.Z = 1.8 // roof-mounted dongle
		stops = append(stops, s)
	}
	return stops
}

// DeviceOutcome records the verdict for one device after the drive.
type DeviceOutcome struct {
	Spec      Spec
	Probes    int
	Acks      int
	Responded bool
	// Verdict is the scanner's three-state outcome for the device.
	Verdict core.Verdict
}

// Result accumulates the wardrive study.
type Result struct {
	ClientVendors map[string]int // vendor → responding client devices
	APVendors     map[string]int // vendor → responding APs

	ClientsDiscovered, APsDiscovered int
	ClientsResponded, APsResponded   int

	// Inconclusive counts discovered devices whose verdict was tainted
	// (lossy or contended probes, starved budgets), with or without
	// injected channel faults.
	Inconclusive int

	// Cancelled reports that a cooperative stop (Config.Cancel) ended
	// the drive early. The result is still well formed: it covers the
	// contiguous prefix of stops that finished merging, exactly the
	// prefix a sequential drive of StopsDone stops would produce.
	Cancelled bool
	// StopsDone is the index one past the last merged stop — equal to
	// Stops when the drive ran to completion, smaller when cancelled.
	// It is the StartStop a resumed drive continues from.
	StopsDone int

	// NonResponders is ordered deterministically: by stop index in
	// street order, then by device instantiation order within the stop
	// (AP first, then clients, household by household). The ordering
	// is identical for every Workers setting and every replay of the
	// same seed.
	NonResponders []DeviceOutcome

	Stops        int
	SimPerStop   eventsim.Time
	DriveMinutes float64 // modelled wall time of the drive
}

// Total reports all discovered devices.
func (r *Result) Total() int { return r.ClientsDiscovered + r.APsDiscovered }

// TotalResponded reports all devices that acknowledged fake frames.
func (r *Result) TotalResponded() int { return r.ClientsResponded + r.APsResponded }

// StreamTotals expresses the result's census in the flight recorder's
// verdict buckets — the Totals a stream record covering exactly this
// result's stops would carry. It is the priming value for resuming a
// cancelled drive (Config.ResumeTotals).
func (r *Result) StreamTotals() stream.Census {
	return stream.Census{
		Clients:          r.ClientsDiscovered,
		APs:              r.APsDiscovered,
		ClientsResponded: r.ClientsResponded,
		APsResponded:     r.APsResponded,
		Silent:           len(r.NonResponders) - r.Inconclusive,
		Inconclusive:     r.Inconclusive,
	}
}

// Merge folds the result of a resumed drive into r. next must come
// from a Run with the same spec and StartStop = r.StopsDone: r covers
// stops [0, r.StopsDone), next covers [r.StopsDone, next.StopsDone),
// and because NonResponders and vendor counts accumulate in street
// order in both runs, the merged result is field-for-field identical
// to the result of the drive that was never cancelled.
func (r *Result) Merge(next *Result) {
	for v, n := range next.ClientVendors {
		r.ClientVendors[v] += n
	}
	for v, n := range next.APVendors {
		r.APVendors[v] += n
	}
	r.ClientsDiscovered += next.ClientsDiscovered
	r.APsDiscovered += next.APsDiscovered
	r.ClientsResponded += next.ClientsResponded
	r.APsResponded += next.APsResponded
	r.Inconclusive += next.Inconclusive
	r.NonResponders = append(r.NonResponders, next.NonResponders...)
	// The continuation owns the drive's fate and the route-wide
	// figures (both runs model the identical full route).
	r.Cancelled = next.Cancelled
	r.StopsDone = next.StopsDone
	r.Stops = next.Stops
	r.SimPerStop = next.SimPerStop
	r.DriveMinutes = next.DriveMinutes
}

// Config parameterises a wardrive run.
type Config struct {
	Seed int64
	// Scale scales the Table 2 census (1.0 = full 5,328 devices).
	Scale float64
	// HouseholdsPerStop bounds the per-stop medium size.
	HouseholdsPerStop int
	// DwellPerChannel is the simulated scan time per channel per stop.
	DwellPerChannel eventsim.Time
	// VehicleSpeedKmh models the drive duration between stops.
	VehicleSpeedKmh float64
	// Workers bounds the worker pool that simulates stops. Stops are
	// RF-independent neighbourhoods (see the package doc), so they
	// can run concurrently; results and telemetry are merged in stop
	// order afterwards, making the output identical for every worker
	// count. 0 means GOMAXPROCS; 1 forces a sequential drive.
	Workers int
	// Faults, when non-nil and enabled, injects deterministic channel
	// impairments (bursty loss, interference windows, deafness, ACK
	// drops) into every stop's medium. Each stop's injector gets its
	// own RNG fork, so results stay identical across worker counts.
	// When nil or disabled, nothing is forked and nothing is consulted:
	// the run is bit-identical to one built without fault support.
	Faults *faults.Config
	// Metrics, when non-nil, accumulates telemetry across every stop:
	// each per-stop simulation fills a private registry (medium,
	// stations, and scanner instruments), and the shards are merged
	// into this registry in stop order as each stop completes.
	// Counters hold drive-wide sums; stamps carry the stop-local
	// virtual time of the latest update in any stop.
	Metrics *telemetry.Registry
	// Stream, when non-nil, receives one flight-recorder record per
	// completed stop while the drive runs: census delta plus the
	// stop's full telemetry delta snapshot, emitted in stop-index
	// order at every worker count. Write errors latch inside the
	// writer and never affect the drive result.
	Stream *stream.Writer
	// Trace, when non-nil, accumulates frame-lifecycle and exchange
	// spans across every stop: each stop records into a private
	// tracer, merged here in stop order with flow/exchange IDs
	// rebased, so the rendered trace is identical for every worker
	// count.
	Trace *telemetry.Tracer
	// Progress, when non-nil, is called after each stop's results
	// merge — always in stop order — with the running census.
	Progress ProgressFunc
	// Cancel, when non-nil, requests a cooperative stop when it
	// becomes readable (conventionally: closed). Workers finish the
	// stop they are simulating — cancellation latency is bounded by
	// one stop per worker — no new stops start, and Run returns a
	// partial, well-formed Result covering the contiguous prefix of
	// merged stops, with Cancelled set. If a stream is attached, a
	// single trailer record (Cancelled: true) marks the cut, so a
	// consumer can tell a deliberate partial drive from a severed
	// pipe.
	Cancel <-chan struct{}
	// Submit, when non-nil, dispatches each stop's simulation to an
	// external executor — the politewifid daemon's shared global
	// worker pool — instead of the per-run pool Workers configures.
	// The executor must eventually run every submitted task, in any
	// order and with any concurrency, and must start a job's tasks in
	// submission order (FIFO); Run blocks until its own tasks finish.
	// Because per-stop RNGs are pre-forked and shards merge in stop
	// order, the census, telemetry, and stream bytes are identical to
	// a run on a private pool.
	Submit func(task func())
	// StartStop resumes a drive mid-way: stops before it are built
	// (their RNG forks are consumed so the seed stream stays aligned)
	// but not simulated or emitted. Combined with ResumeTotals — the
	// StreamTotals of the result being resumed — the records streamed
	// by the resumed run are byte-identical to the records the
	// uncancelled drive would have emitted for the same stops.
	StartStop int
	// ResumeTotals primes the stream's running totals when resuming
	// (zero for a fresh drive).
	ResumeTotals stream.Census
	// Record, when non-nil, captures every stop's frame-level medium
	// activity — each transmission's wire bytes, arrival times and
	// per-receiver outcomes, plus every carrier-sense check — as a
	// politewifi.framelog/v1 log, flushed per stop in stop-index order
	// so the log bytes are identical at any worker count. Recording
	// observes the simulation without perturbing it. Mutually
	// exclusive with Replay.
	Record *replay.Recorder
	// Replay, when non-nil, re-runs a recorded drive without
	// re-simulating the RF medium: each stop's radios answer Transmit
	// and CCA from the log in lockstep, reproducing census, telemetry
	// and stream output byte for byte. The first disagreement between
	// the live MAC stack and the log latches a positioned divergence
	// error (Replay.Err) and leaves that stop's medium inert. Mutually
	// exclusive with Record.
	Replay *replay.Log
	// ProbeInterval and ActiveScanInterval override the attacker's
	// per-stop schedule (probe pacing and active-scan cadence); zero
	// keeps the defaults (2 ms and 50 ms). The scenario fuzzer uses
	// them to vary attacker timing.
	ProbeInterval      eventsim.Time
	ActiveScanInterval eventsim.Time
}

// DefaultConfig is the full-scale study configuration.
func DefaultConfig() Config {
	return Config{
		Seed:              20201104, // HotNets'20 presentation date
		Scale:             1.0,
		HouseholdsPerStop: 4,
		DwellPerChannel:   1200 * eventsim.Millisecond,
		VehicleSpeedKmh:   40,
	}
}

// Run executes the wardrive: for each stop, materialise the local
// neighbourhood, let clients associate and chatter, and run the
// scanner on each 2.4 GHz channel; then accumulate the census.
//
// Stops run on a pool of cfg.Workers goroutines. Each stop's RNG is
// pre-forked from the root seed in street order — the same fork
// sequence a sequential drive performs — and each stop fills a
// private result shard plus a private telemetry registry. Shards are
// merged in stop-index order, so the Result (vendor maps, counters,
// NonResponders order) and the merged telemetry are identical for
// every worker count.
func Run(cfg Config) *Result {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.HouseholdsPerStop == 0 {
		cfg.HouseholdsPerStop = 4
	}
	if cfg.DwellPerChannel == 0 {
		cfg.DwellPerChannel = 1200 * eventsim.Millisecond
	}
	if cfg.VehicleSpeedKmh == 0 {
		cfg.VehicleSpeedKmh = 40
	}
	rootRNG := eventsim.NewRNG(cfg.Seed)
	city := BuildCity(rootRNG.Fork(), cfg.Scale)
	stops := city.Stops(cfg.HouseholdsPerStop)

	cfg.Record.Begin(len(stops))
	if cfg.Replay != nil && cfg.Replay.Stops() != len(stops) {
		cfg.Replay.Fail(fmt.Errorf(
			"replay: log records %d stops but this configuration builds %d — wrong spec for this log",
			cfg.Replay.Stops(), len(stops)))
	}

	res := &Result{
		ClientVendors: make(map[string]int),
		APVendors:     make(map[string]int),
		Stops:         len(stops),
	}

	// Pre-fork every stop's RNG in street order so the seed stream is
	// the one a sequential drive would consume, regardless of which
	// worker runs which stop when.
	rngs := make([]*eventsim.RNG, len(stops))
	for i := range stops {
		rngs[i] = rootRNG.Fork()
	}

	start := cfg.StartStop
	if start < 0 {
		start = 0
	}
	if start > len(stops) {
		start = len(stops)
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(stops)-start {
		workers = len(stops) - start
	}

	// cancelled polls the cooperative stop signal without blocking.
	cancelled := func() bool {
		if cfg.Cancel == nil {
			return false
		}
		select {
		case <-cfg.Cancel:
			return true
		default:
			return false
		}
	}

	// Ordered emission: shards fold into the result, registry, tracer
	// and flight-recorder stream the moment they become the next stop
	// in street order — not after the whole drive — so consumers see
	// live, deterministic progress. The emit order is stop-index order
	// at every worker count, which is what makes the stream bytes, the
	// merged registry, and the merged trace worker-count-invariant.
	var totalSim eventsim.Time
	totals := cfg.ResumeTotals
	emit := func(i int, sh *stopResult) {
		res.absorb(sh)
		if cfg.Metrics != nil {
			cfg.Metrics.MergeFrom(sh.metrics)
		}
		cfg.Trace.MergeFrom(sh.tracer)
		cfg.Record.WriteStop(sh.framelog)
		totalSim += sh.simEnd
		if cfg.Stream != nil {
			delta := stream.Census{
				Clients:          sh.clientsDiscovered,
				APs:              sh.apsDiscovered,
				ClientsResponded: sh.clientsResponded,
				APsResponded:     sh.apsResponded,
				Silent:           len(sh.nonResponders) - sh.inconclusive,
				Inconclusive:     sh.inconclusive,
			}
			totals.Add(delta)
			rec := stream.Record{
				Schema:   stream.Schema,
				Stop:     i,
				Stops:    len(stops),
				SimEndNS: int64(sh.simEnd),
				Census:   delta,
				Totals:   totals,
			}
			if sh.metrics != nil {
				rep := sh.metrics.Snapshot()
				rec.Telemetry = &rep
			}
			// Errors latch in the writer: a consumer disconnecting
			// mid-stream must never change the drive's result.
			_ = cfg.Stream.Write(rec)
		}
		if cfg.Progress != nil {
			cfg.Progress(Progress{
				Stop: i + 1, Stops: len(stops),
				Devices: res.Total(), Responded: res.TotalResponded(),
				Inconclusive: res.Inconclusive, SimTime: totalSim,
			})
		}
	}
	merger := &orderedMerger{next: start, pending: make(map[int]*stopResult), emit: emit}
	switch {
	case cfg.Submit != nil:
		// External executor: the politewifid shared pool. Tasks are
		// submitted in street order; the pool starts them FIFO, so on
		// cancellation the simulated set is a prefix of the submitted
		// set and the merged result stays contiguous. A task that
		// observes the cancel before simulating skips its stop — it
		// was queued, not running, so skipping keeps cancellation
		// latency bounded by the stops already in flight.
		var wg sync.WaitGroup
		for i := start; i < len(stops); i++ {
			if cancelled() {
				break
			}
			wg.Add(1)
			i := i
			cfg.Submit(func() {
				defer wg.Done()
				if cancelled() {
					return
				}
				merger.complete(i, runStop(rngs[i], i, stops[i], cfg))
			})
		}
		wg.Wait()
	case workers <= 1:
		for i := start; i < len(stops); i++ {
			if cancelled() {
				break
			}
			merger.complete(i, runStop(rngs[i], i, stops[i], cfg))
		}
	default:
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					merger.complete(i, runStop(rngs[i], i, stops[i], cfg))
				}
			}()
		}
	feed:
		for i := start; i < len(stops); i++ {
			if cancelled() {
				break
			}
			select {
			case jobs <- i:
			case <-cfg.Cancel:
				// Workers drain the stop they hold and exit; nothing
				// else is dispatched. (A nil Cancel blocks this arm
				// forever, so the select degenerates to the send.)
				break feed
			}
		}
		close(jobs)
		wg.Wait()
	}

	res.StopsDone = merger.done()
	res.Cancelled = res.StopsDone < len(stops)
	if res.Cancelled && cfg.Stream != nil {
		// One well-formed trailer instead of dying mid-record: the
		// stream ends with the final totals and an explicit marker, so
		// a fold can distinguish "drive cancelled after k stops" from
		// "pipe severed after k records".
		_ = cfg.Stream.Write(stream.Trailer(res.StopsDone, len(stops), totals))
	}

	res.SimPerStop = cfg.DwellPerChannel * eventsim.Time(len(scanPlan))
	// Drive model: serpentine street distance between stop centroids
	// at the configured speed, plus the dwell time at each stop.
	dist := 0.0
	for i := 1; i < len(stops); i++ {
		dist += radioDist(stops[i-1].Pos, stops[i].Pos)
	}
	driveH := dist / 1000 / cfg.VehicleSpeedKmh
	dwellH := (res.SimPerStop.Seconds() * float64(len(stops))) / 3600
	res.DriveMinutes = (driveH + dwellH) * 60
	return res
}

func radioDist(a, b radio.Position) float64 { return a.DistanceTo(b) }

// orderedMerger turns out-of-order shard completions into in-order
// emission: a worker reports its finished stop, and every stop that
// has become contiguous with the already-emitted prefix is emitted
// under the lock. This keeps the fold (result, registry, tracer,
// stream, progress) in stop-index order without a barrier at drive
// end — the flight recorder streams while later stops still simulate.
type orderedMerger struct {
	mu      sync.Mutex
	next    int
	pending map[int]*stopResult
	emit    func(i int, sh *stopResult)
}

// done reports the index one past the last emitted stop — the length
// of the contiguous merged prefix. Call it only after all workers have
// drained.
func (m *orderedMerger) done() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.next
}

func (m *orderedMerger) complete(i int, sh *stopResult) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pending[i] = sh
	for {
		ready, ok := m.pending[m.next]
		if !ok {
			return
		}
		delete(m.pending, m.next)
		m.emit(m.next, ready)
		m.next++
	}
}

// stopResult is one stop's private shard of the drive census. Workers
// fill shards without any shared state; Run merges them in stop-index
// order.
type stopResult struct {
	clientVendors map[string]int
	apVendors     map[string]int

	clientsDiscovered, apsDiscovered int
	clientsResponded, apsResponded   int
	inconclusive                     int

	nonResponders []DeviceOutcome

	// metrics is the stop-local telemetry registry (nil when the run
	// is uninstrumented), merged into Config.Metrics — and snapshotted
	// into the flight-recorder stream — when the stop's turn to emit
	// comes.
	metrics *telemetry.Registry
	// tracer is the stop-local span recorder (nil when tracing is
	// off), merged into Config.Trace in stop order.
	tracer *telemetry.Tracer
	// framelog is the stop's frame-log shard (nil when not recording),
	// flushed to Config.Record in stop order.
	framelog *replay.StopLog
	// simEnd is the stop's final virtual time.
	simEnd eventsim.Time
	// derivations counts the stop's PBKDF2 runs (one per RSN network
	// that handshook). Only tests read it: it stays out of Result,
	// telemetry and the stream so their bytes do not depend on how
	// keys are derived.
	derivations int
}

// absorb folds one stop's shard into the drive-wide result.
func (res *Result) absorb(sh *stopResult) {
	for v, n := range sh.clientVendors {
		res.ClientVendors[v] += n
	}
	for v, n := range sh.apVendors {
		res.APVendors[v] += n
	}
	res.ClientsDiscovered += sh.clientsDiscovered
	res.APsDiscovered += sh.apsDiscovered
	res.ClientsResponded += sh.clientsResponded
	res.APsResponded += sh.apsResponded
	res.Inconclusive += sh.inconclusive
	res.NonResponders = append(res.NonResponders, sh.nonResponders...)
}

// stopArenas pools frame-buffer arenas across stops: each in-flight
// stop checks one out for its medium, and Reset hands the chunks to
// the next stop instead of the garbage collector. Pool size tracks
// the number of concurrently simulating stops (the worker count).
var stopArenas = sync.Pool{New: func() any { return arena.New() }}

// runStop simulates one neighbourhood scan into a private shard.
// index is the stop's 0-based street-order position, which keys its
// frame-log shard when recording or replaying.
func runStop(rng *eventsim.RNG, index int, stop Stop, cfg Config) *stopResult {
	sh := &stopResult{
		clientVendors: make(map[string]int),
		apVendors:     make(map[string]int),
	}
	sched := eventsim.NewScheduler()
	med := radio.NewMedium(sched, rng.Fork(), radio.Config{
		PathLoss:        radio.LogDistance{Exponent: 2.7},
		ShadowSigmaDB:   3,
		FadingSigmaDB:   1,
		CaptureMarginDB: 10,
	})
	// Frame bytes for the whole stop come from one pooled arena,
	// reclaimed wholesale at teardown. Nothing below retains reception
	// bytes past the stop: the census copies SSID strings and the
	// shard carries only counts and formatted trace attributes.
	ar := stopArenas.Get().(*arena.Arena)
	med.SetArena(ar)
	defer func() {
		ar.Reset()
		stopArenas.Put(ar)
	}()
	var macMx mac.Metrics
	if cfg.Metrics != nil || cfg.Stream != nil {
		sh.metrics = telemetry.NewRegistry(sched.ObservedNow)
		med.SetMetrics(radio.NewMetrics(sh.metrics))
		macMx = mac.NewMetrics(sh.metrics)
	}
	if cfg.Trace != nil {
		sh.tracer = telemetry.NewTracer()
		med.SetTracer(sh.tracer)
	}
	// Fault injection: forked only when enabled, so a faults-off run
	// consumes the exact RNG stream it did before fault support
	// existed — and stays bit-identical to it.
	faultsOn := cfg.Faults != nil && cfg.Faults.Enabled()
	if faultsOn {
		inj := faults.New(rng.Fork(), *cfg.Faults)
		med.SetFaultInjector(inj)
		if sh.metrics != nil {
			inj.InstrumentInto(sh.metrics)
		}
	}
	// Frame-log record/replay hooks. Both run after the fault fork so
	// the RNG stream (and therefore everything downstream) is the same
	// as an unrecorded run's; in replay mode the medium simply never
	// draws from its fork again.
	if cfg.Record != nil {
		sh.framelog = replay.NewStopLog(index)
		med.SetFrameRecorder(sh.framelog)
	}
	var cursor *replay.Cursor
	if cfg.Replay != nil {
		cursor = cfg.Replay.Cursor(index)
		med.SetFrameReplayer(cursor)
	}

	type liveDev struct {
		spec    Spec
		station *mac.Station
	}
	nDevs := 0
	for _, h := range stop.Households {
		nDevs += 1 + len(h.Clients)
	}
	devices := make([]liveDev, 0, nDevs)
	// One keyring per stop: a network's AP and clients all live in
	// this stop, so each RSN household's PMK is derived once here
	// instead of once per handshake side.
	keys := new(crypto80211.Keyring)

	for _, h := range stop.Households {
		ap := mac.New(med, rng.Fork(), mac.Config{
			Name: "ap-" + h.AP.MAC.String(), Addr: h.AP.MAC, Role: mac.RoleAP,
			Profile: h.AP.Profile, SSID: h.AP.SSID, Passphrase: h.Passphrase,
			Position: h.Pos, Band: h.Band, Channel: h.Channel, Keys: keys,
		})
		ap.SetMetrics(macMx)
		devices = append(devices, liveDev{h.AP, ap})
		if h.Band == phy.Band5GHz {
			// 5 GHz regulatory limits allow higher EIRP, which is how
			// real dual-band gear evens out the extra path loss.
			ap.Radio.SetTxPower(20)
		}
		for _, cl := range h.Clients {
			pos := radio.Position{X: h.Pos.X + cl.Offset.X, Y: h.Pos.Y + cl.Offset.Y, Z: cl.Offset.Z}
			st := mac.New(med, rng.Fork(), mac.Config{
				Name: "cl-" + cl.MAC.String(), Addr: cl.MAC, Role: mac.RoleClient,
				Profile: cl.Profile, SSID: cl.SSID, Passphrase: h.Passphrase,
				Position: pos, Band: h.Band, Channel: h.Channel, Keys: keys,
			})
			st.SetMetrics(macMx)
			if h.Band == phy.Band5GHz {
				st.Radio.SetTxPower(20)
			}
			st.Associate(h.AP.MAC, nil)
			devices = append(devices, liveDev{cl, st})
			// Background chatter so the discovery worker can see the
			// client even after association completes.
			ap := h.AP.MAC
			stCopy := st
			sched.Every(eventsim.Time(rng.Uniform(80, 250))*eventsim.Millisecond, func() {
				if stCopy.Associated() {
					stCopy.SendData(ap, []byte("iot telemetry"))
				}
			})
		}
	}

	attacker := core.NewAttacker(med, stop.Pos, phy.Band2GHz, wifiChannels[0], core.DefaultFakeMAC)
	// Robust injection rate: reach every household from the street.
	attacker.Rate = phy.Rate6
	scanner := core.NewScanner(attacker)
	if sh.metrics != nil {
		scanner.SetMetrics(sh.metrics)
		if faultsOn {
			scanner.EnableFaultInstruments(sh.metrics)
		}
	}
	scanner.ProbeInterval = 2 * eventsim.Millisecond
	scanner.ActiveScanInterval = 50 * eventsim.Millisecond
	if cfg.ProbeInterval > 0 {
		scanner.ProbeInterval = cfg.ProbeInterval
	}
	if cfg.ActiveScanInterval > 0 {
		scanner.ActiveScanInterval = cfg.ActiveScanInterval
	}
	scanner.Start()
	// Two passes over the dual-band hop plan: devices discovered late
	// in a channel's first dwell get their probes on the second visit.
	for pass := 0; pass < 2; pass++ {
		for _, bc := range scanPlan {
			attacker.Radio.SetBand(bc.band)
			attacker.Radio.SetChannel(bc.channel)
			sched.RunFor(cfg.DwellPerChannel / 2)
		}
	}
	// A device first heard in the last moments of its channel's second
	// dwell still owes probes: one short extra visit per channel, cut
	// short once nothing is owed, gets them sent.
	for _, bc := range scanPlan {
		if scanner.Pending() == 0 {
			break
		}
		attacker.Radio.SetBand(bc.band)
		attacker.Radio.SetChannel(bc.channel)
		sched.RunFor(mopUpDwell)
	}
	scanner.Stop()

	// Accumulate outcomes for the devices that actually exist here.
	scanned := scanner.Devices()
	found := make(map[dot11.MAC]*core.Device, len(scanned))
	for _, d := range scanned {
		found[d.MAC] = d
	}
	for _, dev := range devices {
		d, ok := found[dev.spec.MAC]
		if !ok {
			continue // out of RF range or silent: not discovered
		}
		if dev.spec.IsAP {
			sh.apsDiscovered++
			if d.Responded {
				sh.apsResponded++
				sh.apVendors[dev.spec.Vendor]++
			}
		} else {
			sh.clientsDiscovered++
			if d.Responded {
				sh.clientsResponded++
				sh.clientVendors[dev.spec.Vendor]++
			}
		}
		if !d.Responded {
			if d.Verdict == core.VerdictInconclusive {
				sh.inconclusive++
			}
			sh.nonResponders = append(sh.nonResponders, DeviceOutcome{
				Spec: dev.spec, Probes: d.Probes, Acks: d.Acks,
				Verdict: d.Verdict,
			})
		}
	}
	if sh.metrics != nil {
		accumulateStop(sh.metrics, sched, attacker, faultsOn)
	}
	// A replayed stop must have consumed its whole shard: leftover
	// records mean the live run stopped asking for events mid-log,
	// which is as much a divergence as asking for the wrong one.
	if cursor != nil {
		cursor.Close()
	}
	sh.simEnd = sched.Now()
	sh.derivations = keys.Derivations()
	return sh
}

// accumulateStop folds one stop's scheduler and attacker stats into
// the drive-wide registry. Each stop owns a fresh scheduler and
// attacker, so sampled funcs would only ever show the last stop;
// adding into plain counters at stop teardown sums the whole drive.
func accumulateStop(reg *telemetry.Registry, sched *eventsim.Scheduler, a *core.Attacker, faultsOn bool) {
	reg.Counter("sched.events_fired", "events executed (summed over stops)").Add(sched.Fired())
	for origin, n := range sched.FiredByOrigin() {
		reg.Counter("sched.fired."+origin, "events executed, by schedule origin").Add(n)
	}
	reg.Gauge("sched.queue_high_water", "maximum event-queue depth (worst stop)").SetInt(sched.HighWater())
	reg.Counter("core.injected", "frames injected by the attacker").Add(a.Injected)
	reg.Counter("core.inject_drops", "injections refused (transmitter busy)").Add(a.InjectDrops)
	reg.Counter("core.frames_seen", "frames sniffed in monitor mode").Add(a.FramesSeen)
	if faultsOn {
		// Registered only under faults so a pristine run's telemetry
		// report keeps its exact historical shape.
		reg.Counter("core.fcs_errors", "receptions that failed the FCS check").Add(a.FCSErrors)
	}
	reg.Counter("core.acks_to_me", "ACKs addressed to the spoofed MAC").Add(a.AcksToMe)
	reg.Counter("core.cts_to_me", "CTS addressed to the spoofed MAC").Add(a.CTSToMe)
	reg.Counter("core.deauths_for_me", "deauths aimed at the spoofed MAC").Add(a.DeauthsForMe)
}
