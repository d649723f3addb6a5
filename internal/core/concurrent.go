package core

import (
	"context"
	"hash/fnv"
	"runtime/pprof"
	"sync"

	"politewifi/internal/dot11"
	"politewifi/internal/eventsim"
	"politewifi/internal/phy"
	"politewifi/internal/radio"
	"politewifi/internal/rt"
)

// ConcurrentScanner is the paper's §3 program with its original
// concurrency structure: "our implementation contains three threads.
// The first thread discovers nearby devices by sniffing WiFi traffic
// ... The second thread sends fake 802.11 frames to the list of
// target devices. Finally, the third thread checks to verify that
// target devices respond with an ACK."
//
// The three workers are real goroutines connected by channels; the
// injector is self-clocked by the verifier's verdicts (ACK observed,
// or a simulated-time timeout), so no wall-clock pacing is needed and
// runs remain fast. All simulation access is serialised through an
// rt.Bridge, and Run holds virtual time at each quantum boundary
// until the workers have finished what the simulation handed them,
// so a loaded host slows the scan down instead of starving it.
type ConcurrentScanner struct {
	attacker *Attacker
	bridge   *rt.Bridge

	// ProbesPerDevice is how many fake frames each silent target gets
	// before being written off.
	ProbesPerDevice int
	// MaxBusyParks caps how many transmitter-busy parks one target may
	// accumulate before the injector gives up with an Inconclusive
	// verdict. Without the cap a channel that never frees (a jammed or
	// hogged transmitter) spins the injector forever in simulated time.
	MaxBusyParks int
	// BusyBackoffBase/BusyBackoffMax bound the exponential backoff
	// between busy parks; the first park waits ~BusyBackoffBase, each
	// further park doubles it up to BusyBackoffMax, plus deterministic
	// per-target jitter so parked targets do not re-collide in step.
	BusyBackoffBase eventsim.Time
	BusyBackoffMax  eventsim.Time
	// MissBackoffBase/MissBackoffMax bound the backoff between probe
	// attempts after a negative verdict (the target may have been mid
	// transmission); same doubling-with-jitter schedule.
	MissBackoffBase eventsim.Time
	MissBackoffMax  eventsim.Time

	frameCh   chan frameEvent  // sniffer → discovery worker
	targetCh  chan dot11.MAC   // discovery → injector
	eventCh   chan verifyEvent // sim (armed/ack/timeout/corrupt, in order) → verifier
	verdictCh chan verdict     // verifier → injector

	mu      sync.Mutex
	devices map[dot11.MAC]*Device
	seeded  []dot11.MAC

	work inflight

	metrics PipelineMetrics
}

// inflight counts pipeline work not yet finished: items sitting in a
// channel, plus workers that were woken (by a channel item, a verdict
// or a simSleep wake) and have not yet parked again. Every send adds
// one before the item can be received; every worker calls done when
// it finishes an item or parks on the simulation. Zero therefore
// means each worker is blocked on something only advancing virtual
// time can produce.
//
// Targets are the exception: they queue in targetCh while the
// injector is parked mid-probe, and then they wait on virtual time
// like the probe does. So they count only while the injector is idle
// on that channel.
type inflight struct {
	mu           sync.Mutex
	idle         sync.Cond
	n            int
	targets      int  // targets sitting in targetCh
	injectorIdle bool // injector is waiting on targetCh
}

func (f *inflight) pending() int {
	if f.injectorIdle {
		return f.n + f.targets
	}
	return f.n
}

// update applies fn under the lock and wakes wait if nothing is
// pending afterwards.
func (f *inflight) update(fn func()) {
	f.mu.Lock()
	fn()
	if f.pending() == 0 {
		f.idle.Broadcast()
	}
	f.mu.Unlock()
}

func (f *inflight) add()  { f.update(func() { f.n++ }) }
func (f *inflight) done() { f.update(func() { f.n-- }) }

// queueTarget is add for a targetCh send; unqueueTarget undoes it when
// the send is dropped.
func (f *inflight) queueTarget()   { f.update(func() { f.targets++ }) }
func (f *inflight) unqueueTarget() { f.update(func() { f.targets-- }) }

// takeTarget marks the injector running on a target it received;
// finishTarget marks it idle on targetCh again.
func (f *inflight) takeTarget() {
	f.update(func() { f.targets--; f.n++; f.injectorIdle = false })
}
func (f *inflight) finishTarget() {
	f.update(func() { f.n--; f.injectorIdle = true })
}

// wait blocks until nothing is pending.
func (f *inflight) wait() {
	f.mu.Lock()
	for f.pending() > 0 {
		f.idle.Wait()
	}
	f.mu.Unlock()
}

type frameEvent struct {
	frame dot11.Frame
	rx    radio.Reception
	ch    int
}

type verdict struct {
	target dot11.MAC
	acked  bool
	// lossy records that a corrupted reception landed inside the
	// probe's attribution window: the answer (if any) was mangled in
	// flight, so a negative verdict is not evidence of silence.
	lossy bool
}

// verifyEvent is the verifier's ordered input. All three kinds are
// produced under the simulation lock, so channel order equals
// simulated-time order — which makes ACK-vs-timeout resolution
// deterministic.
type verifyEvent struct {
	kind   verifyKind
	target dot11.MAC
	// at is the simulated production time; every producer holds the
	// simulation lock, so reading the clock here is safe. The verifier
	// (outside the lock) uses it to compute verdict latency.
	at eventsim.Time
}

type verifyKind int

const (
	evArmed   verifyKind = iota // injector sent a probe
	evAck                       // an ACK to the spoofed MAC arrived
	evTimeout                   // the probe's verification window closed
	evCorrupt                   // an FCS-failed reception arrived
)

// NewConcurrentScanner wires the pipeline to an attacker. The
// attacker's medium must only be driven through the bridge from now
// on.
func NewConcurrentScanner(a *Attacker, bridge *rt.Bridge) *ConcurrentScanner {
	// The sniffer tap ships frames across a channel to worker
	// goroutines, so they must survive past the OnFrame callback —
	// opt out of the attacker's pooled decoding.
	a.RetainFrames()
	s := &ConcurrentScanner{
		attacker:        a,
		bridge:          bridge,
		ProbesPerDevice: 3,
		MaxBusyParks:    16,
		BusyBackoffBase: 200 * eventsim.Microsecond,
		BusyBackoffMax:  5 * eventsim.Millisecond,
		MissBackoffBase: 5 * eventsim.Millisecond,
		MissBackoffMax:  20 * eventsim.Millisecond,
		frameCh:         make(chan frameEvent, 1024),
		targetCh:        make(chan dot11.MAC, 256),
		eventCh:         make(chan verifyEvent, 256),
		verdictCh:       make(chan verdict, 16),
		devices:         make(map[dot11.MAC]*Device),
	}
	s.work.idle.L = &s.work.mu
	s.work.injectorIdle = true
	return s
}

// SeedTargets preloads the target list with known MACs (a targeted
// strike list), so the injector probes them without waiting for the
// discovery worker to overhear traffic from them. Call before Run.
func (s *ConcurrentScanner) SeedTargets(targets ...dot11.MAC) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range targets {
		if _, ok := s.devices[m]; ok {
			continue
		}
		s.devices[m] = &Device{MAC: m, Kind: KindClient}
		s.seeded = append(s.seeded, m)
	}
}

// Run executes the scan for the given amount of simulated time and
// returns the tally. It blocks the calling goroutine; the three
// workers and the simulation driver run underneath it.
func (s *ConcurrentScanner) Run(simDuration eventsim.Time) Tally {
	done := make(chan struct{})
	var wg sync.WaitGroup

	// Sniffer tap: runs inside the simulation (under the bridge
	// lock), so it must never block — drop on overflow like a real
	// capture ring.
	s.bridge.Do(func() {
		s.attacker.OnFrame(func(f dot11.Frame, rx radio.Reception) {
			ev := frameEvent{frame: f, rx: rx, ch: s.attacker.Radio.Channel()}
			s.work.add()
			select {
			//politevet:allow bufreuse(the concurrent scanner's medium never has a stop arena — NewConcurrentScanner sets RetainFrames and world.Run uses the sequential Scanner — so rx.Data here is a per-transmission allocation the consumer may keep)
			case s.frameCh <- ev:
				s.metrics.FrameChDepth.SetInt(len(s.frameCh))
			default:
				s.work.done()
			}
		})
	})

	// The verifier's ACK and corrupt-reception taps also run under the
	// simulation lock. Corrupt receptions matter only while a probe is
	// open: an FCS-failed frame inside the attribution window means
	// the verdict cannot distinguish silence from a mangled answer.
	s.bridge.Do(func() {
		s.attacker.OnFrame(func(f dot11.Frame, rx radio.Reception) {
			if a, ok := f.(*dot11.Ack); ok && a.RA == s.attacker.MAC {
				s.pushEvent(verifyEvent{kind: evAck, at: s.attacker.sched.Now()})
			}
		})
		s.attacker.OnCorrupt(func(rx radio.Reception) {
			s.pushEvent(verifyEvent{kind: evCorrupt, at: s.attacker.sched.Now()})
		})
	})

	// Seeded targets go straight to the injector.
	s.mu.Lock()
	seeded := append([]dot11.MAC(nil), s.seeded...)
	s.mu.Unlock()
	for _, m := range seeded {
		s.work.queueTarget()
		select {
		case s.targetCh <- m:
		default:
			s.work.unqueueTarget()
		}
	}

	// Each worker runs under a pprof label so CPU/goroutine profiles
	// attribute samples to the paper's thread roles.
	wg.Add(3)
	worker := func(role string, fn func(*sync.WaitGroup, <-chan struct{})) {
		go pprof.Do(context.Background(), pprof.Labels("pipeline_worker", role), func(context.Context) {
			fn(&wg, done)
		})
	}
	worker("discovery", s.discoveryWorker)
	worker("injector", s.injectorWorker)
	worker("verifier", s.verifierWorker)

	// Drive one quantum at a time and let the pipeline settle at each
	// boundary (and before the first): the workers then see virtual
	// time advance in step with their own progress, however late the
	// OS runs them.
	end := s.bridge.Now() + simDuration
	for {
		s.work.wait()
		now := s.bridge.Now()
		if now >= end {
			break
		}
		s.bridge.Drive(eventsim.Millisecond, min(eventsim.Millisecond, end-now))
	}
	close(done)
	wg.Wait()
	return s.tally()
}

// discoveryWorker (thread 1): sniffs traffic, adds unseen MACs to the
// target list.
func (s *ConcurrentScanner) discoveryWorker(wg *sync.WaitGroup, done <-chan struct{}) {
	defer wg.Done()
	for {
		select {
		case <-done:
			return
		case ev := <-s.frameCh:
			s.metrics.WorkerDiscovery.Inc()
			s.discover(ev)
			s.work.done()
		}
	}
}

func (s *ConcurrentScanner) discover(ev frameEvent) {
	ta := ev.frame.TransmitterAddress()
	if ta == dot11.ZeroMAC || ta == s.attacker.MAC || !ta.IsUnicast() {
		return
	}
	kind := KindClient
	ssid := ""
	switch ff := ev.frame.(type) {
	case *dot11.Beacon:
		kind, ssid = KindAP, ff.SSID()
	case *dot11.ProbeResp:
		kind = KindAP
		ssid, _ = dot11.FindSSID(ff.IEs)
	case *dot11.Data:
		if ff.FC.FromDS {
			kind = KindAP
		}
	}
	s.mu.Lock()
	d, seen := s.devices[ta]
	if !seen {
		d = &Device{MAC: ta, Kind: kind, SSID: ssid, Channel: ev.ch, RSSIDBm: ev.rx.RSSIDBm}
		s.devices[ta] = d
	} else if kind == KindAP {
		d.Kind = KindAP
		if ssid != "" {
			d.SSID = ssid
		}
	}
	s.mu.Unlock()
	if !seen {
		s.metrics.Discovered.Inc()
		s.work.queueTarget()
		select {
		case s.targetCh <- ta:
			s.metrics.TargetChDepth.SetInt(len(s.targetCh))
		default: // target queue full; the device stays recorded as silent
			s.work.unqueueTarget()
		}
	}
}

// injectorWorker (thread 2): pulls targets, sends fake frames, and
// waits for the verifier's verdict before moving on — a self-clocked
// pipeline with no wall-clock sleeps.
func (s *ConcurrentScanner) injectorWorker(wg *sync.WaitGroup, done <-chan struct{}) {
	defer wg.Done()
	for {
		select {
		case <-done:
			return
		case target := <-s.targetCh:
			s.work.takeTarget()
			s.metrics.WorkerInjector.Inc()
			s.probeTarget(target, done)
			s.work.finishTarget()
		}
	}
}

func (s *ConcurrentScanner) probeTarget(target dot11.MAC, done <-chan struct{}) {
	busyParks := 0
	lossy := false
	for attempt := 0; attempt < s.ProbesPerDevice; attempt++ {
		// Drain stale verdicts (timeouts that fired after their probe
		// was already resolved positively).
		for {
			select {
			case <-s.verdictCh:
				s.work.done()
				continue
			default:
			}
			break
		}
		injected := false
		s.bridge.Do(func() {
			if s.attacker.Radio.Transmitting() {
				return
			}
			end, err := s.attacker.InjectNull(target)
			if err != nil {
				return
			}
			injected = true
			s.metrics.ProbesInjected.Inc()
			if attempt > 0 {
				s.metrics.Retries.Inc()
			}
			s.mu.Lock()
			s.devices[target].Probes++
			s.mu.Unlock()
			// Arm the verifier, then schedule the window-close event.
			// Both flow through eventCh under the sim lock, so the
			// verifier sees armed → (ack?) → timeout in sim order.
			tgt := target
			s.pushEvent(verifyEvent{kind: evArmed, target: tgt, at: s.attacker.sched.Now()})
			window := s.attacker.Radio.Band().SIFS() +
				phy.Airtime(phy.ControlRate(s.attacker.Rate), 14) + attributionWindow
			s.attacker.sched.Schedule(end+window, func() {
				s.pushEvent(verifyEvent{kind: evTimeout, target: tgt, at: s.attacker.sched.Now()})
			})
		})
		if !injected {
			// Transmitter busy: park on a bridged simulated-time wait
			// (one event, no OS-scheduler spinning), then retry without
			// consuming the attempt — but only MaxBusyParks times. A
			// channel that never frees used to loop here forever; now
			// the target is written off as inconclusive.
			busyParks++
			s.metrics.BusyParks.Inc()
			if busyParks > s.MaxBusyParks {
				s.closeVerdict(target, VerdictInconclusive)
				return
			}
			wait := backoffDelay(s.BusyBackoffBase, s.BusyBackoffMax, busyParks, target)
			s.metrics.BackoffUS.ObserveTime(wait)
			s.simSleep(wait, done)
			select {
			case <-done:
				return
			default:
			}
			attempt--
			continue
		}
		// Park until the verifier answers (or shutdown). The verdict
		// carries its own in-flight count, which the injector keeps
		// while it runs on.
		s.work.done()
		select {
		case <-done:
			return
		case v := <-s.verdictCh:
			if v.acked {
				s.mu.Lock()
				d := s.devices[target]
				d.Acks++
				d.Responded = true
				d.Verdict = VerdictResponded
				s.mu.Unlock()
				return
			}
			lossy = lossy || v.lossy
		}
		// Missed: the target may have been mid-transmission. Back off
		// for an exponentially growing simulated wait before the next
		// attempt.
		if attempt < s.ProbesPerDevice-1 {
			wait := backoffDelay(s.MissBackoffBase, s.MissBackoffMax, attempt+1, target)
			s.metrics.BackoffUS.ObserveTime(wait)
			s.simSleep(wait, done)
		}
	}
	// Budget spent without an ACK. Only a clean run of timeouts is
	// evidence of silence; corrupted receptions inside any attribution
	// window leave the device unclassified.
	if lossy {
		s.closeVerdict(target, VerdictInconclusive)
	} else {
		s.closeVerdict(target, VerdictSilent)
	}
}

// closeVerdict records a final non-responding verdict for a target.
func (s *ConcurrentScanner) closeVerdict(target dot11.MAC, v Verdict) {
	s.mu.Lock()
	if d, ok := s.devices[target]; ok {
		d.Verdict = v
	}
	s.mu.Unlock()
	switch v {
	case VerdictSilent:
		s.metrics.VerdictSilent.Inc()
	case VerdictInconclusive:
		s.metrics.VerdictInconclusive.Inc()
	}
}

// backoffDelay computes the nth backoff wait: base·2^(n−1) capped at
// max, plus jitter in [0, base) derived by hashing the target and
// attempt. The jitter is deliberately not drawn from the simulation
// RNG: pipeline workers interleave nondeterministically in wall time,
// and sharing a seeded stream with the simulation would make replay
// depend on the OS scheduler.
func backoffDelay(base, max eventsim.Time, n int, target dot11.MAC) eventsim.Time {
	if base <= 0 {
		return 0
	}
	d := base
	for i := 1; i < n && d < max; i++ {
		d *= 2
	}
	if max > 0 && d > max {
		d = max
	}
	h := fnv.New64a()
	h.Write(target[:])
	h.Write([]byte{byte(n), byte(n >> 8)})
	return d + eventsim.Time(h.Sum64()%uint64(base))
}

// simSleep blocks the calling worker until the simulation clock has
// advanced by d (or shutdown). The caller parks, so its in-flight
// count is released; the wake event adds it back.
func (s *ConcurrentScanner) simSleep(d eventsim.Time, done <-chan struct{}) {
	wake := make(chan struct{})
	s.bridge.Do(func() {
		s.attacker.sched.After(d, func() {
			s.work.add()
			close(wake)
		})
	})
	s.work.done()
	select {
	case <-wake:
	case <-done:
	}
}

// pushEvent enqueues a verifier event; callers hold the simulation
// lock, so enqueue order is simulated-time order. Overflow drops the
// event — the timeout token then resolves the probe negatively, which
// only costs a retry.
func (s *ConcurrentScanner) pushEvent(ev verifyEvent) {
	s.work.add()
	select {
	case s.eventCh <- ev:
		s.metrics.EventChDepth.SetInt(len(s.eventCh))
	default:
		s.work.done()
	}
}

// verifierWorker (thread 3) is a state machine over the ordered event
// stream: an armed probe is resolved by whichever of ACK or timeout
// arrives first in simulated time. The injector sends one probe at a
// time, so a single open flag suffices.
func (s *ConcurrentScanner) verifierWorker(wg *sync.WaitGroup, done <-chan struct{}) {
	defer wg.Done()
	open := false
	sawCorrupt := false
	var target dot11.MAC
	var armedAt eventsim.Time
	// firstArmed pins each target's earliest probe so an acked
	// resolution can report the full exchange latency, retries
	// included — same semantics as the cooperative scanner.
	firstArmed := make(map[dot11.MAC]eventsim.Time)
	answered := make(map[dot11.MAC]bool)
	resolve := func(acked bool, at eventsim.Time) {
		open = false
		if acked {
			s.metrics.VerdictAck.Inc()
			if !answered[target] {
				answered[target] = true
				s.metrics.ExchangeLatencyUS.ObserveTime(at - firstArmed[target])
			}
		} else {
			s.metrics.VerdictTimeout.Inc()
		}
		s.metrics.VerdictLatencyUS.ObserveTime(at - armedAt)
		s.work.add()
		select {
		case s.verdictCh <- verdict{target: target, acked: acked, lossy: sawCorrupt}:
		case <-done:
		}
	}
	for {
		select {
		case <-done:
			return
		case ev := <-s.eventCh:
			s.metrics.WorkerVerifier.Inc()
			switch ev.kind {
			case evArmed:
				open = true
				sawCorrupt = false
				target = ev.target
				armedAt = ev.at
				if _, ok := firstArmed[target]; !ok {
					firstArmed[target] = ev.at
				}
			case evAck:
				if open {
					resolve(true, ev.at)
				}
			case evCorrupt:
				// Our own radio cannot receive while transmitting, so
				// any corrupt arrival between arming and the window
				// close happened in the response slot.
				if open {
					sawCorrupt = true
				}
			case evTimeout:
				if open && ev.target == target {
					resolve(false, ev.at)
				}
			}
			s.work.done()
		}
	}
}

func (s *ConcurrentScanner) tally() Tally {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t Tally
	for _, d := range s.devices {
		t.Total++
		if d.Responded {
			t.TotalResponded++
		}
		if d.Verdict == VerdictInconclusive {
			t.Inconclusive++
		}
		if d.Kind == KindAP {
			t.APs++
			if d.Responded {
				t.APsResponded++
			} else {
				t.APsQuiet++
			}
		} else {
			t.Clients++
			if d.Responded {
				t.ClientsResponded++
			}
		}
	}
	return t
}

// Devices returns a snapshot of the discovered devices.
func (s *ConcurrentScanner) Devices() []*Device {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Device, 0, len(s.devices))
	for _, d := range s.devices {
		cp := *d
		out = append(out, &cp)
	}
	return out
}
