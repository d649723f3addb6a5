package core

import (
	"politewifi/internal/telemetry"
)

// PipelineMetrics instruments the wardriving pipeline (the "pipeline"
// and "core" families). The zero value records nothing.
type PipelineMetrics struct {
	Discovered     *telemetry.Counter
	ProbesInjected *telemetry.Counter
	VerdictAck     *telemetry.Counter
	VerdictTimeout *telemetry.Counter
	// VerdictLatencyUS is the sim-time distribution from probe
	// injection to the verifier's decision.
	VerdictLatencyUS *telemetry.Histogram
	// ExchangeLatencyUS is the end-to-end latency of each verified
	// probe exchange: a target's first probe out to the first
	// SIFS-attributed response back, retries included.
	ExchangeLatencyUS *telemetry.Histogram

	// Degraded-channel verdicts, registered only via
	// EnableFaultInstruments so a pristine run's report stays
	// byte-identical: nil fields record nothing.
	VerdictSilent       *telemetry.Counter
	VerdictInconclusive *telemetry.Counter
}

// NewPipelineMetrics creates (or reattaches to) the pipeline family.
func NewPipelineMetrics(reg *telemetry.Registry) PipelineMetrics {
	return PipelineMetrics{
		Discovered:     reg.Counter("pipeline.devices_discovered", "unseen MACs added to the target list"),
		ProbesInjected: reg.Counter("pipeline.probes_injected", "fake frames sent at targets"),
		VerdictAck:     reg.Counter("pipeline.verdicts.ack", "probes answered by a SIFS-timed ACK"),
		VerdictTimeout: reg.Counter("pipeline.verdicts.timeout", "probes whose attribution window closed unanswered"),
		VerdictLatencyUS: reg.Histogram("pipeline.verdict_latency_us",
			"sim time from probe to verdict (µs)", telemetry.TimeBucketsUS),
		ExchangeLatencyUS: reg.Histogram("pipeline.exchange_latency_us",
			"sim time from a target's first probe to its verified response (µs)", telemetry.TimeBucketsUS),
	}
}

// EnableFaultInstruments registers the degraded-channel instruments
// (silent/inconclusive verdicts). They are split from
// NewPipelineMetrics on purpose: every registered instrument appears
// in the snapshot even at zero, so attaching them unconditionally
// would change the telemetry report of runs that never see a fault.
func (m *PipelineMetrics) EnableFaultInstruments(reg *telemetry.Registry) {
	m.VerdictSilent = reg.Counter("pipeline.verdicts.silent", "targets that spent a clean probe budget unanswered")
	m.VerdictInconclusive = reg.Counter("pipeline.verdicts.inconclusive", "targets without a clean verdict (lossy/contended/budget-starved)")
}

// SetMetrics installs pipeline telemetry on the scanner.
// Fault instruments stay detached; drivers running under channel
// faults add them with EnableFaultInstruments.
func (s *Scanner) SetMetrics(reg *telemetry.Registry) {
	s.metrics = NewPipelineMetrics(reg)
}

// EnableFaultInstruments attaches the degraded-channel instruments to
// the scanner. Call after SetMetrics.
func (s *Scanner) EnableFaultInstruments(reg *telemetry.Registry) {
	s.metrics.EnableFaultInstruments(reg)
}

// InstrumentInto registers the attacker's monitor-mode counters as
// sampled core.* metrics.
func (a *Attacker) InstrumentInto(reg *telemetry.Registry) {
	reg.CounterFunc("core.injected", "frames injected by the attacker", func() uint64 { return a.Injected })
	reg.CounterFunc("core.inject_drops", "injections refused (transmitter busy)", func() uint64 { return a.InjectDrops })
	reg.CounterFunc("core.frames_seen", "frames sniffed in monitor mode", func() uint64 { return a.FramesSeen })
	reg.CounterFunc("core.fcs_errors", "receptions that failed the FCS check", func() uint64 { return a.FCSErrors })
	reg.CounterFunc("core.acks_to_me", "ACKs addressed to the spoofed MAC", func() uint64 { return a.AcksToMe })
	reg.CounterFunc("core.cts_to_me", "CTS addressed to the spoofed MAC", func() uint64 { return a.CTSToMe })
	reg.CounterFunc("core.deauths_for_me", "deauths aimed at the spoofed MAC", func() uint64 { return a.DeauthsForMe })
}
