package world

import (
	"bytes"
	"reflect"
	"testing"

	"politewifi/internal/core"
	"politewifi/internal/faults"
	"politewifi/internal/telemetry"
)

// faultedTestConfig is parallelTestConfig under a mixed fault load:
// bursty loss, some ACK-only loss, interference windows, and dozing
// victims — all four impairments live at once.
func faultedTestConfig() Config {
	cfg := parallelTestConfig()
	fc := faults.BurstyLoss(0.2)
	fc.ACKLoss = 0.1
	fc.JamDuty = 0.1
	fc.DeafDuty = 0.1
	cfg.Faults = &fc
	return cfg
}

// TestWardriveFaultsParallelDeterminism extends the seed-stability
// regression to hostile channels: with every impairment enabled, the
// census, the NonResponders slice (verdicts included) and the merged
// telemetry report must still be identical between Workers:1 and
// Workers:4. Each stop's injector draws from its own pre-forked RNG,
// so worker scheduling cannot leak into fault decisions. CI runs this
// under -race.
func TestWardriveFaultsParallelDeterminism(t *testing.T) {
	cfgSeq := faultedTestConfig()
	cfgSeq.Workers = 1
	regSeq := telemetry.NewRegistry(nil)
	cfgSeq.Metrics = regSeq

	cfgPar := faultedTestConfig()
	cfgPar.Workers = 4
	regPar := telemetry.NewRegistry(nil)
	cfgPar.Metrics = regPar

	resSeq := Run(cfgSeq)
	resPar := Run(cfgPar)

	if !reflect.DeepEqual(resSeq, resPar) {
		t.Fatalf("faulted parallel result diverged from sequential:\nseq: %+v\npar: %+v", resSeq, resPar)
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
		t.Fatalf("faulted telemetry reports differ between Workers:1 and Workers:4:\nseq:\n%s\npar:\n%s",
			bufSeq.String(), bufPar.String())
	}
	// The faults family must be present — and its injector consulted.
	if c := regSeq.Snapshot().Counter("faults.consulted"); c == nil || c.Value == 0 {
		t.Fatalf("faults.consulted = %+v, want > 0", c)
	}
}

// TestWardriveFaultsOffUnchanged pins the bit-identity guarantee the
// whole feature is built around: a run with a nil Faults config and a
// run with a present-but-disabled one must equal a run built before
// fault support existed — same census, same telemetry bytes.
func TestWardriveFaultsOffUnchanged(t *testing.T) {
	plain := parallelTestConfig()
	plain.Workers = 2
	regPlain := telemetry.NewRegistry(nil)
	plain.Metrics = regPlain

	disabled := parallelTestConfig()
	disabled.Workers = 2
	disabled.Faults = &faults.Config{} // present but disabled
	regDis := telemetry.NewRegistry(nil)
	disabled.Metrics = regDis

	resPlain := Run(plain)
	resDis := Run(disabled)
	if !reflect.DeepEqual(resPlain, resDis) {
		t.Fatal("a disabled faults config changed the census")
	}

	var bufPlain, bufDis bytes.Buffer
	if err := regPlain.Snapshot().WriteJSON(&bufPlain); err != nil {
		t.Fatal(err)
	}
	if err := regDis.Snapshot().WriteJSON(&bufDis); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufPlain.Bytes(), bufDis.Bytes()) {
		t.Fatal("a disabled faults config changed the telemetry report")
	}
	// No faults family may leak into a pristine report.
	if c := regPlain.Snapshot().Counter("faults.consulted"); c != nil {
		t.Fatalf("faults.consulted registered on a pristine run: %+v", c)
	}
	if c := regPlain.Snapshot().Counter("core.fcs_errors"); c != nil {
		t.Fatalf("core.fcs_errors registered on a pristine run: %+v", c)
	}
}

// TestWardriveTotalACKLossInconclusive drives the census through a
// channel that eats every ACK/CTS: nothing can be verified, the drive
// still terminates, and discovered devices are reported inconclusive
// rather than silent — the paper's 100% response rate must degrade to
// "cannot tell", not to a fake 0% politeness result.
func TestWardriveTotalACKLossInconclusive(t *testing.T) {
	cfg := parallelTestConfig()
	cfg.Scale = 0.01
	cfg.Workers = 2
	cfg.Faults = &faults.Config{ACKLoss: 1}

	res := Run(cfg) // termination IS part of the assertion

	if res.Total() == 0 {
		t.Fatal("nothing discovered: data frames should survive ACK-only loss")
	}
	if res.TotalResponded() != 0 {
		t.Fatalf("%d devices verified through 100%% ACK loss", res.TotalResponded())
	}
	if res.Inconclusive < 1 {
		t.Fatalf("Inconclusive = %d, want lossy targets flagged", res.Inconclusive)
	}
	for _, d := range res.NonResponders {
		if d.Verdict == core.VerdictSilent && d.Probes > 0 {
			t.Fatalf("probed device %s reported silent on a channel that ate its answers", d.Spec.MAC)
		}
	}
}
