package fuzzer

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"politewifi/internal/dot11"
	"politewifi/internal/jobspec"
	"politewifi/internal/replay"
)

var updateFixture = flag.Bool("update-fuzz-fixture", false, "regenerate testdata fixtures from a fresh campaign")

// TestFuzzCleanCampaign runs a short real campaign: with no tampering,
// both oracles must hold on every drawn scenario.
func TestFuzzCleanCampaign(t *testing.T) {
	var progress bytes.Buffer
	findings, err := Run(Options{Seed: 1, Iterations: 3, Out: &progress})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("clean campaign produced findings:\n%s", progress.String())
	}
	if got := strings.Count(progress.String(), "iter "); got != 3 {
		t.Fatalf("progress log covered %d iterations, want 3:\n%s", got, progress.String())
	}
}

// tamperSeqPack re-introduces the unmasked-shift-before-pack bug class
// (the dot11.SequenceControl.Uint16 seed bug, fragment-field variant)
// at the recorder: it rewrites the first management/data frame's
// sequence-control bytes as a transmitter whose fragment counter
// overflowed its 4-bit field would have packed them — the overflow bit
// smears into the sequence number's low bit instead of wrapping.
func tamperSeqPack(recs []replay.Record) bool {
	for i := range recs {
		tx := recs[i].TX
		if tx == nil || len(tx.Data) < 24 {
			continue
		}
		fc := dot11.ParseFrameControl(uint16(tx.Data[0]) | uint16(tx.Data[1])<<8)
		if fc.Type != dot11.TypeManagement && fc.Type != dot11.TypeData {
			continue
		}
		old := uint16(tx.Data[22]) | uint16(tx.Data[23])<<8
		sc := dot11.ParseSequenceControl(old)
		buggy := uint16(sc.Fragment+0x10) | sc.Number<<4 //politevet:allow durwrap(deliberate reintroduction of the unmasked pack the fuzzer must catch)
		if buggy == old {
			continue
		}
		tx.Data[22] = byte(buggy)
		tx.Data[23] = byte(buggy >> 8)
		return true
	}
	return false
}

// TestFuzzFindsSeqPackBug points the fuzzer at a deliberately
// re-introduced seed bug (via the Tamper hook, so the shipped codec
// stays fixed) and requires it to (a) catch the divergence through the
// replay oracle, (b) shrink the scenario, and (c) emit a frame log
// small enough to commit as a fixture.
func TestFuzzFindsSeqPackBug(t *testing.T) {
	dir := t.TempDir()
	findings, err := Run(Options{Seed: 7, Iterations: 1, ArtifactDir: dir, Tamper: tamperSeqPack})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1", len(findings))
	}
	f := findings[0]
	if f.Oracle != "replay" {
		t.Fatalf("finding oracle %q, want replay", f.Oracle)
	}
	var de *replay.DivergenceError
	if !errors.As(f.Err, &de) {
		t.Fatalf("finding error %v, want a DivergenceError", f.Err)
	}
	if !strings.Contains(de.Msg, "wire bytes differ") {
		t.Fatalf("divergence %q does not blame the wire bytes", de.Msg)
	}
	if f.Records == 0 || f.Records > 20 {
		t.Fatalf("shrunk log has %d records, want 1..20", f.Records)
	}
	if f.Artifact == "" {
		t.Fatal("no artifact path recorded")
	}
	data, err := os.ReadFile(f.Artifact)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, f.Log) {
		t.Fatal("artifact file does not match the finding's log")
	}
	if _, err := os.Stat(filepath.Join(dir, "finding-0.spec.json")); err != nil {
		t.Fatal(err)
	}
}

// TestSeqPackRegressionFixture replays the committed shrunk frame log
// the campaign above produced. The fixture was recorded with the
// tampered (buggy) pack, so replaying it against today's fixed codec
// must diverge exactly where the fuzzer said it did — if the unmasked
// pack ever comes back, the recorder would produce these bytes again
// and record/replay would go quiet; this pins the detection.
func TestSeqPackRegressionFixture(t *testing.T) {
	path := filepath.Join("testdata", "seqpack_divergence.ndjson")
	if *updateFixture {
		findings, err := Run(Options{Seed: 7, Iterations: 1, Tamper: tamperSeqPack})
		if err != nil {
			t.Fatal(err)
		}
		if len(findings) != 1 || len(findings[0].Log) == 0 {
			t.Fatalf("campaign did not produce a log finding to commit")
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, findings[0].Log, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-fuzz-fixture to regenerate)", err)
	}
	log, err := replay.Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := jobspec.Decode(bytes.NewReader(log.Spec()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runLeg(spec, spec.Workers, false, log); err != nil {
		t.Fatal(err)
	}
	var de *replay.DivergenceError
	if err := log.Err(); !errors.As(err, &de) {
		t.Fatalf("fixture replay did not diverge (err %v): the buggy pack's bytes went undetected", err)
	}
	if !strings.Contains(de.Msg, "wire bytes differ") {
		t.Fatalf("fixture divergence %q does not blame the wire bytes", de.Msg)
	}
	if de.Record != len(splitLines(data))-1 {
		t.Fatalf("diverged at record line %d, want the log's last line %d", de.Record, len(splitLines(data))-1)
	}
}
