package world

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"politewifi/internal/eventsim"
	"politewifi/internal/faults"
	"politewifi/internal/replay"
	"politewifi/internal/telemetry"
	"politewifi/internal/telemetry/stream"
)

// replayTestConfig is a small faulted drive: faults exercise the
// injector's consultation/drop restoration, and the scale keeps the
// frame log a few thousand records.
func replayTestConfig() Config {
	return Config{
		Seed:              41,
		Scale:             0.006, // ~22 APs, ~9 clients, ~6 stops
		HouseholdsPerStop: 4,
		DwellPerChannel:   200 * eventsim.Millisecond,
		VehicleSpeedKmh:   40,
		Faults: func() *faults.Config {
			fc := faults.BurstyLoss(0.08)
			fc.ACKLoss = 0.05
			fc.JamDuty = 0.04
			fc.DeafDuty = 0.05
			return &fc
		}(),
	}
}

// driveArtifacts captures everything a drive emits that must be
// byte-reproducible.
type driveArtifacts struct {
	res    *Result
	stream []byte
	report []byte
}

// drive runs cfg with metrics and a stream attached, returning the
// reproducibility artifacts.
func drive(t *testing.T, cfg Config) driveArtifacts {
	t.Helper()
	cfg.Metrics = telemetry.NewRegistry(nil)
	var buf bytes.Buffer
	cfg.Stream = stream.NewWriter(&buf)
	res := Run(cfg)
	if err := cfg.Stream.Err(); err != nil {
		t.Fatalf("stream writer error: %v", err)
	}
	var rep bytes.Buffer
	if err := cfg.Metrics.Snapshot().WriteJSON(&rep); err != nil {
		t.Fatal(err)
	}
	return driveArtifacts{res: res, stream: buf.Bytes(), report: rep.Bytes()}
}

// record runs cfg with a frame-log recorder attached and returns the
// log bytes alongside the live artifacts.
func record(t *testing.T, cfg Config) ([]byte, driveArtifacts) {
	t.Helper()
	var log bytes.Buffer
	rec := replay.NewRecorder(&log)
	cfg.Record = rec
	art := drive(t, cfg)
	if err := rec.Err(); err != nil {
		t.Fatalf("recorder error: %v", err)
	}
	if rec.Records() == 0 {
		t.Fatal("recorded drive produced an empty frame log")
	}
	return log.Bytes(), art
}

// TestReplayMatchesLive is the tentpole oracle: a recorded drive,
// replayed from its frame log — at workers 1 and 4 — must reproduce the live run's census, telemetry report and
// flight-recorder stream byte for byte, and recording itself must not
// perturb the drive.
func TestReplayMatchesLive(t *testing.T) {
	cfg := replayTestConfig()
	logBytes, live := record(t, cfg)

	// Recording is a pure observer: an unrecorded drive is identical.
	plain := drive(t, cfg)
	if !reflect.DeepEqual(plain.res, live.res) {
		t.Fatalf("recording perturbed the census:\nplain: %+v\nrecorded: %+v", plain.res, live.res)
	}
	if !bytes.Equal(plain.stream, live.stream) || !bytes.Equal(plain.report, live.report) {
		t.Fatal("recording perturbed the telemetry or stream bytes")
	}

	for _, workers := range []int{1, 4} {
		log, err := replay.Load(bytes.NewReader(logBytes))
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		rcfg := replayTestConfig()
		rcfg.Workers = workers
		rcfg.Replay = log
		replayed := drive(t, rcfg)
		if err := log.Err(); err != nil {
			t.Fatalf("workers=%d: replay diverged: %v", workers, err)
		}
		if !reflect.DeepEqual(replayed.res, live.res) {
			t.Fatalf("workers=%d: replayed census differs:\nlive:    %+v\nreplayed: %+v",
				workers, live.res, replayed.res)
		}
		if !bytes.Equal(replayed.report, live.report) {
			t.Fatalf("workers=%d: replayed telemetry report differs:\nlive:\n%s\nreplayed:\n%s",
				workers, live.report, replayed.report)
		}
		if !bytes.Equal(replayed.stream, live.stream) {
			t.Fatalf("workers=%d: replayed stream differs (%d vs %d bytes)",
				workers, len(live.stream), len(replayed.stream))
		}
	}
}

// TestFramelogGolden pins the exact frame-log bytes of a small seeded
// drive — the serialized politewifi.framelog/v1 format is part of the
// repo's compatibility surface. Regenerate with:
// go test ./internal/world -run FramelogGolden -update
func TestFramelogGolden(t *testing.T) {
	cfg := Config{
		Seed:              7,
		Scale:             0.004,
		HouseholdsPerStop: 4,
		DwellPerChannel:   100 * eventsim.Millisecond,
		VehicleSpeedKmh:   40,
		Workers:           2,
	}
	var buf bytes.Buffer
	rec := replay.NewRecorder(&buf)
	rec.SetSpec([]byte(`{"kind":"drive","seed":7,"scale":0.004,"stop_size":4,"dwell_ms":100}`))
	cfg.Record = rec
	Run(cfg)
	if err := rec.Err(); err != nil {
		t.Fatalf("recorder error: %v", err)
	}

	golden := filepath.Join("testdata", "framelog_golden.ndjson")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("frame log diverged from golden (%d vs %d bytes); if the format "+
			"intentionally changed, regenerate with -update", buf.Len(), len(want))
	}

	// The golden log must replay cleanly against its own config.
	log, err := replay.Load(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("load golden: %v", err)
	}
	cfg.Record = nil
	cfg.Replay = log
	Run(cfg)
	if err := log.Err(); err != nil {
		t.Fatalf("golden log does not replay cleanly: %v", err)
	}
}

// TestReplayPositionedErrors covers the failure surface: loading a
// corrupt or truncated log reports a *replay.PosError with the line
// and byte offset, and replaying a valid log against the wrong world
// latches a *replay.DivergenceError positioned at the first
// disagreeing record.
func TestReplayPositionedErrors(t *testing.T) {
	cfg := replayTestConfig()
	logBytes, _ := record(t, cfg)
	lines := bytes.SplitAfter(logBytes, []byte("\n"))

	t.Run("corrupt-json", func(t *testing.T) {
		damaged := bytes.Join([][]byte{lines[0], lines[1], []byte("{oops\n")}, nil)
		_, err := replay.Load(bytes.NewReader(damaged))
		var pe *replay.PosError
		if !errors.As(err, &pe) {
			t.Fatalf("want *replay.PosError, got %v", err)
		}
		if pe.Record != 2 || pe.Offset == 0 {
			t.Fatalf("error not positioned at the damage: %v", pe)
		}
	})

	t.Run("chopped-record", func(t *testing.T) {
		damaged := logBytes[:len(logBytes)-len(lines[len(lines)-2])/2]
		_, err := replay.Load(bytes.NewReader(damaged))
		var pe *replay.PosError
		if !errors.As(err, &pe) {
			t.Fatalf("want *replay.PosError for a chopped tail, got %v", err)
		}
	})

	t.Run("wrong-schema", func(t *testing.T) {
		_, err := replay.Load(strings.NewReader(`{"schema":"politewifi.framelog/v0","stops":1}` + "\n"))
		var pe *replay.PosError
		if !errors.As(err, &pe) || pe.Record != 0 {
			t.Fatalf("want *replay.PosError at the head, got %v", err)
		}
	})

	t.Run("truncated-log-diverges", func(t *testing.T) {
		// Drop the last quarter of the records: the live run will ask
		// for an event past the end of some stop's shard.
		cut := bytes.Join(lines[:3*len(lines)/4], nil)
		log, err := replay.Load(bytes.NewReader(cut))
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		rcfg := replayTestConfig()
		rcfg.Replay = log
		Run(rcfg)
		var de *replay.DivergenceError
		if err := log.Err(); !errors.As(err, &de) {
			t.Fatalf("want *replay.DivergenceError, got %v", err)
		}
	})

	t.Run("wrong-seed-diverges", func(t *testing.T) {
		log, err := replay.Load(bytes.NewReader(logBytes))
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		rcfg := replayTestConfig()
		rcfg.Seed = 42 // different city, same stop count is unlikely; either error is fine
		rcfg.Replay = log
		Run(rcfg)
		if log.Err() == nil {
			t.Fatal("replaying under a different seed reported no error")
		}
	})

	t.Run("wrong-scale-fails-setup", func(t *testing.T) {
		log, err := replay.Load(bytes.NewReader(logBytes))
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		rcfg := replayTestConfig()
		rcfg.Scale = 0.012
		rcfg.Replay = log
		Run(rcfg)
		if err := log.Err(); err == nil || !strings.Contains(err.Error(), "stops") {
			t.Fatalf("want a stop-count mismatch error, got %v", err)
		}
	})
}
