package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"politewifi/internal/faults"
	"politewifi/internal/replay"
	"politewifi/internal/telemetry"
	"politewifi/internal/telemetry/stream"
	"politewifi/internal/world"
)

// The replay workload: one job is three legs over a faulted drive of
// its own city (jobSeed).
// Record runs the drive with telemetry and the flight recorder on,
// writing its frame log to memory; load parses that log; replay runs
// the same drive answered from the log. The replay leg must reproduce
// the record leg's census, telemetry JSON and stream bytes exactly.

const (
	replayScale  = 0.1
	replayFaults = "loss=0.2,ack=0.1"
)

// replayLegs are the leg timings of one job.
type replayLegs struct {
	record, load, replay time.Duration
}

// replayTrace is what the traced job exposes for the ledger; nil when
// untraced.
type replayTrace struct {
	tracer        *stopTracer
	stream, frame *timedWriter // record leg's flight recorder and frame log
	recorder      *replay.Recorder
	registry      *telemetry.Registry // record leg's telemetry
}

// driveLeg runs one drive of the replay job with telemetry and the
// flight recorder on, the stream written through sw into its buffer.
func driveLeg(cfg world.Config, sw *timedWriter, buf *bytes.Buffer) (driveOutput, *telemetry.Registry) {
	reg := telemetry.NewRegistry(nil)
	cfg.Metrics = reg
	cfg.Stream = stream.NewWriter(sw)
	res := world.Run(cfg)
	var snap bytes.Buffer
	_ = reg.Snapshot().WriteJSON(&snap) // a bytes.Buffer does not fail
	return driveOutput{result: res, telemetry: snap.Bytes(), stream: buf.Bytes()}, reg
}

// runReplayJob runs one record → load → replay job and checks it.
func runReplayJob(seed int64, scale float64, workers int, tr *replayTrace) (replayLegs, error) {
	var legs replayLegs
	fc, err := faults.ParseSpec(replayFaults)
	if err != nil {
		return legs, err
	}
	cfg := driveConfig(seed, scale, workers)
	cfg.Faults = &fc

	start := time.Now()
	var logBuf, recStream bytes.Buffer
	frameW := &timedWriter{w: &logBuf}
	streamW := &timedWriter{w: &recStream}
	rec := cfg
	rec.Record = replay.NewRecorder(frameW)
	if tr != nil {
		// Only the record leg runs through the stop tracer, so the
		// world.* rows describe one drive; the replay leg keeps the
		// Workers path.
		tr.tracer.attach(&rec)
	}
	recorded, reg := driveLeg(rec, streamW, &recStream)
	legs.record = time.Since(start)
	if tr != nil {
		tr.stream, tr.frame, tr.recorder, tr.registry = streamW, frameW, rec.Record, reg
	}

	t := time.Now()
	log, err := replay.Load(bytes.NewReader(logBuf.Bytes()))
	legs.load = time.Since(t)
	if err != nil {
		return legs, fmt.Errorf("load frame log: %w", err)
	}

	t = time.Now()
	rep := cfg
	rep.Replay = log
	var repStream bytes.Buffer
	replayed, _ := driveLeg(rep, &timedWriter{w: &repStream}, &repStream)
	legs.replay = time.Since(t)

	if err := checkComplete(recorded.result); err != nil {
		return legs, err
	}
	return legs, checkReplay(recorded, replayed, errors.Join(rec.Record.Err(), log.Err()))
}

func runReplay(opts options, traced bool) (*outcome, error) {
	out := &outcome{}
	var rec, load, rep []float64
	i := 0
	s, err := runSession(opts.untracedSeconds(traced), 1, func(k int) error {
		_, err := runReplayJob(jobSeed(opts.seed, k), 0.01, opts.workers, nil)
		return err
	}, func() []float64 {
		t := time.Now()
		legs, err := runReplayJob(jobSeed(opts.seed, i), replayScale, opts.workers, nil)
		took := time.Since(t)
		i++
		rec = append(rec, legs.record.Seconds())
		load = append(load, legs.load.Seconds())
		rep = append(rep, legs.replay.Seconds())
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

	out.values = map[string]float64{
		"replay.record_s": median(rec),
		"replay.load_s":   median(load),
		"replay.replay_s": median(rep),
	}
	tr := &replayTrace{tracer: newStopTracer(opts.workers)}
	d, err := profiled(out.values, func() {
		_, jerr := runReplayJob(jobSeed(opts.seed, 0), replayScale, opts.workers, tr)
		out.gate(jerr)
	})
	tr.tracer.close()
	if err != nil {
		return nil, err
	}
	tr.tracer.addLedger(out.values)
	addCounters(out.values, tr.registry.Snapshot())
	out.values["stream.records"] = float64(tr.stream.calls)
	out.values["stream.bytes"] = float64(tr.stream.bytes)
	out.values["stream.write_ms"] = millis(tr.stream.spent)
	out.values["replay.log_bytes"] = float64(tr.frame.bytes)
	out.values["replay.records"] = float64(tr.recorder.Records())
	out.values["replay.write_ms"] = millis(tr.frame.spent)
	finishLedger(out.values, d.cycles, d.wall.Seconds(), median(s.walls))
	return out, nil
}
