package replay_test

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"politewifi/internal/faults"
	"politewifi/internal/replay"
	"politewifi/internal/world"
)

var (
	driveOnce sync.Once
	driveLog  []byte
	driveErr  error
	sinkLog   *replay.Log
)

// recordedDrive is the frame log of a faulted 0.1-scale drive (the
// shape perfbench's replay workload records), recorded once per test
// binary.
func recordedDrive(b *testing.B) []byte {
	driveOnce.Do(func() {
		fc, err := faults.ParseSpec("loss=0.2,ack=0.1")
		if err != nil {
			driveErr = err
			return
		}
		cfg := world.DefaultConfig()
		cfg.Seed = 20201104
		cfg.Scale = 0.1
		cfg.Faults = &fc
		var buf bytes.Buffer
		rec := replay.NewRecorder(&buf)
		cfg.Record = rec
		world.Run(cfg)
		driveLog, driveErr = buf.Bytes(), rec.Err()
	})
	if driveErr != nil {
		b.Fatal(driveErr)
	}
	return driveLog
}

// BenchmarkFrameLogLoad parses the recorded drive with Load (codec)
// and with the encoding/json reader it replaced (reference).
func BenchmarkFrameLogLoad(b *testing.B) {
	data := recordedDrive(b)
	for _, bc := range []struct {
		name string
		load func(io.Reader) (*replay.Log, error)
	}{
		{"codec", replay.Load},
		{"reference", replay.LoadReference},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l, err := bc.load(bytes.NewReader(data))
				if err != nil {
					b.Fatal(err)
				}
				sinkLog = l
			}
		})
	}
}

// BenchmarkFrameLogWrite encodes every record of the recorded drive
// through a warm Recorder, as the world's ordered merge does.
func BenchmarkFrameLogWrite(b *testing.B) {
	data := recordedDrive(b)
	l, err := replay.Load(bytes.NewReader(data))
	if err != nil {
		b.Fatal(err)
	}
	stops := replay.StopLogs(l)
	rec := replay.NewRecorder(io.Discard)
	rec.Begin(len(stops))
	write := func() {
		for _, sl := range stops {
			rec.WriteStop(sl)
		}
	}
	write() // grows the line buffer to the longest record
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		write()
	}
	b.StopTimer()
	if err := rec.Err(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*l.Records()), "ns/record")
}
