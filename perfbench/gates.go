package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"politewifi/internal/experiments"
	"politewifi/internal/telemetry/stream"
	"politewifi/internal/world"
)

// The output-correctness gates. Each returns nil when the output is
// right and an error naming what is wrong otherwise; a workload counts
// a gate error as a failed operation.

// censusDigest fingerprints a drive result: every field of the census,
// vendor tallies (sorted by encoding/json) and the ordered
// non-responder list.
func censusDigest(res *world.Result) (string, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return "", fmt.Errorf("census digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// checkComplete demands a drive ran every stop and discovered devices.
func checkComplete(res *world.Result) error {
	switch {
	case res == nil:
		return errors.New("drive returned no result")
	case res.Cancelled || res.StopsDone != res.Stops:
		return fmt.Errorf("drive ended after %d of %d stops", res.StopsDone, res.Stops)
	case res.Total() == 0:
		return errors.New("drive discovered no devices")
	}
	return nil
}

// checkCensus holds a completed pristine drive to the paper's Table 2
// finding: every discovered device responded.
func checkCensus(res *world.Result) error {
	if err := checkComplete(res); err != nil {
		return err
	}
	if res.TotalResponded() != res.Total() || len(res.NonResponders) != 0 {
		return fmt.Errorf("%d of %d discovered devices responded (%d non-responders)",
			res.TotalResponded(), res.Total(), len(res.NonResponders))
	}
	return nil
}

// checkSameDigest demands two runs of one spec produced one census.
func checkSameDigest(what string, a, b *world.Result) error {
	da, err := censusDigest(a)
	if err != nil {
		return err
	}
	db, err := censusDigest(b)
	if err != nil {
		return err
	}
	if da != db {
		return fmt.Errorf("%s: census digests differ (%s vs %s)", what, da[:12], db[:12])
	}
	return nil
}

// driveOutput is everything a drive leg of the replay workload
// produces.
type driveOutput struct {
	result    *world.Result
	telemetry []byte // final registry snapshot, JSON
	stream    []byte // flight-recorder NDJSON
}

// checkReplay demands the replay leg reproduced the record leg: no
// divergence latched in the log, and identical census, telemetry JSON
// and stream bytes.
func checkReplay(rec, rep driveOutput, logErr error) error {
	if logErr != nil {
		return fmt.Errorf("replay diverged: %w", logErr)
	}
	if err := checkSameDigest("replay vs record", rec.result, rep.result); err != nil {
		return err
	}
	if !bytes.Equal(rec.telemetry, rep.telemetry) {
		return errors.New("replay vs record: telemetry JSON differs")
	}
	if !bytes.Equal(rec.stream, rep.stream) {
		return fmt.Errorf("replay vs record: stream bytes differ at offset %d", firstDiff(rec.stream, rep.stream))
	}
	return nil
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// jobOutput is what a daemon client saw for one job.
type jobOutput struct {
	submitCode int
	state      string
	stream     []byte
	result     []byte
}

// checkJob demands a daemon job was accepted, finished done, and
// streamed a tape that folds cleanly into a complete drive.
func checkJob(j jobOutput) error {
	if j.submitCode != http.StatusCreated {
		return fmt.Errorf("submit answered %d, want 201", j.submitCode)
	}
	if j.state != "done" {
		return fmt.Errorf("job ended %q, want done", j.state)
	}
	fold, err := stream.Fold(bytes.NewReader(j.stream))
	if err != nil {
		return fmt.Errorf("stream does not fold: %w", err)
	}
	if fold.Cancelled || fold.Records != fold.Stops || fold.Stops == 0 {
		return fmt.Errorf("stream folded %d of %d stops (cancelled %v)", fold.Records, fold.Stops, fold.Cancelled)
	}
	if len(j.result) == 0 {
		return errors.New("empty result")
	}
	return nil
}

// checkJobMatchesOneShot demands a daemon job's tape and result are
// byte-identical to a one-shot world.Run of the same spec.
func checkJobMatchesOneShot(j jobOutput, oneShot driveOutput) error {
	if !bytes.Equal(j.stream, oneShot.stream) {
		return fmt.Errorf("daemon stream differs from one-shot run at offset %d", firstDiff(j.stream, oneShot.stream))
	}
	if render := experiments.Table2FromResult(oneShot.result).Render(); string(j.result) != render {
		return errors.New("daemon result differs from one-shot report")
	}
	return nil
}

// labChecks are the pass predicates of the lab experiments: each
// experiment's headline finding, as its package tests state it.
var labChecks = map[string]func(any) error{
	"figure2": func(r any) error { return holds(r.(*experiments.Figure2Result).Acked, "fake frame acknowledged") },
	"table1":  func(r any) error { return holds(r.(*experiments.Table1Result).AllPolite, "every chipset polite") },
	"figure3": func(r any) error {
		f := r.(*experiments.Figure3Result)
		return holds(f.AckedDespite && f.AckedBlocklist, "ACKed despite deauths and blocklist")
	},
	"sifs": func(r any) error {
		s := r.(*experiments.SIFSResult)
		for _, row := range s.Rows {
			if row.MeetsSIFS {
				return errors.New("a decoder claims to meet SIFS")
			}
		}
		return holds(s.RTSElicitedCTS && !s.ValidatingAcksFakes, "fake RTS elicits CTS; validator ACKs no fakes")
	},
	"figure5": func(r any) error { return holds(r.(*experiments.Figure5Result).Separable, "activity phases separable") },
	"figure6": func(r any) error { return holds(r.(*experiments.Figure6Result).ShapeHolds, "power curve shape holds") },
	"sensing": func(r any) error { return holds(r.(*experiments.SensingResult).Localized, "motion localised") },
	"pmf": func(r any) error {
		p := r.(*experiments.PMFResult)
		if len(p.Rows) != 2 {
			return fmt.Errorf("%d rows, want 2", len(p.Rows))
		}
		for _, row := range p.Rows {
			if !row.ForgeryAcked || !row.FakeNullAcked || !row.RTSAnswered {
				return fmt.Errorf("%s: polite behaviours changed", row.Config)
			}
		}
		return holds(p.Rows[0].DeauthAttackWorks && !p.Rows[1].DeauthAttackWorks, "deauth works without PMF only")
	},
	"vitalsigns": func(r any) error {
		return holds(r.(*experiments.VitalSignsResult).Recovered, "breathing rates recovered")
	},
	"localization": func(r any) error {
		return holds(r.(*experiments.LocalizationResult).Localized, "both methods localise")
	},
	"occupancy": func(r any) error {
		return holds(r.(*experiments.OccupancyResult).Accuracy == 1, "every home classified")
	},
	"ratesweep": func(r any) error {
		s := r.(*experiments.RateSweepResult)
		return holds(s.SaturationHz > 0 && s.SaturationHz <= 300, "accuracy saturates by 300 Hz")
	},
	"devicesweep": func(r any) error {
		d := r.(*experiments.DeviceSweepResult)
		for _, row := range d.Rows {
			if row.Amplification < 5 || row.LifetimeH >= row.AdvertisedH/5 {
				return fmt.Errorf("%s not drained (%.1fx, %.1fh of %.0fh)",
					row.Device, row.Amplification, row.LifetimeH, row.AdvertisedH)
			}
		}
		return holds(len(d.Rows) > 0, "device classes swept")
	},
}

func holds(ok bool, finding string) error {
	if !ok {
		return fmt.Errorf("finding does not hold: %s", finding)
	}
	return nil
}
