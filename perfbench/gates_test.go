package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"slices"
	"sort"
	"testing"

	"politewifi/internal/core"
	"politewifi/internal/experiments"
	"politewifi/internal/world"
)

// Every gate passes on real output and fails on the same output
// corrupted.

var errDiverged = errors.New("replay diverged: stop 0, record 12")

func tinyDrive(t *testing.T) *world.Result {
	t.Helper()
	return world.Run(driveConfig(7, 0.01, 2))
}

func TestCensusGate(t *testing.T) {
	res := tinyDrive(t)
	if err := checkCensus(res); err != nil {
		t.Fatalf("real drive fails the gate: %v", err)
	}
	if err := checkSameDigest("rerun", res, tinyDrive(t)); err != nil {
		t.Fatalf("rerun of one spec: %v", err)
	}

	silent := *res
	silent.ClientsResponded--
	silent.NonResponders = []world.DeviceOutcome{{Verdict: core.VerdictSilent}}
	if checkCensus(&silent) == nil {
		t.Error("a silent device passed the census gate")
	}
	cut := *res
	cut.Cancelled, cut.StopsDone = true, res.Stops-1
	if checkCensus(&cut) == nil {
		t.Error("a cancelled drive passed the census gate")
	}
	if checkCensus(&world.Result{}) == nil {
		t.Error("an empty drive passed the census gate")
	}

	other := *res
	other.APVendors = map[string]int{}
	for v, n := range res.APVendors {
		other.APVendors[v] = n
	}
	for v := range other.APVendors {
		other.APVendors[v]++
		break
	}
	if checkSameDigest("corrupted", res, &other) == nil {
		t.Error("a changed vendor tally kept the census digest")
	}
}

// streamedDrive runs a tiny drive with telemetry and the
// flight recorder on, as the replay workload's legs do.
func streamedDrive(t *testing.T) driveOutput {
	t.Helper()
	var tape bytes.Buffer
	out, _ := driveLeg(driveConfig(7, 0.01, 2), &timedWriter{w: &tape}, &tape)
	return out
}

func TestReplayGate(t *testing.T) {
	if _, err := runReplayJob(7, 0.01, 2, nil); err != nil {
		t.Fatalf("real record→load→replay job fails the gate: %v", err)
	}
	a, b := streamedDrive(t), streamedDrive(t)
	if err := checkReplay(a, b, nil); err != nil {
		t.Fatalf("identical legs: %v", err)
	}
	corrupt := func(p []byte) []byte {
		c := append([]byte(nil), p...)
		c[len(c)/2] ^= 1
		return c
	}
	if checkReplay(a, b, errDiverged) == nil {
		t.Error("a latched divergence passed the replay gate")
	}
	bad := b
	bad.stream = corrupt(b.stream)
	if checkReplay(a, bad, nil) == nil {
		t.Error("corrupted stream bytes passed the replay gate")
	}
	bad = b
	bad.telemetry = corrupt(b.telemetry)
	if checkReplay(a, bad, nil) == nil {
		t.Error("corrupted telemetry JSON passed the replay gate")
	}
	other := *b.result
	other.ClientsDiscovered++
	bad = b
	bad.result = &other
	if checkReplay(a, bad, nil) == nil {
		t.Error("a different census passed the replay gate")
	}
}

func TestDaemonGates(t *testing.T) {
	d, err := startDaemon(2, false)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	spec := jobSpec(7, 0.01)
	jr, err := d.runJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkJob(jr.out); err != nil {
		t.Fatalf("real job fails the gate: %v", err)
	}
	want, err := oneShot(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkJobMatchesOneShot(jr.out, want); err != nil {
		t.Fatalf("real job differs from its one-shot run: %v", err)
	}

	lines := bytes.SplitAfter(jr.out.stream, []byte("\n"))
	corruptions := map[string]func(j *jobOutput){
		"refused":   func(j *jobOutput) { j.submitCode = http.StatusTooManyRequests },
		"cancelled": func(j *jobOutput) { j.state = "cancelled" },
		"truncated": func(j *jobOutput) { j.stream = j.stream[:len(j.stream)-10] },
		"gap": func(j *jobOutput) {
			j.stream = bytes.Join(append(append([][]byte{}, lines[:1]...), lines[2:]...), nil)
		},
		"short": func(j *jobOutput) { j.stream = bytes.Join(lines[:len(lines)-2], nil) },
		"empty": func(j *jobOutput) { j.result = nil },
	}
	for name, corrupt := range corruptions {
		j := jr.out
		corrupt(&j)
		if checkJob(j) == nil {
			t.Errorf("%s job passed the job gate", name)
		}
	}
	j := jr.out
	j.result = append(append([]byte(nil), j.result...), '!')
	if checkJobMatchesOneShot(j, want) == nil {
		t.Error("a changed result passed the one-shot check")
	}
	j = jr.out
	j.stream = bytes.Replace(j.stream, []byte(`"stop":0`), []byte(`"stop":9`), 1)
	if checkJobMatchesOneShot(j, want) == nil {
		t.Error("a changed stream passed the one-shot check")
	}
}

// TestGateCountsFailure: a failed gate is a failed operation.
func TestGateCountsFailure(t *testing.T) {
	var o outcome
	o.gate(nil)
	o.gate(errDiverged)
	if o.attempted != 2 || o.failed != 1 || len(o.failures) != 1 {
		t.Fatalf("outcome = %+v", o)
	}
}

func TestLabGates(t *testing.T) {
	corrupt := map[string]func(any){
		"figure2": func(r any) { r.(*experiments.Figure2Result).Acked = false },
		"table1":  func(r any) { r.(*experiments.Table1Result).AllPolite = false },
		"figure3": func(r any) { r.(*experiments.Figure3Result).AckedBlocklist = false },
		"sifs":    func(r any) { r.(*experiments.SIFSResult).Rows[0].MeetsSIFS = true },
		"figure5": func(r any) { r.(*experiments.Figure5Result).Separable = false },
		"figure6": func(r any) { r.(*experiments.Figure6Result).ShapeHolds = false },
		"sensing": func(r any) { r.(*experiments.SensingResult).Localized = false },
		"pmf":     func(r any) { r.(*experiments.PMFResult).Rows[1].DeauthAttackWorks = true },
		"vitalsigns": func(r any) {
			r.(*experiments.VitalSignsResult).Recovered = false
		},
		"localization": func(r any) { r.(*experiments.LocalizationResult).Localized = false },
		"occupancy":    func(r any) { r.(*experiments.OccupancyResult).Accuracy = 5.0 / 6 },
		"ratesweep":    func(r any) { r.(*experiments.RateSweepResult).SaturationHz = 0 },
		"devicesweep":  func(r any) { r.(*experiments.DeviceSweepResult).Rows[0].Amplification = 1 },
	}
	if len(corrupt) != len(labPass) || len(labChecks) != len(labPass) {
		t.Fatalf("%d corruptions and %d checks for %d experiments", len(corrupt), len(labChecks), len(labPass))
	}
	for _, e := range labPass {
		res := e.run(20201104)
		if err := labChecks[e.name](res); err != nil {
			t.Errorf("%s: real result fails its gate: %v", e.name, err)
			continue
		}
		corrupt[e.name](res)
		if labChecks[e.name](res) == nil {
			t.Errorf("%s: corrupted result passed its gate", e.name)
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json's workload and
// metric tables in step with what the program prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var progNames []string
	for n := range workloads {
		progNames = append(progNames, n)
	}
	sort.Strings(names)
	sort.Strings(progNames)
	if !slices.Equal(names, progNames) {
		t.Errorf("workloads %v, program runs %v", names, progNames)
	}
	check := func(table string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: %d listed, program prints %d", table, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s[%d]: listed %s (%s), program prints %s (%s)", table, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
