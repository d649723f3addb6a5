package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"politewifi/internal/experiments"
	"politewifi/internal/jobspec"
	"politewifi/internal/telemetry"
	"politewifi/internal/telemetry/stream"
	"politewifi/internal/world"
)

// testSpec is a drive small enough to finish in tens of milliseconds
// but large enough (~20 stops) to exercise the shared pool.
func testSpec(seed int64) jobspec.Spec {
	s := jobspec.Drive()
	s.Seed = seed
	s.Scale = 0.02
	s.DwellMS = 600
	return s
}

// cliReference runs the spec the way the one-shot CLI does — a
// private sequential pool, telemetry attached, flight recorder on —
// and returns the result, the exact stream bytes, and the registry.
func cliReference(t *testing.T, spec jobspec.Spec) (*world.Result, []byte, *telemetry.Registry) {
	t.Helper()
	cfg, err := spec.WorldConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	reg := telemetry.NewRegistry(nil)
	cfg.Metrics = reg
	var buf bytes.Buffer
	cfg.Stream = stream.NewWriter(&buf)
	res := world.Run(cfg)
	return res, buf.Bytes(), reg
}

func startDaemon(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		if err := s.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

func submitJob(t *testing.T, ts *httptest.Server, spec jobspec.Spec) Status {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %s: %s", resp.Status, b)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getStatus(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// readStream blocks until the job's tape is complete and returns its
// exact bytes.
func readStream(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream: %s: %s", resp.Status, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func postJSON(t *testing.T, ts *httptest.Server, path string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// waitState polls the status endpoint until the job reaches want.
// Each probe is a real HTTP round trip, so the loop is bounded by
// network latency, not a spin; the iteration cap turns a hung daemon
// into a test failure instead of a timeout.
func waitState(t *testing.T, ts *httptest.Server, id string, want State) Status {
	t.Helper()
	var st Status
	for i := 0; i < 200000; i++ {
		st = getStatus(t, ts, id)
		if st.State == want {
			return st
		}
	}
	t.Fatalf("job %s never reached %q (stuck at %q)", id, want, st.State)
	return st
}

// TestJobStreamMatchesCLI is the daemon's core guarantee: the NDJSON
// served over HTTP is byte-identical to the one-shot CLI's stream for
// the same spec, the folded stream reproduces the job's registry, and
// the rendered result matches the CLI report.
func TestJobStreamMatchesCLI(t *testing.T) {
	for _, faulted := range []bool{false, true} {
		name := "pristine"
		if faulted {
			name = "faulted"
		}
		t.Run(name, func(t *testing.T) {
			spec := testSpec(99)
			if faulted {
				spec.Faults = "loss=0.3,ack=0.1"
			}
			wantRes, wantStream, wantReg := cliReference(t, spec)

			for _, poolWorkers := range []int{1, 4} {
				_, ts := startDaemon(t, Config{PoolWorkers: poolWorkers, MaxActive: 2})
				st := submitJob(t, ts, spec)
				got := readStream(t, ts, st.ID)
				if !bytes.Equal(got, wantStream) {
					t.Fatalf("pool=%d: HTTP stream differs from CLI stream (%d vs %d bytes)",
						poolWorkers, len(got), len(wantStream))
				}

				// Folding the served bytes reproduces the final registry —
				// the `tail -fold` invariant over HTTP.
				fold, err := stream.Fold(bytes.NewReader(got))
				if err != nil {
					t.Fatal(err)
				}
				var folded, final bytes.Buffer
				if err := fold.Registry.Snapshot().WriteJSON(&folded); err != nil {
					t.Fatal(err)
				}
				if err := wantReg.Snapshot().WriteJSON(&final); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(folded.Bytes(), final.Bytes()) {
					t.Fatalf("pool=%d: folded HTTP stream != CLI registry snapshot", poolWorkers)
				}

				st = waitState(t, ts, st.ID, StateDone)
				if st.StopsDone != wantRes.Stops || st.Census == nil || *st.Census != wantRes.StreamTotals() {
					t.Fatalf("pool=%d: final status %+v disagrees with CLI result", poolWorkers, st)
				}

				resp, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/result")
				if err != nil {
					t.Fatal(err)
				}
				report, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if want := experiments.Table2FromResult(wantRes).Render(); string(report) != want {
					t.Fatalf("pool=%d: rendered result differs from CLI report", poolWorkers)
				}
			}
		})
	}
}

// TestConcurrentJobIsolation: two jobs with different seeds multiplex
// one shared pool; each produces the identical bytes it produces when
// run alone. Run under -race in CI.
func TestConcurrentJobIsolation(t *testing.T) {
	specA := testSpec(99)
	specB := testSpec(20201104)
	specB.Faults = "loss=0.2"
	_, wantA, _ := cliReference(t, specA)
	_, wantB, _ := cliReference(t, specB)

	_, ts := startDaemon(t, Config{PoolWorkers: 4, MaxActive: 2})
	stA := submitJob(t, ts, specA)
	stB := submitJob(t, ts, specB)

	type got struct {
		id   string
		data []byte
	}
	ch := make(chan got, 2)
	for _, id := range []string{stA.ID, stB.ID} {
		id := id
		go func() {
			resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id + "/stream")
			if err != nil {
				ch <- got{id, nil}
				return
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			ch <- got{id, data}
		}()
	}
	streams := map[string][]byte{}
	for i := 0; i < 2; i++ {
		g := <-ch
		streams[g.id] = g.data
	}
	if !bytes.Equal(streams[stA.ID], wantA) {
		t.Errorf("job A's shared-pool stream differs from its solo stream")
	}
	if !bytes.Equal(streams[stB.ID], wantB) {
		t.Errorf("job B's shared-pool stream differs from its solo stream")
	}
}

// TestQueueBackpressure: with one active slot held by a job that is
// blocked on the pool, a second job queues, a third bounces with 429
// and a Retry-After hint, and once the pool unblocks every accepted
// job completes with its solo bytes — FIFO, deterministically.
func TestQueueBackpressure(t *testing.T) {
	s, ts := startDaemon(t, Config{PoolWorkers: 1, MaxActive: 1, QueueDepth: 1})

	// Wedge the single pool worker so job-1 starts but cannot simulate.
	release := make(chan struct{})
	s.pool.Submit(func() { <-release })

	spec1, spec2 := testSpec(1), testSpec(2)
	st1 := submitJob(t, ts, spec1)
	waitState(t, ts, st1.ID, StateRunning)
	st2 := submitJob(t, ts, spec2) // fills the queue

	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json",
		strings.NewReader(`{"seed":3,"scale":0.02,"dwell_ms":600}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %s, want 429", resp.Status)
	}
	ra := resp.Header.Get("Retry-After")
	if n, err := strconv.Atoi(ra); err != nil || n < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer (zero tells clients to retry immediately)", ra)
	}

	close(release)
	got1 := readStream(t, ts, st1.ID)
	got2 := readStream(t, ts, st2.ID)
	_, want1, _ := cliReference(t, spec1)
	_, want2, _ := cliReference(t, spec2)
	if !bytes.Equal(got1, want1) || !bytes.Equal(got2, want2) {
		t.Fatal("queued jobs did not reproduce their solo streams")
	}
	if st := getStatus(t, ts, st2.ID); st.State != StateDone {
		t.Fatalf("queued job final state %q", st.State)
	}
}

// TestRetryAfterClamp: the backlog behind a 429 is sampled with len()
// after the failed send, so a concurrent drain can race it to zero; the
// hint must still be a positive number of seconds.
func TestRetryAfterClamp(t *testing.T) {
	for _, tc := range []struct{ backlog, want int }{
		{-1, 1}, {0, 1}, {1, 1}, {2, 2}, {17, 17},
	} {
		if got := retryAfterSeconds(tc.backlog); got != tc.want {
			t.Errorf("retryAfterSeconds(%d) = %d, want %d", tc.backlog, got, tc.want)
		}
	}
}

// TestCancelAndResume: cancel a job whose tasks are wedged behind the
// pool — deterministically zero stops complete — then resume it and
// verify the final tape and report are byte-identical to the job that
// was never cancelled.
func TestCancelAndResume(t *testing.T) {
	spec := testSpec(99)
	wantRes, wantStream, _ := cliReference(t, spec)

	s, ts := startDaemon(t, Config{PoolWorkers: 1, MaxActive: 1})
	release := make(chan struct{})
	s.pool.Submit(func() { <-release })

	st := submitJob(t, ts, spec)
	waitState(t, ts, st.ID, StateRunning)
	resp := postJSON(t, ts, "/api/v1/jobs/"+st.ID+"/cancel")
	resp.Body.Close()
	close(release)

	st = waitState(t, ts, st.ID, StateCancelled)
	if st.StopsDone != 0 {
		t.Fatalf("wedged cancel completed %d stops, want 0", st.StopsDone)
	}
	// The cancelled tape is well formed: it folds, and it says so.
	tape := readStream(t, ts, st.ID)
	fold, err := stream.Fold(bytes.NewReader(tape))
	if err != nil {
		t.Fatal(err)
	}
	if !fold.Cancelled || fold.Records != 0 {
		t.Fatalf("cancelled tape folds to %+v", fold)
	}
	// The rendered partial report announces the cancellation.
	rr, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	report, _ := io.ReadAll(rr.Body)
	rr.Body.Close()
	if !strings.Contains(string(report), "drive cancelled") {
		t.Fatalf("partial report does not mention cancellation:\n%s", report)
	}

	// Resume: the job continues from its last completed stop and the
	// tape converges on the uncancelled drive's bytes.
	resp = postJSON(t, ts, "/api/v1/jobs/"+st.ID+"/resume")
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("resume: %s: %s", resp.Status, b)
	}
	resp.Body.Close()
	got := readStream(t, ts, st.ID)
	if !bytes.Equal(got, wantStream) {
		t.Fatalf("resumed tape differs from the uncancelled stream (%d vs %d bytes)",
			len(got), len(wantStream))
	}
	st = waitState(t, ts, st.ID, StateDone)
	if st.StopsDone != wantRes.Stops {
		t.Fatalf("resumed job StopsDone=%d, want %d", st.StopsDone, wantRes.Stops)
	}
	rr, err = http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	report, _ = io.ReadAll(rr.Body)
	rr.Body.Close()
	if want := experiments.Table2FromResult(wantRes).Render(); string(report) != want {
		t.Fatal("resumed job's report differs from the uncancelled report")
	}
}

// TestResumeContinuesTapeBeforeReply: once resume answers 200, the
// tape has already dropped its cancellation trailer and reopened, so
// a /stream reader tails the resumed leg instead of replaying the
// finished cancelled tape. Another job holds the only scheduler slot
// on a blocked pool across the resume, so the resumed leg cannot have
// started yet: whatever the reader sees is what resume itself did.
func TestResumeContinuesTapeBeforeReply(t *testing.T) {
	spec := testSpec(99)
	_, wantStream, _ := cliReference(t, spec)

	s, ts := startDaemon(t, Config{PoolWorkers: 1, MaxActive: 1})
	release := make(chan struct{})
	s.pool.Submit(func() { <-release })
	st := submitJob(t, ts, spec)
	waitState(t, ts, st.ID, StateRunning)
	postJSON(t, ts, "/api/v1/jobs/"+st.ID+"/cancel").Body.Close()
	close(release)
	waitState(t, ts, st.ID, StateCancelled)

	// Wedge the pool again and park a second job in the only slot.
	// The cleanup unwedges it if a check below fails first, so the
	// daemon can shut down.
	wedge := make(chan struct{})
	unwedge := sync.OnceFunc(func() { close(wedge) })
	t.Cleanup(unwedge)
	s.pool.Submit(func() { <-wedge })
	other := submitJob(t, ts, testSpec(7))
	waitState(t, ts, other.ID, StateRunning)

	resp := postJSON(t, ts, "/api/v1/jobs/"+st.ID+"/resume")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resume: %s", resp.Status)
	}
	s.mu.Lock()
	j := s.jobs[st.ID]
	s.mu.Unlock()
	if tape := j.buf.snapshot(); bytes.Contains(tape, []byte(`"cancelled":true`)) {
		t.Fatalf("tape still ends in the cancellation trailer after resume returned:\n%s", tape)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/api/v1/jobs/"+st.ID+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	if sresp, err := http.DefaultClient.Do(req); err == nil {
		got, rerr := io.ReadAll(sresp.Body)
		sresp.Body.Close()
		if rerr == nil {
			t.Fatalf("stream reader finished while the resumed leg was queued (%d bytes)", len(got))
		}
	}
	if ctx.Err() == nil {
		t.Fatal("stream reader stopped before its deadline")
	}

	unwedge()
	if got := readStream(t, ts, st.ID); !bytes.Equal(got, wantStream) {
		t.Fatalf("resumed tape differs from the uncancelled stream (%d vs %d bytes)",
			len(got), len(wantStream))
	}
	waitState(t, ts, other.ID, StateDone)
}

// TestClientDisconnectDoesNotAffectJob: a reader that hangs up
// mid-stream detaches without a trace — the job completes and a fresh
// reader gets the exact solo bytes.
func TestClientDisconnectDoesNotAffectJob(t *testing.T) {
	spec := testSpec(99)
	_, want, _ := cliReference(t, spec)

	_, ts := startDaemon(t, Config{PoolWorkers: 2, MaxActive: 1})
	st := submitJob(t, ts, spec)

	// Connect, read a few bytes, hang up.
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/api/v1/jobs/"+st.ID+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	one := make([]byte, 64)
	_, _ = io.ReadFull(resp.Body, one)
	cancel()
	resp.Body.Close()

	got := readStream(t, ts, st.ID)
	if !bytes.Equal(got, want) {
		t.Fatal("a disconnected reader changed the job's stream")
	}
	final := waitState(t, ts, st.ID, StateDone)
	if final.Census == nil || final.StopsDone != final.Stops {
		t.Fatalf("job did not complete cleanly after a disconnect: %+v", final)
	}
}

// TestLossSweepJob: sweeps run as jobs too — no tape, rendered table
// identical to the direct experiment.
func TestLossSweepJob(t *testing.T) {
	spec := jobspec.LossSweep()
	spec.Seed = 99
	spec.Scale = 0.02
	spec.DwellMS = 600
	spec.Rates = []float64{0, 0.3}

	cfg, err := spec.WorldConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	want := experiments.LossSweep(cfg, spec.Rates).Render()

	_, ts := startDaemon(t, Config{PoolWorkers: 2, MaxActive: 1})
	st := submitJob(t, ts, spec)

	// Sweeps have no tape.
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("sweep stream: %s, want 409", resp.Status)
	}

	st = waitState(t, ts, st.ID, StateDone)
	if st.Points != 2 || st.Rates != 2 {
		t.Fatalf("sweep status %+v, want 2/2 points", st)
	}
	rr, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	report, _ := io.ReadAll(rr.Body)
	rr.Body.Close()
	if string(report) != want {
		t.Fatalf("sweep job table differs from direct experiment:\n%s\nwant:\n%s", report, want)
	}
}

// TestHTTPValidation covers the unhappy paths: malformed specs, typoed
// fields, unknown jobs, and resume misuse.
func TestHTTPValidation(t *testing.T) {
	_, ts := startDaemon(t, Config{PoolWorkers: 1, MaxActive: 1})

	for _, body := range []string{
		`{not json`,
		`{"sede": 7}`,
		`{"scale": 40}`,
		`{"kind":"losssweep","faults":"loss=0.1"}`,
	} {
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %q: %s, want 400", body, resp.Status)
		}
	}

	for _, path := range []string{"/api/v1/jobs/job-999", "/api/v1/jobs/job-999/stream"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: %s, want 404", path, resp.Status)
		}
	}

	// Resuming a job that is not cancelled conflicts.
	st := submitJob(t, ts, testSpec(99))
	readStream(t, ts, st.ID) // wait for completion
	waitState(t, ts, st.ID, StateDone)
	resp := postJSON(t, ts, "/api/v1/jobs/"+st.ID+"/resume")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("resume done job: %s, want 409", resp.Status)
	}
}

// TestPoolFIFO pins the pool contract world.Run's Submit path depends
// on: single-worker pools run tasks strictly in submission order, and
// Close drains everything already submitted.
func TestPoolFIFO(t *testing.T) {
	p := NewPool(1)
	var order []int
	done := make(chan struct{})
	for i := 0; i < 50; i++ {
		i := i
		p.Submit(func() {
			order = append(order, i)
			if i == 49 {
				close(done)
			}
		})
	}
	<-done
	p.Close()
	for i, v := range order {
		if v != i {
			t.Fatalf("task %d ran at position %d", v, i)
		}
	}

	// Submit after Close degrades to synchronous execution.
	ran := false
	p.Submit(func() { ran = true })
	if !ran {
		t.Fatal("post-Close Submit did not run the task")
	}
}
