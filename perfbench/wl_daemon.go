package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"politewifi/internal/jobspec"
	"politewifi/internal/serve"
	"politewifi/internal/telemetry"
	"politewifi/internal/telemetry/stream"
	"politewifi/internal/world"
)

// The daemon workload: politewifid's core (serve.New, pool of
// opts.workers, default MaxActive and queue) behind a loopback HTTP
// server, driven by a closed loop of opts.workers clients. Each client
// submits a small drive job, reads its stream to EOF, fetches its
// result and only then submits its next job — how an operator tails a
// job. A job's time runs from its POST to the end of its result.

const daemonScale = 0.05

// daemon is one running server plus the HTTP client the benchmark's
// clients share (at most opts.workers connections).
type daemon struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	routes *routeTimer // traced runs only
}

// startDaemon starts a server and waits for its first /healthz. A
// traced daemon stamps job lifecycle times and times every request.
func startDaemon(workers int, traced bool) (*daemon, error) {
	cfg := serve.Config{PoolWorkers: workers}
	if traced {
		cfg.Now = time.Now
	}
	d := &daemon{srv: serve.New(cfg)}
	var h http.Handler = d.srv
	if traced {
		d.routes = &routeTimer{next: d.srv, times: map[string][]float64{}}
		h = d.routes
	}
	d.ts = httptest.NewServer(h)
	d.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers}}
	resp, err := d.client.Get(d.ts.URL + "/healthz")
	if err != nil {
		d.close()
		return nil, fmt.Errorf("healthz: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.close()
		return nil, fmt.Errorf("healthz answered %d", resp.StatusCode)
	}
	return d, nil
}

// close stops the HTTP server (waiting for in-flight requests), drains
// the daemon and drops the client's idle connections.
func (d *daemon) close() {
	d.client.CloseIdleConnections()
	d.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = d.srv.Shutdown(ctx) // every job has finished; nothing is left to drain
}

// routeName maps a request to the route its handler time is filed
// under.
func routeName(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/api/v1/jobs":
		return "submit"
	case strings.HasSuffix(r.URL.Path, "/stream"):
		return "stream"
	case strings.HasSuffix(r.URL.Path, "/result"):
		return "result"
	}
	return "other"
}

// jobRun is one client-side job: what it saw and when.
type jobRun struct {
	index     int
	spec      []byte
	out       jobOutput
	took      time.Duration // POST start to end of result
	first     time.Duration // POST start to first stream record
	queueWait time.Duration // StartedAt − SubmittedAt (traced daemon only)
}

func jobSpec(seed int64, scale float64) []byte {
	return []byte(fmt.Sprintf(`{"seed":%d,"scale":%g}`, seed, scale))
}

// firstLine is an io.Writer that notes when the first newline arrives.
type firstLine struct {
	buf  bytes.Buffer
	seen time.Time
}

func (f *firstLine) Write(p []byte) (int, error) {
	if f.seen.IsZero() && bytes.IndexByte(p, '\n') >= 0 {
		f.seen = time.Now()
	}
	return f.buf.Write(p)
}

// runJob submits spec, tails its stream, fetches its result and reads
// its final status. Transport failures are errors; HTTP answers are
// recorded for the gate.
func (d *daemon) runJob(spec []byte) (jobRun, error) {
	jr := jobRun{spec: spec}
	start := time.Now()
	resp, err := d.client.Post(d.ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		return jr, fmt.Errorf("submit: %w", err)
	}
	var st serve.Status
	jr.out.submitCode = resp.StatusCode
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || jr.out.submitCode != http.StatusCreated {
		return jr, nil
	}
	base := d.ts.URL + "/api/v1/jobs/" + st.ID

	var tape firstLine
	if err := d.get(base+"/stream", &tape); err != nil {
		return jr, err
	}
	var result bytes.Buffer
	if err := d.get(base+"/result", &result); err != nil {
		return jr, err
	}
	jr.took = time.Since(start)
	jr.first = tape.seen.Sub(start)
	jr.out.stream = tape.buf.Bytes()
	jr.out.result = result.Bytes()

	var status bytes.Buffer
	if err := d.get(base, &status); err != nil {
		return jr, err
	}
	if err := json.Unmarshal(status.Bytes(), &st); err != nil {
		return jr, fmt.Errorf("status: %w", err)
	}
	jr.out.state = string(st.State)
	if st.SubmittedAt != "" && st.StartedAt != "" {
		sub, err1 := time.Parse(time.RFC3339Nano, st.SubmittedAt)
		began, err2 := time.Parse(time.RFC3339Nano, st.StartedAt)
		if err1 == nil && err2 == nil {
			jr.queueWait = began.Sub(sub)
		}
	}
	return jr, nil
}

// get copies a 200 response body to w.
func (d *daemon) get(url string, w io.Writer) error {
	resp, err := d.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s answered %d", url, resp.StatusCode)
	}
	_, err = io.Copy(w, resp.Body)
	return err
}

// loop runs the closed loop: clients submit jobs with consecutive
// indexes from first (job i drives jobSeed(seed, i)) until the time is
// up, each client starting a new job only if its last job's pace says
// it will finish in time. It returns every job in index order and its
// transport errors.
func (d *daemon) loop(seed int64, first, clients int, seconds float64) ([]jobRun, []error) {
	shared := newDeadline(seconds)
	var next atomic.Int64
	next.Store(int64(first))
	var mu sync.Mutex
	var runs []jobRun
	var errs []error
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dl := *shared // each client paces its own jobs against the common start
			for dl.more() {
				i := int(next.Add(1) - 1)
				jr, err := d.runJob(jobSpec(jobSeed(seed, i), daemonScale))
				jr.index = i
				dl.done(jr.took)
				mu.Lock()
				runs = append(runs, jr)
				errs = append(errs, err)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// Restore index order so the byte-checked job is always job 0.
	ordered := make([]jobRun, len(runs))
	orderedErrs := make([]error, len(runs))
	for k, jr := range runs {
		ordered[jr.index-first] = jr
		orderedErrs[jr.index-first] = errs[k]
	}
	return ordered, orderedErrs
}

// oneShot runs spec as the one-shot CLI would: world.Run with
// telemetry and the flight recorder on.
func oneShot(spec []byte) (driveOutput, error) {
	s, err := jobspec.Decode(bytes.NewReader(spec))
	if err != nil {
		return driveOutput{}, err
	}
	cfg, err := s.WorldConfig()
	if err != nil {
		return driveOutput{}, err
	}
	var tape bytes.Buffer
	cfg.Metrics = telemetry.NewRegistry(nil)
	cfg.Stream = stream.NewWriter(&tape)
	res := world.Run(cfg)
	return driveOutput{result: res, stream: tape.Bytes()}, nil
}

// gateJobs checks every job, byte-checking job 0 against a one-shot
// run of its spec.
func gateJobs(out *outcome, runs []jobRun, errs []error) {
	for i, jr := range runs {
		err := errs[i]
		if err == nil {
			err = checkJob(jr.out)
		}
		if err == nil && i == 0 {
			var want driveOutput
			if want, err = oneShot(jr.spec); err == nil {
				err = checkJobMatchesOneShot(jr.out, want)
			}
		}
		if err != nil {
			err = fmt.Errorf("job %d: %w", jr.index, err)
		}
		out.gate(err)
	}
}

// daemonSlice is the length of the closed loop one round runs on the
// daemon its set-up started.
const daemonSlice = 5.0

func runDaemon(opts options, traced bool) (*outcome, error) {
	// Each set-up starts a daemon and runs one warm-up job through it;
	// each round's closed loop runs on the daemon started last. Every
	// daemon is stopped once the session is over.
	var started []*daemon
	var runs []jobRun
	var errs []error
	s, err := runSession(opts.untracedSeconds(traced), 2, func(k int) error {
		d, err := startDaemon(opts.workers, false)
		if err != nil {
			return err
		}
		started = append(started, d)
		jr, err := d.runJob(jobSpec(jobSeed(opts.seed, k), 0.02))
		if err == nil {
			err = checkJob(jr.out)
		}
		return err
	}, func() []float64 {
		d := started[len(started)-1]
		r, e := d.loop(opts.seed, len(runs), opts.workers, daemonSlice)
		runs = append(runs, r...)
		errs = append(errs, e...)
		var walls []float64
		for _, jr := range r {
			walls = append(walls, jr.took.Seconds())
		}
		return walls
	})
	for _, d := range started {
		d.close()
	}
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	gateJobs(out, runs, errs)
	if !traced {
		out.values = endToEndValues(s)
		return out, nil
	}

	var firsts []float64
	for _, jr := range runs {
		firsts = append(firsts, millis(jr.first))
	}
	out.values = map[string]float64{
		"serve.job_p90_ms":          quantile(s.walls, 0.9) * 1000,
		"serve.first_record_p50_ms": median(firsts),
	}
	td, err := startDaemon(opts.workers, true)
	if err != nil {
		return nil, err
	}
	var truns []jobRun
	var terrs []error
	d, err := profiled(out.values, func() {
		truns, terrs = td.loop(opts.seed, 0, opts.workers, opts.seconds-opts.untracedSeconds(true))
	})
	td.close()
	if err != nil {
		return nil, err
	}
	gateJobs(out, truns, terrs)

	// Fold every traced job's tape into one registry for the counters.
	reg := telemetry.NewRegistry(nil)
	var tracedWalls, waits []float64
	for _, jr := range truns {
		tracedWalls = append(tracedWalls, jr.took.Seconds())
		waits = append(waits, millis(jr.queueWait))
		out.values["stream.bytes"] += float64(len(jr.out.stream))
		if jr.out.submitCode != http.StatusCreated {
			out.values["serve.rejected"]++
			continue
		}
		if fold, err := stream.Fold(bytes.NewReader(jr.out.stream)); err == nil {
			out.values["stream.records"] += float64(fold.Records)
			if fold.Registry != nil {
				reg.MergeFrom(fold.Registry)
			}
		}
	}
	addCounters(out.values, reg.Snapshot())
	for _, route := range []string{"submit", "stream", "result"} {
		out.values["serve.handler_ms."+route] = td.routes.p50(route)
	}
	out.values["serve.queue_wait_ms_p50"] = median(waits)
	finishLedger(out.values, d.cycles, median(tracedWalls), median(s.walls))
	return out, nil
}
