// Command politewifid serves wardrive campaigns over HTTP: a
// long-running control plane (internal/serve) that accepts the same
// job specs as the one-shot CLIs, runs them as cancellable, resumable
// jobs over one bounded global worker pool, and streams each drive's
// flight recorder live as NDJSON.
//
// Usage:
//
//	politewifid [-addr HOST:PORT] [-pool N] [-max-active N] [-queue N] [-drain SECS]
//
// Quickstart:
//
//	politewifid -addr 127.0.0.1:8011 &
//	curl -s -X POST localhost:8011/api/v1/jobs \
//	     -d '{"scale":0.05,"faults":"loss=0.3,ack=0.1"}'
//	curl -sN localhost:8011/api/v1/jobs/job-1/stream | politewifi tail -
//	curl -s  localhost:8011/api/v1/jobs/job-1/result
//
// Determinism carries through the daemon unchanged: a job's stream is
// byte-identical to `politewifi wardrive -stream` with the same spec,
// no matter the pool size or what other jobs share the pool. See
// DESIGN.md §5g.
//
// On SIGINT/SIGTERM the daemon drains gracefully: new submissions get
// 503, every job is cancelled cooperatively (each finishes the stops
// it has in flight and ends its stream with a trailer record), and
// the process exits once jobs and connections wind down or the -drain
// budget expires.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"politewifi/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8011", "listen address")
	pool := flag.Int("pool", 0, "stop-level worker pool size shared by all jobs (0 = all cores)")
	maxActive := flag.Int("max-active", 2, "jobs multiplexing the pool concurrently")
	queue := flag.Int("queue", 8, "queued-job capacity; a full queue refuses submits with 429")
	drain := flag.Int("drain", 30, "graceful-shutdown drain budget, seconds")
	flag.Parse()

	s := serve.New(serve.Config{
		PoolWorkers: *pool,
		MaxActive:   *maxActive,
		QueueDepth:  *queue,
		Now:         time.Now,
	})
	srv := &http.Server{
		Addr:    *addr,
		Handler: s,
		// Header reads and idle keep-alives time out; response writes
		// must not — the stream endpoint holds a response open for the
		// life of a job by design.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	workers := *pool
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(os.Stderr, "politewifid: listening on %s (pool=%d, max-active=%d, queue=%d)\n",
		*addr, workers, *maxActive, *queue)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "politewifid:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills us

	fmt.Fprintf(os.Stderr, "politewifid: shutting down; draining jobs (budget %ds)\n", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), time.Duration(*drain)*time.Second)
	defer cancel()
	if err := s.Shutdown(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "politewifid:", err)
	}
	if err := srv.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		srv.Close()
		fmt.Fprintln(os.Stderr, "politewifid:", err)
		os.Exit(1)
	}
}
