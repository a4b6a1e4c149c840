// Command powersimd serves simulations over HTTP: POST a scenario Spec
// (the canonical JSON form of internal/scenario) and get back a Result
// envelope. Identical submissions — same canonical spec, seed, and
// partition count — are answered from a content-addressed cache with a
// byte-identical envelope, which simulation determinism makes safe.
//
// Every run executes under a guard.Supervisor: event/sim-time/live-pool
// budgets trip deterministically, livelocks and panics come back as
// typed JSON errors with replayable repro bundles, and one bad request
// can never wedge or kill the daemon. Admission is bounded: beyond
// -workers running and -queue waiting submissions, requests are shed
// with 429 and a Retry-After hint.
//
// Wall-clock policy lives HERE, not in the sim path: HTTP read/write
// timeouts, the shutdown grace period, and Retry-After are this
// binary's concern, while the budgets guard enforces are pure sim-time
// quantities.
//
//	powersimd -addr :8080 -cache /var/cache/powersim -max-events 50000000
//	curl -s -XPOST localhost:8080/v1/run?parts=4 -d @spec.json
//	curl -s localhost:8080/v1/stats
//
// SIGTERM/SIGINT drain gracefully: admission stops (503), in-flight
// runs finish, then the listener closes. Every cache entry is already on
// disk by then: each is written as it is made.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/guard"
	"repro/internal/serve"
	"repro/internal/sim"
)

var (
	addrFlag    = flag.String("addr", ":8080", "listen address")
	workersFlag = flag.Int("workers", 2, "concurrent simulation runs")
	queueFlag   = flag.Int("queue", 8, "submissions allowed to wait beyond the running ones")
	cacheFlag   = flag.String("cache", "", "result cache directory (empty = in-memory only)")
	reproFlag   = flag.String("repro", "", "repro bundle directory for failed runs (empty = none)")
	maxEvents   = flag.Uint64("max-events", 100_000_000, "per-run event budget (0 = unlimited)")
	maxSimUS    = flag.Int64("max-sim-us", 0, "per-run simulated-time budget in µs (0 = unlimited)")
	maxLive     = flag.Uint64("max-live-packets", 0, "per-run live pooled-packet budget (0 = unlimited)")
	retryAfter  = flag.Int("retry-after", 2, "Retry-After hint in seconds for shed requests")
	graceFlag   = flag.Duration("grace", 30*time.Second, "shutdown grace period after drain")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "powersimd:", err)
		os.Exit(1)
	}
}

func run() error {
	srv, err := serve.New(serve.Config{
		Workers:       *workersFlag,
		Queue:         *queueFlag,
		RetryAfterSec: *retryAfter,
		CacheDir:      *cacheFlag,
		ReproDir:      *reproFlag,
		Budget: guard.Budget{
			MaxEvents:      *maxEvents,
			MaxSimTime:     sim.Duration(*maxSimUS) * sim.Microsecond,
			MaxLivePackets: *maxLive,
		},
	})
	if err != nil {
		return err
	}

	hs := &http.Server{
		Addr:              *addrFlag,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		// No WriteTimeout: a cold run legitimately takes as long as its
		// budget allows; the event budget is the real bound.
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("powersimd listening on %s (workers=%d queue=%d cache=%q)",
		*addrFlag, *workersFlag, *queueFlag, *cacheFlag)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("powersimd draining")
	if err := srv.Drain(); err != nil {
		log.Printf("powersimd: drain failed: %v", err)
	}
	sctx, cancel := context.WithTimeout(context.Background(), *graceFlag)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return err
	}
	log.Printf("powersimd stopped")
	return nil
}
