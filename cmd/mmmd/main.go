// Command mmmd serves the Mixed-Mode Multicore simulation sweeps over
// HTTP: submit a named campaign, poll its progress, fetch its
// aggregated results as JSON or CSV. Completed jobs land in a
// content-addressed on-disk cache shared by every campaign, so
// re-submitted or overlapping sweeps resume from cached results
// instead of re-simulating.
//
//	mmmd -addr :8077 -cache ./mmmd-cache
//
//	curl localhost:8077/v1/catalog
//	curl -X POST localhost:8077/v1/campaigns \
//	    -d '{"name":"figure5","scale":"quick"}'
//	curl localhost:8077/v1/campaigns/c1
//	curl localhost:8077/v1/campaigns/c1/results
//	curl 'localhost:8077/v1/campaigns/c1/results?format=csv'
//	curl -X POST localhost:8077/v1/campaigns/c1/cancel
//
// Campaign routes live under /v1; /healthz, /metrics and (with -debug)
// /debug/pprof are unversioned infrastructure endpoints.
//
// With -worker, mmmd is instead one node of a simulation fleet: it
// serves the attach endpoint and pulls jobs from any coordinator that
// invites it, leasing one job per capacity slot, heartbeating while
// it simulates, and returning canonical metrics plus the job's cache
// key:
//
//	mmmd -worker -addr :8078 -name node1 -capacity 8 -cache ./w-cache
//
// A coordinator-side service shards submitted campaigns across such
// workers when started with a fleet (or when the submission names
// one):
//
//	mmmd -addr :8077 -workers node1:8078,node2:8078
//	curl -X POST localhost:8077/v1/campaigns \
//	    -d '{"name":"figure5","scale":"quick","workers":["node3:8078"]}'
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

func main() {
	var (
		addr      = flag.String("addr", ":8077", "listen address")
		cacheDir  = flag.String("cache", "mmmd-cache", "result cache directory (empty disables caching)")
		parallel  = flag.Int("parallel", runtime.NumCPU(), "worker-pool size per campaign (local execution)")
		campaigns = flag.Int("campaigns", 2, "campaigns executing concurrently")
		workers   = flag.String("workers", "", "comma-separated worker fleet (host:port,...); campaigns shard across it by default")
		coord     = flag.String("coordinator", "", "job-board bind address for distributed campaigns (host[:port]); set a host the workers can reach for cross-host fleets (default loopback; omit the port so concurrent campaigns get their own)")
		worker    = flag.Bool("worker", false, "run as a fleet worker instead of the campaign service")
		name      = flag.String("name", "", "worker name reported to coordinators (default: the listen address)")
		capacity  = flag.Int("capacity", runtime.NumCPU(), "concurrent leased jobs in -worker mode")
		debug     = flag.Bool("debug", false, "expose /debug/pprof profiling endpoints")
		journals  = flag.String("journals", "", "run-journal directory (default <cache>/journals; 'none' keeps journals in memory only)")
		traceDir  = flag.String("trace-dir", "", "write flight-recorder traces for simulated jobs here (empty disables)")
		traceSel  = flag.String("trace-match", "", "only trace jobs whose key contains this substring")
	)
	flag.Parse()

	var cache campaign.Cache
	if *cacheDir != "" {
		dc, err := campaign.NewDiskCache(*cacheDir)
		if err != nil {
			log.Fatalf("mmmd: %v", err)
		}
		cache = dc
		log.Printf("mmmd: result cache at %s", dc.Dir())
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *worker {
		runWorker(ctx, *addr, *name, *capacity, cache, *debug, *traceDir, *traceSel)
		return
	}

	// Journals persist beside the result cache by default; "none" (or
	// running cacheless without an explicit -journals) keeps the event
	// streams in memory only.
	journalDir := *journals
	switch journalDir {
	case "":
		if *cacheDir != "" {
			journalDir = filepath.Join(*cacheDir, "journals")
		}
	case "none":
		journalDir = ""
	}

	srv := newServer(ctx, cache, *parallel, *campaigns)
	srv.fleet = campaign.ParseWorkerList(*workers)
	srv.coordAddr = *coord
	srv.debug = *debug
	srv.journalDir = journalDir
	srv.traceDir = *traceDir
	srv.traceMatch = *traceSel
	if journalDir != "" {
		log.Printf("mmmd: run journals at %s", journalDir)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv.handler()}

	go func() {
		<-ctx.Done()
		// Graceful shutdown: stop accepting requests, cancel running
		// campaigns, and drain the workers. Cancelling a distributed
		// campaign revokes every outstanding worker lease before its
		// runner returns, so a SIGTERM'd coordinator leaves no orphans
		// and a restart resumes from the cache without double-counting
		// any job (completed jobs are already cached).
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shCtx); err != nil {
			log.Printf("mmmd: shutdown: %v", err)
		}
	}()

	if n := len(srv.fleet); n > 0 {
		log.Printf("mmmd: default fleet of %d workers: %v", n, srv.fleet)
	}
	log.Printf("mmmd: listening on %s (%d workers, %d concurrent campaigns)",
		*addr, *parallel, *campaigns)
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("mmmd: %v", err)
	}
	srv.drain()
	log.Print("mmmd: drained, bye")
}

// runWorker serves one fleet node until SIGINT/SIGTERM. On shutdown
// it abandons in-flight leases — coordinators expire and reassign
// them, and per-job derived seeds make the reassigned runs
// byte-identical — so killing a worker never corrupts a campaign.
func runWorker(ctx context.Context, addr, name string, capacity int, cache campaign.Cache, debug bool, traceDir, traceMatch string) {
	if name == "" {
		name = addr
	}
	// jobSeconds and traces are bound after the worker exists (the
	// registry's collector snapshots the worker's counters); Observe on
	// a nil histogram is a no-op, so the indirection is safe.
	var jobSeconds *obs.Histogram
	var traces *traceCounters
	w := campaign.NewWorker(campaign.WorkerOptions{
		Name:       name,
		Capacity:   capacity,
		Cache:      cache,
		OnJobTime:  func(d time.Duration) { jobSeconds.Observe(d.Seconds()) },
		TraceDir:   traceDir,
		TraceMatch: traceMatch,
		OnTrace:    func(total, dropped uint64) { traces.add(total, dropped) },
	})
	reg, js, tc := workerRegistry(w, time.Now())
	jobSeconds, traces = js, tc

	// Worker nodes expose the same observability surface as the
	// coordinator: /metrics always, pprof only behind -debug, mounted
	// on the worker's own mux so access-log labels are its patterns.
	mux := w.Handler()
	mux.HandleFunc("GET /metrics", metricsHandler(reg))
	if debug {
		mountPprof(mux)
	}
	httpSrv := &http.Server{Addr: addr, Handler: accessLog(mux, reg)}

	go func() {
		<-ctx.Done()
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shCtx); err != nil {
			log.Printf("mmmd worker: shutdown: %v", err)
		}
	}()

	log.Printf("mmmd worker %s: listening on %s (capacity %d)", name, addr, capacity)
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("mmmd worker: %v", err)
	}
	w.Stop()
	log.Printf("mmmd worker %s: detached, bye", name)
}
