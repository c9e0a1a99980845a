// Command primepard is a long-lived planner service over the PrimePar
// strategy search (paper §4–5): POST a model/cluster description to /v1/plan
// and get back the optimal spatial-temporal partition strategy, its cost
// breakdown and the search instrumentation. All requests share one
// cross-call search cache, so repeated and near-identical plans are served
// with zero node or edge work, and the cache persists across restarts via
// -cache-dir.
//
// Usage:
//
//	primepard -addr 127.0.0.1:7133 -cache-dir /var/cache/primepar
//	curl -s localhost:7133/v1/plan -d '{"model":"OPT-6.7B","devices":8}'
//	curl -s localhost:7133/v1/stats
//
// Endpoints (see server.go):
//
//	POST /v1/plan        — search (or serve from cache); see PlanRequest/PlanResponse
//	GET  /v1/healthz     — liveness
//	GET  /v1/stats       — cumulative counters + cache sizes + admission state
//
// With -debug-addr set, net/http/pprof's /debug/pprof/ endpoints are served
// on that second listener only, never on -addr.
//
// Each request runs under a deadline (its own deadline_ms, clamped to
// -max-timeout, defaulting to -request-timeout) and is cancelled when the
// client disconnects; identical in-flight requests are deduplicated.
//
// Admission control bounds the blast radius of bursts: at most
// -max-concurrent cold searches run, -max-queue more wait (priority, then
// FIFO, for at most -queue-timeout), and everything beyond — or whose
// deadline provably cannot be met, or arriving while the heap exceeds
// -mem-soft-limit-mb — is shed immediately with 503 + Retry-After.
// Warm-cache requests bypass the gate: they do no quadratic work. Set
// -max-concurrent 0 to disable admission entirely.
//
// SIGINT or SIGTERM drains in-flight requests and saves the cache before
// exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
)

// defaultMaxConcurrent leaves headroom for the search worker pools: each
// admitted search parallelizes internally, so admitting GOMAXPROCS searches
// would oversubscribe the machine by a quadratic factor.
func defaultMaxConcurrent() int {
	n := runtime.GOMAXPROCS(0) / 2
	if n < 1 {
		n = 1
	}
	return n
}

// loadCache loads the search cache persisted in dir at startup. A missing
// file is a silent cold start. Any other failure, a damaged file or one
// written in another PPSC version among them, is reported on stderr and
// leaves cache empty, so the daemon starts cold rather than exiting.
func loadCache(cache *core.SearchCache, dir string, stdout, stderr io.Writer) {
	start := time.Now()
	if err := cache.Load(dir); err != nil {
		if !os.IsNotExist(err) {
			fmt.Fprintf(stderr, "primepard: cache load failed (%v), starting cold\n", err)
		}
		return
	}
	took := time.Since(start)
	n, e := cache.Sizes()
	var mb float64
	if fi, err := os.Stat(filepath.Join(dir, core.CacheFileName)); err == nil {
		mb = float64(fi.Size()) / 1e6
	}
	fmt.Fprintf(stdout, "primepard: loaded search cache from %s (%d node entries, %d edge matrices, %d plans, %.1f MB in %v)\n",
		dir, n, e, cache.PlanEntries(), mb, took.Round(time.Millisecond))
}

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:7133", "listen address")
		cacheDir      = flag.String("cache-dir", "", "persist the search cache in this directory: load at startup (stale/corrupt files fall back cold), save periodically and on shutdown")
		saveEvery     = flag.Duration("save-every", 5*time.Minute, "periodic cache-save interval (0 disables; shutdown always saves)")
		reqTimeout    = flag.Duration("request-timeout", 2*time.Minute, "default per-request deadline (queue wait + search)")
		maxTimeout    = flag.Duration("max-timeout", 15*time.Minute, "upper bound on a request's deadline_ms override")
		maxConcurrent = flag.Int("max-concurrent", defaultMaxConcurrent(), "max concurrently running cold searches (0 disables admission control)")
		maxQueue      = flag.Int("max-queue", 64, "max requests waiting for a search slot before shedding with 503 queue_full")
		queueTimeout  = flag.Duration("queue-timeout", 30*time.Second, "max time a request may wait for a slot before shedding with 503 queue_timeout")
		memSoftMB     = flag.Int("mem-soft-limit-mb", 0, "soft heap watermark in MiB: above it, cold requests are shed with 503 memory_pressure while warm-cache requests keep flowing (0 disables)")
		debugAddr     = flag.String("debug-addr", "", "serve net/http/pprof under /debug/pprof/ on this separate listen address (empty disables)")
	)
	flag.Parse()

	cache := core.DefaultSearchCache
	if *cacheDir != "" {
		loadCache(cache, *cacheDir, os.Stdout, os.Stderr)
	}

	adm := admissionConfig{
		MaxConcurrent: *maxConcurrent,
		MaxQueue:      *maxQueue,
		QueueTimeout:  *queueTimeout,
		MemSoftLimit:  uint64(*memSoftMB) << 20,
	}
	s := newServer(cache, *cacheDir, *reqTimeout, *maxTimeout, adm)
	httpSrv := &http.Server{Addr: *addr, Handler: s.handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *cacheDir != "" && *saveEvery > 0 {
		go func() {
			t := time.NewTicker(*saveEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if err := s.saveCache(); err != nil {
						fmt.Fprintf(os.Stderr, "primepard: periodic cache save failed: %v\n", err)
					}
				}
			}
		}()
	}

	errc := make(chan error, 2) // one slot per listener
	go func() {
		fmt.Printf("primepard: serving on %s\n", *addr)
		errc <- httpSrv.ListenAndServe()
	}()
	if *debugAddr != "" {
		go func() {
			fmt.Printf("primepard: serving pprof on %s\n", *debugAddr)
			errc <- http.ListenAndServe(*debugAddr, debugHandler())
		}()
	}

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "primepard: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	fmt.Println("primepard: shutting down (draining in-flight requests)")
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "primepard: shutdown: %v\n", err)
	}
	if *cacheDir != "" {
		if err := s.saveCache(); err != nil {
			fmt.Fprintf(os.Stderr, "primepard: final cache save failed: %v\n", err)
			os.Exit(1)
		}
		n, e := cache.Sizes()
		fmt.Printf("primepard: saved search cache to %s (%d node entries, %d edge matrices, %d plans)\n",
			*cacheDir, n, e, cache.PlanEntries())
	}
}

// debugHandler serves net/http/pprof's endpoints from its own mux, so they
// are reachable only on -debug-addr: the package's registrations on
// http.DefaultServeMux are never served.
func debugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
