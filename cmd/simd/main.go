// Command simd serves the repo's experiments over HTTP (DESIGN.md
// §14): POST a scenario spec document to /v1/runs and get back the
// request's SHA-256 content address; fetch the structured result at
// /v1/runs/<addr> and its exact table rendering at
// /v1/runs/<addr>/render. Identical concurrent submissions coalesce
// onto one backend run, results are cached in a memory LRU backed by
// an optional content-addressed disk tier (-cache-dir) that survives
// restarts, /metrics exposes the process registry in Prometheus text
// format, and SIGTERM drains inflight runs before exiting 0.
//
//	simd [-addr :7077] [-cache-dir dir] [-cache-entries N]
//	     [-disk-bytes N] [-workers N] [-slots N]
//	     [-run-timeout d] [-drain-timeout d]
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/cache/disk"
	"repro/internal/runner"
	"repro/internal/simd"
)

// Connection timeouts: a client gets this long to send its request
// headers, and an idle keep-alive connection is closed after the
// second. Bodies and responses are not bounded here: a run's own
// deadline (-run-timeout) bounds the slow part of a request.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	os.Exit(realMain())
}

// newHTTPServer returns the HTTP server that serves h.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func realMain() int {
	var (
		addr         = flag.String("addr", ":7077", "listen address")
		cacheDir     = flag.String("cache-dir", "", "disk cache tier root directory (empty = memory tier only)")
		cacheEntries = flag.Int("cache-entries", 256, "memory tier capacity, in results")
		diskBytes    = flag.Int64("disk-bytes", 0, "disk tier size bound in bytes (0 = unbounded)")
		workers      = flag.Int("workers", 0, "concurrent backend runs (0 = GOMAXPROCS)")
		slots        = flag.Int("slots", 64, "admitted runs before submissions shed with 429")
		runTimeout   = flag.Duration("run-timeout", 10*time.Minute, "per-run execution timeout (0 = none)")
		drainTimeout = flag.Duration("drain-timeout", 60*time.Second, "how long SIGTERM waits for inflight runs")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("simd: ")

	var store *disk.Store
	if *cacheDir != "" {
		var err error
		store, err = disk.Open(*cacheDir, *diskBytes)
		if err != nil {
			log.Print(err)
			return 1
		}
		st := store.Stats()
		log.Printf("disk tier %s: %d entries, %d bytes", *cacheDir, st.Entries, st.Bytes)
	}

	// Runs get their own lifecycle context, canceled only if the drain
	// deadline expires — SIGTERM means "finish what you started", not
	// "abort mid-flight".
	runCtx, cancelRuns := context.WithCancel(context.Background())
	defer cancelRuns()
	srv := simd.New(simd.Config{
		Runner:      runner.New(*workers, nil),
		Mem:         cache.New(*cacheEntries),
		Disk:        store,
		Slots:       *slots,
		RunTimeout:  *runTimeout,
		BaseContext: runCtx,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Print(err)
		return 1
	}
	hs := newHTTPServer(srv)
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	log.Printf("listening on %s", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		log.Print(err)
		return 1
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	log.Printf("draining (timeout %s)", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Drain(dctx)
	if drainErr != nil {
		// Give up on stragglers: cancel their context so they abort at
		// the next phase boundary, then shut the listener down anyway.
		cancelRuns()
	}
	if err := hs.Shutdown(dctx); err != nil {
		hs.Close()
	}
	if drainErr != nil {
		log.Printf("drain incomplete: %v", drainErr)
		return 1
	}
	log.Print("drained, exiting")
	return 0
}
