// Command govserve serves the study's datasets over HTTP: Table-2
// aggregates, per-country / per-issuer / per-category breakdowns,
// single-host lookup, and streaming JSONL export — the query surface for
// the paper's results (ROADMAP item 2).
//
// Every request pins the dataset generation it resolves, so the
// observatory's MarkDirty/ApplyDelta churn (and trust-store switches)
// swap snapshots atomically underneath live queries; hot aggregates come
// out of a sharded generation-keyed response cache.
//
// Usage:
//
//	govserve [-addr :8419] [-seed 42] [-scale 1.0] [-warm]
//	         [-cache-shards 16] [-cache-mb 64] [-no-cache]
//	         [-query-conc 256] [-export-conc 32] [-page 100]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/world"
)

func main() {
	addr := flag.String("addr", ":8419", "listen address")
	seed := flag.Int64("seed", 42, "world seed")
	scale := flag.Float64("scale", 1.0, "population scale")
	warm := flag.Bool("warm", true, "scan the worldwide dataset before listening")
	shards := flag.Int("cache-shards", 16, "response-cache shard count (rounded to a power of two)")
	cacheMB := flag.Int("cache-mb", 64, "response-cache budget in MiB")
	noCache := flag.Bool("no-cache", false, "disable the response cache")
	queryConc := flag.Int("query-conc", 256, "max in-flight query requests before 503")
	exportConc := flag.Int("export-conc", 32, "max in-flight export streams before 503")
	page := flag.Int("page", 100, "host-listing page size cap")
	flag.Parse()

	study, err := core.NewStudy(world.Config{Seed: *seed, Scale: *scale})
	if err != nil {
		fmt.Fprintln(os.Stderr, "govserve:", err)
		os.Exit(1)
	}
	if *warm {
		// Pre-scan the default dataset so the first query pays cache
		// fill, not a corpus scan.
		if _, err := study.Dataset(context.Background(), "worldwide"); err != nil {
			fmt.Fprintln(os.Stderr, "govserve:", err)
			os.Exit(1)
		}
	}

	srv := serve.New(study.Registry(), serve.Config{
		Cache:             serve.CacheConfig{Shards: *shards, MaxBytes: *cacheMB << 20},
		CacheDisabled:     *noCache,
		QueryConcurrency:  *queryConc,
		ExportConcurrency: *exportConc,
		PageLimit:         *page,
	})

	fmt.Printf("govserve: %d datasets registered, listening on %s\n",
		len(study.DatasetNames()), *addr)
	for _, name := range study.DatasetNames() {
		fmt.Printf("  dataset %s\n", name)
	}
	if err := listen(*addr, srv.Handler()); err != nil {
		fmt.Fprintln(os.Stderr, "govserve:", err)
		os.Exit(1)
	}
}

// Server limits. A client gets readHeaderTimeout to send its request
// headers and idleTimeout between requests on a kept-alive connection,
// and a request's headers may take at most maxHeaderBytes. There is no
// WriteTimeout: exports stream the whole corpus, however long a slow
// reader takes, and a write deadline would cut them off mid-stream.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 64 << 10
	drainTimeout      = 30 * time.Second
)

// listen serves h on addr until SIGINT or SIGTERM, then stops accepting
// and waits up to drainTimeout for in-flight requests to finish.
func listen(addr string, h http.Handler) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "govserve: draining")
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
