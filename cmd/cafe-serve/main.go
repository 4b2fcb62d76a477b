// Command cafe-serve exposes a nucleodb database as an HTTP/JSON query
// service: load one database, keep it resident, and answer /search and
// /batch requests until told to stop. SIGINT/SIGTERM drain gracefully —
// the listener closes, in-flight requests finish (each bounded by its
// deadline), then the process exits.
//
// Usage:
//
//	cafe-serve -db ./mydb -addr :8080
//	curl 'localhost:8080/search?q=ACGTTGCA...&limit=5'
//	curl -d '{"queries":["ACGT...","TTGC..."]}' localhost:8080/batch
//
// Endpoints: /search, /batch, /healthz, /metrics, /debug/vars.
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

	"nucleodb"
	"nucleodb/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cafe-serve: ")

	defaults := server.DefaultConfig()
	var (
		dbDir      = flag.String("db", "", "database directory (required)")
		addr       = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		paged      = flag.Bool("paged", false, "read posting lists from disk on demand instead of loading the index")
		timeout    = flag.Duration("timeout", defaults.DefaultTimeout, "default per-request search deadline")
		maxTimeout = flag.Duration("maxtimeout", defaults.MaxTimeout, "cap on client-requested ?timeout=")
		workers    = flag.Int("workers", defaults.Workers, "concurrent searches")
		queue      = flag.Int("queue", defaults.QueueDepth, "requests allowed to wait for a worker before shedding with 429")
		cacheSize  = flag.Int("cache", defaults.CacheSize, "result cache capacity in entries (0 disables)")
		candidates = flag.Int("candidates", defaults.Options.Candidates, "default coarse-phase candidate budget")
		limit      = flag.Int("limit", defaults.Options.Limit, "default answers per query")
		compact    = flag.Bool("compact", true, "run the background compactor: fold accumulated segments while serving (visible as segments_total in /metrics)")
		maxSegs    = flag.Int("max-segments", 0, "compaction trigger: fold while more than this many segments (0 = library default)")
		drain      = flag.Duration("drain", 10*time.Second, "graceful shutdown grace period")
	)
	flag.Parse()
	if *dbDir == "" {
		flag.Usage()
		os.Exit(2)
	}

	open := nucleodb.Open
	if *paged {
		open = nucleodb.OpenPaged
	}
	db, err := open(*dbDir, nucleodb.DefaultScoring())
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	if *maxSegs > 0 {
		db.SetMaxSegments(*maxSegs)
	}
	if *compact {
		// Searches keep answering against their snapshot while the
		// compactor folds segments and swaps in the merged set.
		db.StartCompactor(func(err error) { log.Printf("compact: %v", err) })
		if n := db.NumSegments(); n > 1 {
			log.Printf("background compactor running (%d segments)", n)
		}
	}

	cfg := defaults
	cfg.DefaultTimeout = *timeout
	cfg.MaxTimeout = *maxTimeout
	cfg.Workers = *workers
	cfg.QueueDepth = *queue
	cfg.CacheSize = *cacheSize
	cfg.Options.Candidates = *candidates
	cfg.Options.Limit = *limit
	srv, err := server.New(db, cfg)
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	stats := db.Stats()
	log.Printf("serving %d sequences (%d bases) with %d workers, queue %d, cache %d",
		stats.NumSequences, stats.TotalBases, cfg.Workers, cfg.QueueDepth, cfg.CacheSize)
	// The harness and operators parse this line for the bound port, so
	// it stays on one line and names the resolved address.
	log.Printf("listening on http://%s", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("draining (up to %v)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Fatalf("drain: %v", err)
	}
	cs := srv.CacheStats()
	log.Printf("drained; cache served %d hits / %d misses (%.0f%% hit rate)",
		cs.Hits, cs.Misses, 100*cs.HitRate())
}
