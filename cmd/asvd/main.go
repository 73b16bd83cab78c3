// Command asvd serves the adaptive storage view engine over HTTP: a
// zero-dependency JSON API with per-tenant catalogs and scatter-gather
// sharding, built entirely from the standard library.
//
// Usage:
//
//	asvd                         # serve on 127.0.0.1:7070
//	asvd -addr :8080             # all interfaces
//	asvd -max-queued 512         # tighter per-tenant update backpressure
//
// Tenants are namespaces, created lazily on first reference: every data
// route lives under /t/{tenant}/.... Each tenant owns a private
// engine instance (its own simulated kernel and address space), and each
// column can be split across N engine shards whose answers are
// scatter-gathered back into one result.
//
// A quick tour against a running daemon:
//
//	curl -s -XPOST localhost:7070/t/acme/columns \
//	  -d '{"name":"m","pages":4096,"shards":4,"fill":{"dist":"sine","seed":42,"lo":0,"hi":100000000}}'
//	curl -s -XPOST localhost:7070/t/acme/columns/m/query \
//	  -d '{"lo":1000000,"hi":2000000,"aggregate":true}'
//	curl -s localhost:7070/metrics
//
// SIGINT or SIGTERM shuts down gracefully: the listener stops accepting,
// every in-flight request drains (bounded by -shutdown-timeout), and the
// tenant catalog is closed — in that order, so no request ever observes
// a half-closed engine.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/asv-db/asv/internal/serve"
)

func main() {
	var (
		addr            = flag.String("addr", "127.0.0.1:7070", "listen address")
		maxBody         = flag.Int64("max-body", 0, "request body cap in bytes (default 1 MiB)")
		maxRows         = flag.Int("max-rows", 0, "row IDs returned per query response before truncation (default 4096)")
		maxBatch        = flag.Int("max-batch", 0, "writes accepted per update request (default 4096)")
		maxQueued       = flag.Int("max-queued", 0, "per-tenant queued updates before 429 backpressure (default 4096)")
		maxPages        = flag.Int("max-pages", 0, "pages per created column (default 1048576)")
		shutdownTimeout = flag.Duration("shutdown-timeout", 30*time.Second, "in-flight request drain budget on SIGINT/SIGTERM")
	)
	flag.Parse()

	srv := serve.NewServer(serve.ServerConfig{Limits: serve.Limits{
		MaxBodyBytes: *maxBody,
		MaxRows:      *maxRows,
		MaxBatch:     *maxBatch,
		MaxQueued:    *maxQueued,
		MaxPages:     *maxPages,
	}})
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "asvd:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "asvd: serving on %s\n", l.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		// The listener died underneath us; nothing left to drain.
		fmt.Fprintln(os.Stderr, "asvd:", err)
		os.Exit(1)
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "asvd: %s, draining (budget %s)\n", s, *shutdownTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "asvd: shutdown:", err)
		os.Exit(1)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "asvd: serve:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "asvd: drained clean")
}
