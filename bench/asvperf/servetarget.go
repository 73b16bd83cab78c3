package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	asv "github.com/asv-db/asv"
	"github.com/asv-db/asv/internal/obs"
	"github.com/asv-db/asv/internal/serve"
)

// opHeader joins a client span to the handler span of the same request.
const opHeader = "X-Bench-Op"

// serveColumn is the column every tenant gets.
const serveColumn = "c"

// httpTarget is serve.Server on a loopback listener with one keep-alive
// HTTP client per benchmark client. Tenants are addressed in path form
// (/t/{tenant}/...). With traced set, the benchmark serves the server's
// handler through its own http.Server so that its middleware can record a
// serve.handler span per request.
type httpTarget struct {
	srv     *serve.Server
	own     *http.Server // traced only
	served  chan error
	base    string
	tenants []string
	pages   int
	clients []*http.Client

	nextID atomic.Uint64
	spans  sync.Map // op id -> *obs.Span of the handler
}

func newHTTPTarget(tenants, clients int, traced bool) (*httpTarget, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t := &httpTarget{
		srv:    serve.NewServer(serve.ServerConfig{}),
		served: make(chan error, 1),
		base:   "http://" + l.Addr().String(),
	}
	if traced {
		t.own = &http.Server{Handler: t.recordHandlerSpans(t.srv.Handler())}
		go func() { t.served <- t.own.Serve(l) }()
	} else {
		go func() { t.served <- t.srv.Serve(l) }()
	}
	for i := 0; i < tenants; i++ {
		t.tenants = append(t.tenants, "tenant"+strconv.Itoa(i))
	}
	for i := 0; i < clients; i++ {
		t.clients = append(t.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}})
	}
	return t, nil
}

// recordHandlerSpans is the benchmark's middleware around Server.Handler():
// a request carrying opHeader leaves a serve.handler span under its id.
func (t *httpTarget) recordHandlerSpans(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(opHeader)
		if id == "" {
			next.ServeHTTP(w, r)
			return
		}
		sp := obs.NewTrace("serve.handler").Root
		next.ServeHTTP(w, r)
		sp.Finish()
		t.spans.Store(id, sp)
	})
}

// post sends one JSON request and returns the body of a 2xx reply.
func (t *httpTarget) post(client int, path string, body []byte, id string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, t.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set(opHeader, id)
	}
	resp, err := t.clients[client].Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func (t *httpTarget) columnPath(tenant int, verb string) string {
	return "/t/" + t.tenants[tenant] + "/columns/" + serveColumn + "/" + verb
}

// createColumns gives every tenant its sharded column, filled server-side.
func (t *httpTarget) createColumns(gens []genSpec, shards int) error {
	for i, g := range gens {
		body, err := json.Marshal(map[string]any{
			"name": serveColumn, "pages": g.pages, "shards": shards, "partitioning": "range",
			"fill": map[string]any{"dist": g.dist, "seed": g.seed, "lo": 0, "hi": domain},
		})
		if err != nil {
			return err
		}
		if _, err := t.post(0, "/t/"+t.tenants[i]+"/columns", body, ""); err != nil {
			return err
		}
		t.pages = g.pages
	}
	return nil
}

// queryReply is the part of the server's query response the benchmark reads.
type queryReply struct {
	Count         int    `json:"count"`
	Sum           uint64 `json:"sum"`
	PagesScanned  int    `json:"pages_scanned"`
	ViewsUsed     int    `json:"views_used"`
	UsedFullView  bool   `json:"used_full_view"`
	RowIDs        []int  `json:"row_ids"`
	RowsTruncated bool   `json:"rows_truncated"`
	Aggregate     *struct {
		Count int    `json:"count"`
		Sum   uint64 `json:"sum"`
	} `json:"aggregate"`
}

func (t *httpTarget) query(client int, q query, traced bool) (answer, error) {
	var (
		id string
		sp *obs.Span
	)
	if traced {
		id = strconv.FormatUint(t.nextID.Add(1), 10)
		sp = obs.NewTrace("client").Root
	}
	body := make([]byte, 0, 64)
	body = append(body, `{"lo":`...)
	body = strconv.AppendUint(body, q.lo, 10)
	body = append(body, `,"hi":`...)
	body = strconv.AppendUint(body, q.hi, 10)
	switch q.kind {
	case aggregate:
		body = append(body, `,"aggregate":true`...)
	case rows:
		body = append(body, `,"rows":true`...)
	}
	body = append(body, '}')
	data, err := t.post(client, t.columnPath(q.tenant, "query"), body, id)
	if err != nil {
		return answer{}, err
	}
	var r queryReply
	if err := json.Unmarshal(data, &r); err != nil {
		return answer{}, fmt.Errorf("query reply: %w", err)
	}
	a := answer{count: r.Count, sum: r.Sum, pages: r.PagesScanned, views: r.ViewsUsed, full: r.UsedFullView, consistent: true}
	switch q.kind {
	case aggregate:
		a.consistent = r.Aggregate != nil && r.Aggregate.Count == r.Count && r.Aggregate.Sum == r.Sum
	case rows:
		// The server truncates row IDs at Limits.MaxRows and says so.
		a.consistent = len(r.RowIDs) == r.Count || (r.RowsTruncated && len(r.RowIDs) > 0 && len(r.RowIDs) < r.Count)
	}
	if traced {
		if h, ok := t.spans.LoadAndDelete(id); ok {
			sp.Children = append(sp.Children, h.(*obs.Span))
		}
		sp.Finish()
		a.span = sp
	}
	return a, nil
}

func (t *httpTarget) write(tenant int, ws []asv.RowWrite) error {
	body := make([]byte, 0, 32*len(ws)+16)
	body = append(body, `{"writes":[`...)
	for i, w := range ws {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, `{"row":`...)
		body = strconv.AppendInt(body, int64(w.Row), 10)
		body = append(body, `,"value":`...)
		body = strconv.AppendUint(body, w.Value, 10)
		body = append(body, '}')
	}
	body = append(body, `]}`...)
	_, err := t.post(0, t.columnPath(tenant, "update"), body, "")
	return err
}

func (t *httpTarget) flush(tenant int) error {
	_, err := t.post(0, t.columnPath(tenant, "sync"), []byte(`{}`), "")
	return err
}

func (t *httpTarget) column(tenant int) (*serve.ShardedColumn, error) {
	ten, ok := t.srv.Catalog().Lookup(t.tenants[tenant])
	if !ok {
		return nil, fmt.Errorf("no tenant %q", t.tenants[tenant])
	}
	col, ok := ten.Column(serveColumn)
	if !ok {
		return nil, fmt.Errorf("tenant %q has no column", t.tenants[tenant])
	}
	return col, nil
}

// value reads through the catalog: the HTTP API has no point-read route.
func (t *httpTarget) value(tenant, row int) (uint64, error) {
	col, err := t.column(tenant)
	if err != nil {
		return 0, err
	}
	return col.Value(row)
}

func (t *httpTarget) rowsPerTenant() int { return t.pages * asv.ValuesPerPage }

// counters sums the engine_* counts over all tenants. The map_* counts are
// left at zero: the shards of a sharded column share one address space,
// and ShardedColumn.Telemetry adds that space's counters once per shard.
func (t *httpTarget) counters() counters {
	var c counters
	for i := range t.tenants {
		col, err := t.column(i)
		if err != nil {
			continue
		}
		c = c.plus(engineCounters(col.Telemetry()))
		c.views += col.Views()
	}
	return c
}

// refused is the number of non-2xx replies the server itself counted.
func (t *httpTarget) refused() uint64 {
	snap := t.srv.Registry().Snapshot()
	return snap.Counters["serve_status_4xx"] + snap.Counters["serve_status_5xx"]
}

func (t *httpTarget) close() error {
	for _, c := range t.clients {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var err error
	if t.own != nil {
		err = t.own.Shutdown(ctx)
	}
	// Server.Shutdown also closes the tenant catalog.
	if serr := t.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-t.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}
