package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	asv "github.com/asv-db/asv"
)

// httpClient drives a server handler (or live base URL) with the JSON
// conventions of the API.
type httpClient struct {
	t      *testing.T
	base   string
	client *http.Client
}

func newTestServer(t *testing.T, cfg ServerConfig) (*Server, *httpClient) {
	t.Helper()
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		if err := s.Catalog().Close(); err != nil {
			t.Errorf("catalog close: %v", err)
		}
	})
	return s, &httpClient{t: t, base: ts.URL, client: ts.Client()}
}

// do issues one JSON request and decodes the response into out (ignored
// when nil). It returns the status code.
func (c *httpClient) do(method, path string, body, out any) int {
	c.t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			c.t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			c.t.Fatalf("%s %s: bad response %q: %v", method, path, raw, err)
		}
	}
	return resp.StatusCode
}

// must asserts the expected status.
func (c *httpClient) must(status int, method, path string, body, out any) {
	c.t.Helper()
	if got := c.do(method, path, body, out); got != status {
		c.t.Fatalf("%s %s = %d, want %d", method, path, got, status)
	}
}

// TestServeRoundTrip walks the full JSON surface on one tenant: create
// a filled sharded column, query it (rows, aggregate, trace), update,
// sync, read the server's request counters, create a view, pin and query
// a snapshot, read telemetry, close.
func TestServeRoundTrip(t *testing.T) {
	_, c := newTestServer(t, ServerConfig{})

	var info columnInfo
	c.must(http.StatusCreated, "POST", "/t/acme/columns", map[string]any{
		"name": "m", "pages": 16, "shards": 4, "partitioning": "range",
		"fill": map[string]any{"dist": "uniform", "seed": 1, "lo": 0, "hi": 1 << 20},
	}, &info)
	if info.Shards != 4 || info.Pages != 16 || info.Rows != 16*asv.ValuesPerPage || info.Partitioning != "range" {
		t.Fatalf("created column = %+v", info)
	}

	var q queryResponse
	c.must(http.StatusOK, "POST", "/t/acme/columns/m/query?trace=1",
		map[string]any{"lo": 0, "hi": 1 << 20, "rows": true, "aggregate": true}, &q)
	if q.Count != info.Rows || q.Agg == nil || q.Agg.Count != info.Rows || q.Agg.Sum != q.Sum {
		t.Fatalf("full-domain query = %+v", q)
	}
	// No view exists yet: every shard full-scans its pages.
	if q.PagesScanned != info.Pages {
		t.Fatalf("first query scanned %d pages across the shards, want all %d", q.PagesScanned, info.Pages)
	}
	if q.Trace == "" {
		t.Fatal("?trace=1 returned no trace rendering")
	}
	// Each shard's span tree is grafted under the request's root.
	for _, shard := range []string{"shard0", "shard1", "shard2", "shard3"} {
		if !strings.Contains(q.Trace, shard) {
			t.Fatalf("trace names no %s span:\n%s", shard, q.Trace)
		}
	}
	if !q.RowsTruncated || len(q.Rows) != DefaultLimits().MaxRows {
		t.Fatalf("expected MaxRows truncation, got %d rows (truncated=%v)", len(q.Rows), q.RowsTruncated)
	}

	// Point the row 7 at a sentinel outside the fill domain and find it.
	var upd map[string]any
	c.must(http.StatusOK, "POST", "/t/acme/columns/m/update",
		map[string]any{"row": 7, "value": uint64(3 << 20)}, &upd)
	if upd["accepted"] != float64(1) {
		t.Fatalf("update response = %+v", upd)
	}
	c.must(http.StatusOK, "POST", "/t/acme/columns/m/sync", nil, nil)
	c.must(http.StatusOK, "POST", "/t/acme/columns/m/query",
		map[string]any{"lo": 3 << 20, "hi": 3 << 20, "rows": true}, &q)
	if len(q.Rows) != 1 || q.Rows[0] != 7 {
		t.Fatalf("sentinel query rows = %v, want [7]", q.Rows)
	}

	// The server registry counts each request per endpoint and tenant.
	var metrics struct {
		Counters map[string]uint64 `json:"counters"`
	}
	c.must(http.StatusOK, "GET", "/metrics", nil, &metrics)
	for name, want := range map[string]uint64{
		"serve_req_column_create_acme": 1, "serve_req_query_acme": 2,
		"serve_req_update_acme": 1, "serve_req_sync_acme": 1, "serve_status_2xx": 5,
	} {
		if got := metrics.Counters[name]; got != want {
			t.Errorf("/metrics counter %s = %d, want %d", name, got, want)
		}
	}

	// Batch form.
	c.must(http.StatusOK, "POST", "/t/acme/columns/m/update", map[string]any{
		"writes": []map[string]any{{"row": 8, "value": 3 << 20}, {"row": 9, "value": 3 << 20}},
	}, &upd)
	if upd["accepted"] != float64(2) {
		t.Fatalf("batch update response = %+v", upd)
	}
	c.must(http.StatusOK, "POST", "/t/acme/columns/m/sync", nil, nil)

	var vw map[string]any
	c.must(http.StatusCreated, "POST", "/t/acme/columns/m/views",
		map[string]any{"lo": 0, "hi": 1 << 19, "lazy": false}, &vw)
	if vw["views"] == float64(0) {
		t.Fatalf("view create response = %+v", vw)
	}

	var snap map[string]string
	c.must(http.StatusCreated, "POST", "/t/acme/columns/m/snapshots", nil, &snap)
	id := snap["id"]
	var pinned, pinned2 queryResponse
	c.must(http.StatusOK, "POST", "/t/acme/columns/m/snapshots/"+id+"/query",
		map[string]any{"lo": 0, "hi": 4 << 20, "aggregate": true}, &pinned)
	c.must(http.StatusOK, "POST", "/t/acme/columns/m/update",
		map[string]any{"row": 100, "value": uint64(3 << 20)}, nil)
	c.must(http.StatusOK, "POST", "/t/acme/columns/m/sync", nil, nil)
	c.must(http.StatusOK, "POST", "/t/acme/columns/m/snapshots/"+id+"/query",
		map[string]any{"lo": 0, "hi": 4 << 20, "aggregate": true}, &pinned2)
	if !reflect.DeepEqual(pinned, pinned2) {
		t.Fatalf("pinned reads diverged:\n got %+v\nwant %+v", pinned2, pinned)
	}
	c.must(http.StatusOK, "DELETE", "/t/acme/columns/m/snapshots/"+id, nil, nil)
	c.must(http.StatusNotFound, "POST", "/t/acme/columns/m/snapshots/"+id+"/query",
		map[string]any{"lo": 0, "hi": 1}, nil)

	var tel map[string]any
	c.must(http.StatusOK, "GET", "/t/acme/columns/m/telemetry", nil, &tel)
	if len(tel) == 0 {
		t.Fatal("telemetry snapshot is empty")
	}
	c.must(http.StatusOK, "DELETE", "/t/acme/columns/m", nil, nil)
	c.must(http.StatusNotFound, "POST", "/t/acme/columns/m/query", map[string]any{"lo": 0, "hi": 1}, nil)
}

// TestServeTenantIsolation pins that tenants are separate namespaces
// (same column name, different data) and that a column route without a
// tenant in the path does not exist.
func TestServeTenantIsolation(t *testing.T) {
	_, c := newTestServer(t, ServerConfig{})
	for i, tenant := range []string{"red", "blue"} {
		c.must(http.StatusCreated, "POST", "/t/"+tenant+"/columns", map[string]any{
			"name": "col", "pages": 4, "shards": 2,
			"fill": map[string]any{"dist": "uniform", "seed": i + 1, "lo": 0, "hi": 1000},
		}, nil)
	}
	var red, blue queryResponse
	c.must(http.StatusOK, "POST", "/t/red/columns/col/query",
		map[string]any{"lo": 0, "hi": 1000, "aggregate": true}, &red)
	c.must(http.StatusOK, "POST", "/t/blue/columns/col/query",
		map[string]any{"lo": 0, "hi": 1000, "aggregate": true}, &blue)
	if red.Agg == nil || blue.Agg == nil || red.Agg.Sum == blue.Agg.Sum {
		t.Fatalf("tenants share data: red=%+v blue=%+v", red.Agg, blue.Agg)
	}

	// No tenant in the path is a 404, not a panic or a default namespace.
	c.must(http.StatusNotFound, "POST", "/columns/col/query", map[string]any{"lo": 0, "hi": 1}, nil)
	c.must(http.StatusNotFound, "GET", "/columns", nil, nil)
	c.must(http.StatusBadRequest, "POST", "/t/bad%20name/columns", map[string]any{"name": "x", "pages": 1}, nil)
}

// TestServeUpdateBackpressure pins the 429 path: with a one-write
// queue allowance and an autopilot column, hammering updates must
// surface Retry-After'd refusals rather than unbounded queue growth.
func TestServeUpdateBackpressure(t *testing.T) {
	_, c := newTestServer(t, ServerConfig{Limits: Limits{MaxQueued: 1}})
	c.must(http.StatusCreated, "POST", "/t/busy/columns", map[string]any{
		"name": "q", "pages": 8, "autopilot": true,
		"fill": map[string]any{"dist": "uniform", "seed": 9, "lo": 0, "hi": 1000},
	}, nil)
	saw429 := false
	for i := 0; i < 500 && !saw429; i++ {
		status := c.do("POST", "/t/busy/columns/q/update", map[string]any{"row": i % 100, "value": i}, nil)
		switch status {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			saw429 = true
		default:
			t.Fatalf("update %d = status %d", i, status)
		}
	}
	if !saw429 {
		t.Fatal("500 updates against a 1-write queue allowance never hit 429")
	}
	// After a sync drains the queue, writes are accepted again.
	c.must(http.StatusOK, "POST", "/t/busy/columns/q/sync", nil, nil)
	c.must(http.StatusOK, "POST", "/t/busy/columns/q/update", map[string]any{"row": 0, "value": 1}, nil)
}

// TestServeGracefulShutdown pins the drain contract on a live listener:
// every request in flight when Shutdown is called completes with a full
// 200 response; only requests issued after the drain begins may fail at
// the transport level.
func TestServeGracefulShutdown(t *testing.T) {
	s := NewServer(ServerConfig{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	c := &httpClient{t: t, base: "http://" + l.Addr().String(), client: &http.Client{}}
	c.must(http.StatusCreated, "POST", "/t/drain/columns", map[string]any{
		"name": "d", "pages": 16, "shards": 4,
		"fill": map[string]any{"dist": "uniform", "seed": 3, "lo": 0, "hi": 1 << 20},
	}, nil)

	const clients = 8
	var (
		completed    atomic.Int64
		draining     atomic.Bool
		hardFailures atomic.Int64
		wg           sync.WaitGroup
	)
	body, _ := json.Marshal(map[string]any{"lo": 0, "hi": 1 << 20, "rows": true, "aggregate": true})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{}
			for {
				resp, err := client.Post(c.base+"/t/drain/columns/d/query", "application/json", bytes.NewReader(body))
				if err != nil {
					if !draining.Load() {
						hardFailures.Add(1)
						t.Errorf("request failed before shutdown began: %v", err)
					}
					return
				}
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					// An in-flight request must never be cut off mid-drain.
					hardFailures.Add(1)
					t.Errorf("dropped in-flight request: status=%d err=%v", resp.StatusCode, err)
					return
				}
				var q queryResponse
				if jerr := json.Unmarshal(raw, &q); jerr != nil || q.Count == 0 {
					hardFailures.Add(1)
					t.Errorf("truncated response body: %q", raw)
					return
				}
				completed.Add(1)
			}
		}()
	}

	// Let the clients build up steady in-flight traffic, then drain.
	for completed.Load() < 64 {
		time.Sleep(time.Millisecond)
	}
	draining.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	wg.Wait()
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
	if hardFailures.Load() != 0 {
		t.Fatalf("%d requests dropped across shutdown (%d completed)", hardFailures.Load(), completed.Load())
	}
	// The catalog is gone: the next lifecycle starts from a fresh server.
	if names := s.Catalog().Names(); len(names) != 0 {
		t.Fatalf("tenants survived shutdown: %v", names)
	}
}

// TestServeConcurrentQueryUpdateChurn races HTTP queries against
// updates, sync, and snapshot lifecycle on a sharded autopilot tenant —
// the -race stress for the whole serve stack (the CI stress job re-runs
// Concurrent-named tests with -count=3).
func TestServeConcurrentQueryUpdateChurn(t *testing.T) {
	_, c := newTestServer(t, ServerConfig{})
	c.must(http.StatusCreated, "POST", "/t/stress/columns", map[string]any{
		"name": "s", "pages": 16, "shards": 4, "partitioning": "hash", "autopilot": true,
		"fill": map[string]any{"dist": "zipf", "seed": 5, "lo": 0, "hi": 1 << 20},
	}, nil)

	iters := 60
	if testing.Short() {
		iters = 15
	}
	var wg sync.WaitGroup
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
	}
	// Query clients: rows+aggregate over shifting ranges, some traced.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := &http.Client{}
			for i := 0; i < iters; i++ {
				lo := uint64(i*g) % (1 << 20)
				path := "/t/stress/columns/s/query"
				if i%4 == 0 {
					path += "?trace=1"
				}
				body, _ := json.Marshal(map[string]any{"lo": lo, "hi": lo + 1<<16, "rows": true, "aggregate": true})
				resp, err := client.Post(c.base+path, "application/json", bytes.NewReader(body))
				if err != nil {
					fail("query: %v", err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body) //asv:ignore-err draining a response body we only need the status of
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					fail("query status %d", resp.StatusCode)
					return
				}
			}
		}(g)
	}
	// Update clients: single writes and batches; 429 is a legal answer.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := &http.Client{}
			for i := 0; i < iters; i++ {
				var req map[string]any
				if i%3 == 0 {
					req = map[string]any{"writes": []map[string]any{
						{"row": (i + g) % 1000, "value": i}, {"row": (i + g + 1) % 1000, "value": i},
					}}
				} else {
					req = map[string]any{"row": (i * 7) % 1000, "value": i}
				}
				body, _ := json.Marshal(req)
				resp, err := client.Post(c.base+"/t/stress/columns/s/update", "application/json", bytes.NewReader(body))
				if err != nil {
					fail("update: %v", err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body) //asv:ignore-err draining a response body we only need the status of
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					fail("update status %d", resp.StatusCode)
					return
				}
			}
		}(g)
	}
	// Churn client: snapshot create → repeatable pinned read → delete,
	// with periodic syncs and view creations in between.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/2; i++ {
			var snap map[string]string
			if st := c.do("POST", "/t/stress/columns/s/snapshots", nil, &snap); st != http.StatusCreated {
				fail("snapshot create status %d", st)
				return
			}
			var a, b queryResponse
			q := map[string]any{"lo": 0, "hi": 1 << 20, "aggregate": true}
			if st := c.do("POST", "/t/stress/columns/s/snapshots/"+snap["id"]+"/query", q, &a); st != http.StatusOK {
				fail("snapshot query status %d", st)
				return
			}
			if st := c.do("POST", "/t/stress/columns/s/snapshots/"+snap["id"]+"/query", q, &b); st != http.StatusOK {
				fail("snapshot requery status %d", st)
				return
			}
			if !reflect.DeepEqual(a, b) {
				fail("pinned read not repeatable under churn: %+v vs %+v", a, b)
				return
			}
			if st := c.do("DELETE", "/t/stress/columns/s/snapshots/"+snap["id"], nil, nil); st != http.StatusOK {
				fail("snapshot delete status %d", st)
				return
			}
			if i%3 == 0 {
				if st := c.do("POST", "/t/stress/columns/s/sync", nil, nil); st != http.StatusOK {
					fail("sync status %d", st)
					return
				}
			}
			if i%5 == 0 {
				lo := uint64(i) << 14
				if st := c.do("POST", "/t/stress/columns/s/views", map[string]any{"lo": lo, "hi": lo + 1<<15}, nil); st != http.StatusCreated {
					fail("view create status %d", st)
					return
				}
			}
		}
	}()
	wg.Wait()

	var metrics map[string]any
	c.must(http.StatusOK, "GET", "/metrics", nil, &metrics)
	if len(metrics) == 0 {
		t.Fatal("server registry recorded nothing under load")
	}
}

// TestServeShardCap pins the bound on one column's shard count: a create
// asking for more than maxShards shards is refused with 400 and leaves no
// column behind, while maxShards shards are accepted.
func TestServeShardCap(t *testing.T) {
	_, c := newTestServer(t, ServerConfig{})
	c.must(http.StatusBadRequest, "POST", "/t/acme/columns", map[string]any{
		"name": "wide", "pages": maxShards + 1, "shards": maxShards + 1,
	}, nil)
	var list struct {
		Columns []columnInfo `json:"columns"`
	}
	c.must(http.StatusOK, "GET", "/t/acme/columns", nil, &list)
	if len(list.Columns) != 0 {
		t.Fatalf("refused create left columns %+v", list.Columns)
	}
	var info columnInfo
	c.must(http.StatusCreated, "POST", "/t/acme/columns", map[string]any{
		"name": "wide", "pages": maxShards, "shards": maxShards,
	}, &info)
	if info.Shards != maxShards {
		t.Fatalf("created column = %+v, want %d shards", info, maxShards)
	}
}

// TestServeQueryRejectsWorkersField pins that a query body still
// carrying the retired "workers" field is a 400 like any other unknown
// field, while the same body without it is answered.
func TestServeQueryRejectsWorkersField(t *testing.T) {
	_, c := newTestServer(t, ServerConfig{})
	c.must(http.StatusCreated, "POST", "/t/acme/columns", map[string]any{
		"name": "w", "pages": 4,
		"fill": map[string]any{"dist": "uniform", "seed": 1, "lo": 0, "hi": 1 << 20},
	}, nil)
	var e map[string]string
	c.must(http.StatusBadRequest, "POST", "/t/acme/columns/w/query",
		map[string]any{"lo": 0, "hi": 1 << 20, "workers": 2}, &e)
	if !strings.Contains(e["error"], `unknown field "workers"`) {
		t.Fatalf("error = %q, want it to name the unknown field", e["error"])
	}
	c.must(http.StatusOK, "POST", "/t/acme/columns/w/query",
		map[string]any{"lo": 0, "hi": 1 << 20}, nil)
}

// TestServeReadHeaderTimeout pins that the server bounds request-header
// reads: a client that sends only part of a request line is
// disconnected once the timeout passes.
func TestServeReadHeaderTimeout(t *testing.T) {
	s := NewServer(ServerConfig{})
	if s.srv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", s.srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	s.srv.ReadHeaderTimeout = 50 * time.Millisecond
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	defer func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveErr; err != http.ErrServerClosed {
			t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
		}
	}()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /heal")); err != nil {
		t.Fatal(err)
	}
	// Far beyond the shortened timeout: a server without one would keep
	// the connection open and the read would hit this client deadline.
	// The server may answer 400 before it hangs up; what matters is that
	// it hangs up.
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(conn); err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatal("stalled client still connected after the header timeout")
		}
		t.Fatalf("read after stall: %v", err)
	}
}

// TestServeReadTimeout pins that the server bounds whole-request reads:
// a client that sends its headers and part of the announced body, then
// stalls, is answered or disconnected once the timeout passes instead of
// holding a handler blocked on the body forever.
func TestServeReadTimeout(t *testing.T) {
	s := NewServer(ServerConfig{})
	if s.srv.ReadTimeout != readTimeout || readTimeout <= 0 {
		t.Fatalf("ReadTimeout = %v, want %v", s.srv.ReadTimeout, readTimeout)
	}
	s.srv.ReadTimeout = 50 * time.Millisecond
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	defer func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveErr; err != http.ErrServerClosed {
			t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
		}
	}()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := "POST /t/acme/columns HTTP/1.1\r\nHost: asvd\r\n" +
		"Content-Type: application/json\r\nContent-Length: 100\r\n\r\n{\"pages\":"
	if _, err := conn.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	// Far beyond the shortened timeout: a server without one would keep
	// the handler blocked on the body and this read would hit the client
	// deadline. An answer (a 400 for the cut-off body) or a hang-up both
	// show the server gave up on the stalled body.
	if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	if n, err := conn.Read(buf); n == 0 && err != nil && err != io.EOF {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatal("stalled request body still holds the connection after the read timeout")
		}
		t.Fatalf("read after stall: %v", err)
	}
}

// TestServeIdleTimeout pins that the server bounds idle keep-alive
// connections: a client that finishes a request and then sends nothing
// is disconnected once the idle timeout passes.
func TestServeIdleTimeout(t *testing.T) {
	s := NewServer(ServerConfig{})
	if s.srv.IdleTimeout != idleTimeout || idleTimeout <= 0 {
		t.Fatalf("IdleTimeout = %v, want %v", s.srv.IdleTimeout, idleTimeout)
	}
	s.srv.IdleTimeout = 50 * time.Millisecond
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	defer func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveErr; err != http.ErrServerClosed {
			t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
		}
	}()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: asvd\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Close {
		t.Fatalf("healthz = %d (close=%v), want a kept-alive 200", resp.StatusCode, resp.Close)
	}
	// Far beyond the shortened timeout: a server without one would keep
	// the idle connection open and the read would hit this deadline.
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(br); err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatal("idle keep-alive connection still open after the idle timeout")
		}
		t.Fatalf("read while idle: %v", err)
	}
}

// TestServeSnapshotCap pins the per-tenant bound on open snapshot
// handles: past maxTenantSnapshots a create is refused with 429 and
// Retry-After, closing one handle admits the next, and the refused
// snapshots leave no pin behind — closing the column afterwards returns
// promptly.
func TestServeSnapshotCap(t *testing.T) {
	// No newTestServer: its cleanups close the catalog, which a leaked pin
	// blocks, so a failure here would hang instead of being reported. The
	// server is closed by hand once the column has closed.
	s := NewServer(ServerConfig{})
	ts := httptest.NewServer(s.Handler())
	c := &httpClient{t: t, base: ts.URL, client: ts.Client()}
	c.must(http.StatusCreated, "POST", "/t/acme/columns", map[string]any{
		"name": "m", "pages": 4,
		"fill": map[string]any{"dist": "uniform", "seed": 1, "lo": 0, "hi": 1 << 20},
	}, nil)
	ids := make([]string, 0, maxTenantSnapshots)
	for len(ids) < maxTenantSnapshots {
		var snap map[string]string
		c.must(http.StatusCreated, "POST", "/t/acme/columns/m/snapshots", nil, &snap)
		ids = append(ids, snap["id"])
	}
	refuse := func() {
		t.Helper()
		resp, err := c.client.Post(c.base+"/t/acme/columns/m/snapshots", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
			t.Fatalf("snapshot over the cap = %d (Retry-After %q), want 429 with Retry-After",
				resp.StatusCode, resp.Header.Get("Retry-After"))
		}
	}
	refuse()
	c.must(http.StatusOK, "DELETE", "/t/acme/columns/m/snapshots/"+ids[0], nil, nil)
	var snap map[string]string
	c.must(http.StatusCreated, "POST", "/t/acme/columns/m/snapshots", nil, &snap)
	ids[0] = snap["id"]
	refuse()
	for _, id := range ids {
		c.must(http.StatusOK, "DELETE", "/t/acme/columns/m/snapshots/"+id, nil, nil)
	}

	// A refused snapshot that kept its pin would block the column's
	// Close forever.
	done := make(chan int, 1)
	go func() {
		req, err := http.NewRequest("DELETE", c.base+"/t/acme/columns/m", nil)
		if err != nil {
			done <- 0
			return
		}
		resp, err := c.client.Do(req)
		if err != nil {
			done <- 0
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	select {
	case status := <-done:
		if status != http.StatusOK {
			t.Fatalf("column close = %d, want 200", status)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("column close blocked: a refused snapshot leaked its pin")
	}
	ts.Close()
	if err := s.Catalog().Close(); err != nil {
		t.Fatal(err)
	}
}
