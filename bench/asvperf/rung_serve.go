package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	asv "github.com/asv-db/asv"
	"github.com/asv-db/asv/internal/serve"
)

// hotReplays is how often the serve rung repeats its one narrow query at
// each boundary; the boundaries differ by microseconds.
const hotReplays = 400

// rungServe climbs from the engine to the wire with one narrow hot query
// (hotWidth of a linear column, its view in place): asv.Column, a sharded
// column of one shard, of two, the server's handler on a recorder, and the
// loopback round trip. Each rung is reported as its cost over the one
// below; core.hot_query_us is the floor they stand on.
func rungServe(l *ladder) error {
	g := genSpec{"linear", sub(l.seed, streamLadder, 7), l.pages}
	q := uniformQueries(sub(l.seed, streamLadder, 8), hotWidth, aggregate)()
	gen, err := g.generator()
	if err != nil {
		return err
	}
	var acc uint64
	hot := func(ask func() error) (time.Duration, error) {
		for i := 0; i < 2; i++ { // the first call builds the view, the second finds it
			if err := ask(); err != nil {
				return 0, err
			}
		}
		return medianOf(hotReplays, ask)
	}
	direct := func(query func(lo, hi uint64, opts ...asv.QueryOption) (asv.QueryAnswer, error)) func() error {
		return func() error {
			ans, err := query(q.lo, q.hi, kindOpts[aggregate]...)
			acc += ans.Sum
			return err
		}
	}

	db, err := asv.Open(asv.Options{})
	if err != nil {
		return err
	}
	defer func() { _ = db.Close() }() //asv:ignore-err benchmark teardown; measurement errors are returned
	col, err := db.CreateColumn("plain", l.pages, asv.DefaultConfig())
	if err != nil {
		return err
	}
	if err := col.FillParallel(gen); err != nil {
		return err
	}
	engine, err := hot(direct(col.QueryOpt))
	if err != nil {
		return err
	}
	sharded := make([]time.Duration, 3)
	for _, n := range []int{1, 2} {
		sc, err := serve.NewShardedColumn(db, fmt.Sprintf("sharded%d", n), l.pages, n, serve.RangeParts, asv.DefaultConfig())
		if err != nil {
			return err
		}
		if err := sc.Fill(gen); err != nil {
			return err
		}
		if sharded[n], err = hot(direct(sc.QueryOpt)); err != nil {
			return err
		}
	}

	// The same query through the server: two shards, as serve_http has.
	t, err := newHTTPTarget(1, 1, false)
	if err != nil {
		return err
	}
	defer func() { _ = t.close() }() //asv:ignore-err benchmark teardown; measurement errors are returned
	if err := t.createColumns([]genSpec{g}, 2); err != nil {
		return err
	}
	body := func(kind string) []byte {
		b, _ := json.Marshal(map[string]any{"lo": q.lo, "hi": q.hi, kind: true}) //asv:ignore-err marshaling a literal map of scalars cannot fail
		return b
	}
	handler := t.srv.Handler()
	var last *httptest.ResponseRecorder
	viaHandler := func(kind string) func() error {
		b := body(kind)
		return func() error {
			req := httptest.NewRequest(http.MethodPost, t.columnPath(0, "query"), bytes.NewReader(b))
			last = httptest.NewRecorder()
			handler.ServeHTTP(last, req)
			if last.Code != http.StatusOK {
				return fmt.Errorf("handler: status %d: %s", last.Code, last.Body.Bytes())
			}
			return nil
		}
	}
	inHandler, err := hot(viaHandler("aggregate"))
	if err != nil {
		return err
	}
	withRows, err := hot(viaHandler("rows"))
	if err != nil {
		return err
	}
	var reply queryReply
	if err := json.Unmarshal(last.Body.Bytes(), &reply); err != nil || len(reply.RowIDs) == 0 {
		return fmt.Errorf("rows reply: %d row ids, %v", len(reply.RowIDs), err)
	}
	overWire, err := hot(func() error {
		_, err := t.query(0, q, false)
		return err
	})
	if err != nil {
		return err
	}
	sink += acc

	l.out["core.hot_query_us"] = us(engine, 1)
	l.out["serve.shard_overhead_us"] = us(sharded[1]-engine, 1)
	l.out["serve.scatter2_overhead_us"] = us(sharded[2]-sharded[1], 1)
	l.out["serve.handler_overhead_us"] = us(inHandler-sharded[2], 1)
	l.out["serve.http_overhead_us"] = us(overWire-inHandler, 1)
	l.out["serve.rows_encode_us_per_krow"] = 1000 * us(withRows-inHandler, len(reply.RowIDs))
	return nil
}
