package serve

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	asv "github.com/asv-db/asv"
	"github.com/asv-db/asv/internal/core"
	"github.com/asv-db/asv/internal/obs"
)

// This file is the JSON surface of the server: one request/response
// pair per endpoint over the QueryOpt / Update / Snapshot /
// CreateViewOpt facade, with the request-scoped limits and the
// per-tenant backpressure applied at the boundary.

// columnInfo is one column of a list response.
type columnInfo struct {
	Name         string `json:"name"`
	Pages        int    `json:"pages"`
	Rows         int    `json:"rows"`
	Shards       int    `json:"shards"`
	Partitioning string `json:"partitioning"`
	Views        int    `json:"views"`
	Queued       int    `json:"queued_updates"`
}

func describe(col *ShardedColumn) columnInfo {
	return columnInfo{
		Name:         col.Name(),
		Pages:        col.NumPages(),
		Rows:         col.Rows(),
		Shards:       col.Shards(),
		Partitioning: col.Part().String(),
		Views:        col.Views(),
		Queued:       col.QueuedUpdates(),
	}
}

func (s *Server) handleColumnsList(w http.ResponseWriter, r *http.Request, t *Tenant) {
	cols := t.Columns()
	out := make([]columnInfo, 0, len(cols))
	for _, col := range cols {
		out = append(out, describe(col))
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"tenant": t.Name(), "columns": out})
}

// fillSpec names a deterministic generator for the created column.
type fillSpec struct {
	Dist string `json:"dist"`
	Seed uint64 `json:"seed"`
	Lo   uint64 `json:"lo"`
	Hi   uint64 `json:"hi"`
}

// maxShards caps the shards of one created column. Every shard is an
// engine with its own mapper goroutine, plus a pilot goroutine with the
// autopilot on, so without the cap one request could start a goroutine
// per page of a MaxPages column.
const maxShards = 64

type createColumnRequest struct {
	Name         string    `json:"name"`
	Pages        int       `json:"pages"`
	Shards       int       `json:"shards"`
	Partitioning string    `json:"partitioning"`
	Autopilot    bool      `json:"autopilot"`
	Fill         *fillSpec `json:"fill"`
}

func (s *Server) handleColumnCreate(w http.ResponseWriter, r *http.Request, t *Tenant) {
	var req createColumnRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Pages <= 0 || req.Pages > s.lim.MaxPages {
		s.writeError(w, http.StatusBadRequest,
			fmt.Errorf("serve: pages %d out of range [1, %d]", req.Pages, s.lim.MaxPages))
		return
	}
	if req.Shards == 0 {
		req.Shards = 1
	}
	if req.Shards > maxShards {
		s.writeError(w, http.StatusBadRequest,
			fmt.Errorf("serve: shards %d above the cap of %d", req.Shards, maxShards))
		return
	}
	part, err := PartitioningByName(req.Partitioning)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	cfg := asv.DefaultConfig()
	if req.Autopilot {
		cfg = asv.WithAutopilot(cfg)
	}
	col, err := t.CreateColumn(req.Name, req.Pages, req.Shards, part, cfg)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Fill != nil {
		g, err := asv.GeneratorByName(req.Fill.Dist, req.Fill.Seed, req.Fill.Lo, req.Fill.Hi, req.Pages)
		if err == nil {
			err = col.Fill(g)
		}
		if err != nil {
			_ = t.CloseColumn(req.Name) //asv:ignore-err unwinding a failed fill; the fill error is returned
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	s.writeJSON(w, http.StatusCreated, describe(col))
}

func (s *Server) handleColumnClose(w http.ResponseWriter, r *http.Request, t *Tenant) {
	name := r.PathValue("name")
	if err := t.CloseColumn(name); err != nil {
		s.writeError(w, http.StatusNotFound, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"closed": name})
}

// column resolves the path column or writes 404.
func (s *Server) column(w http.ResponseWriter, r *http.Request, t *Tenant) (*ShardedColumn, bool) {
	name := r.PathValue("name")
	col, ok := t.Column(name)
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown column %q", name))
	}
	return col, ok
}

type queryRequest struct {
	Lo        uint64 `json:"lo"`
	Hi        uint64 `json:"hi"`
	Rows      bool   `json:"rows"`
	Aggregate bool   `json:"aggregate"`
}

type aggregateResponse struct {
	Count int    `json:"count"`
	Sum   uint64 `json:"sum"`
	Min   uint64 `json:"min"`
	Max   uint64 `json:"max"`
}

type queryResponse struct {
	Count         int                `json:"count"`
	Sum           uint64             `json:"sum"`
	PagesScanned  int                `json:"pages_scanned"`
	ViewsUsed     int                `json:"views_used"`
	UsedFullView  bool               `json:"used_full_view"`
	Rows          []int              `json:"row_ids,omitempty"`
	RowsTruncated bool               `json:"rows_truncated,omitempty"`
	Agg           *aggregateResponse `json:"aggregate,omitempty"`
	Trace         string             `json:"trace,omitempty"`
}

// queryOptions assembles the per-shard query options from the request
// body plus the ?trace=1 query parameter, which attaches a span tree
// and returns its rendering in the response.
func queryOptions(r *http.Request, req queryRequest) core.QueryOptions {
	var o core.QueryOptions
	o.CollectRows = req.Rows
	o.ComputeAggregate = req.Aggregate
	if r.URL.Query().Get("trace") == "1" {
		o.Trace = obs.NewTrace("http query")
	}
	return o
}

// answerResponse renders a gathered answer, applying the MaxRows
// truncation limit.
func (s *Server) answerResponse(ans asv.QueryAnswer) queryResponse {
	resp := queryResponse{
		Count:        ans.Count,
		Sum:          ans.Sum,
		PagesScanned: ans.PagesScanned,
		ViewsUsed:    ans.ViewsUsed,
		UsedFullView: ans.UsedFullView,
	}
	if ans.Rows != nil {
		resp.Rows = make([]int, 0, min(ans.Rows.Len(), s.lim.MaxRows))
		ans.Rows.ForEach(func(row int) bool {
			if len(resp.Rows) >= s.lim.MaxRows {
				resp.RowsTruncated = true
				return false
			}
			resp.Rows = append(resp.Rows, row)
			return true
		})
	}
	if ans.Agg != nil {
		resp.Agg = &aggregateResponse{Count: ans.Agg.Count, Sum: ans.Agg.Sum, Min: ans.Agg.Min, Max: ans.Agg.Max}
	}
	if ans.Trace != nil {
		resp.Trace = ans.Trace.String()
	}
	return resp
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, t *Tenant) {
	col, ok := s.column(w, r, t)
	if !ok {
		return
	}
	var req queryRequest
	if !s.decode(w, r, &req) {
		return
	}
	o := queryOptions(r, req)
	ans, err := col.QueryOpt(req.Lo, req.Hi, rawOptions(o))
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(w, http.StatusOK, s.answerResponse(ans))
}

type rowWrite struct {
	Row   int    `json:"row"`
	Value uint64 `json:"value"`
}

type updateRequest struct {
	Row    int        `json:"row"`
	Value  uint64     `json:"value"`
	Writes []rowWrite `json:"writes"`
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request, t *Tenant) {
	col, ok := s.column(w, r, t)
	if !ok {
		return
	}
	var req updateRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Writes) > s.lim.MaxBatch {
		s.writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("serve: batch of %d writes exceeds the %d-write limit", len(req.Writes), s.lim.MaxBatch))
		return
	}
	// Per-tenant backpressure: when the tenant's autopilot intakes are
	// already MaxQueued writes deep, refuse instead of queueing more —
	// a slow tenant sheds its own load rather than growing everyone's
	// flush latency.
	if queued := t.QueuedUpdates(); queued >= s.lim.MaxQueued {
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("serve: tenant %q has %d updates queued (limit %d)", t.Name(), queued, s.lim.MaxQueued))
		return
	}
	var err error
	applied := 0
	if len(req.Writes) > 0 {
		writes := make([]asv.RowWrite, len(req.Writes))
		for i, wr := range req.Writes {
			writes[i] = asv.RowWrite{Row: wr.Row, Value: wr.Value}
		}
		err = col.UpdateBatch(writes)
		applied = len(writes)
	} else {
		err = col.Update(req.Row, req.Value)
		applied = 1
	}
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"accepted": applied, "queued_updates": col.QueuedUpdates()})
}

func (s *Server) handleSync(w http.ResponseWriter, r *http.Request, t *Tenant) {
	col, ok := s.column(w, r, t)
	if !ok {
		return
	}
	if err := col.Sync(); err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"queued_updates": col.QueuedUpdates()})
}

type viewRange struct {
	Lo uint64 `json:"lo"`
	Hi uint64 `json:"hi"`
}

type createViewRequest struct {
	Lo     uint64      `json:"lo"`
	Hi     uint64      `json:"hi"`
	Lazy   *bool       `json:"lazy"`
	Pinned bool        `json:"pinned"`
	Batch  []viewRange `json:"batch"`
}

func (s *Server) handleViewCreate(w http.ResponseWriter, r *http.Request, t *Tenant) {
	col, ok := s.column(w, r, t)
	if !ok {
		return
	}
	var req createViewRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Batch) > s.lim.MaxBatch {
		s.writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("serve: batch of %d views exceeds the %d-range limit", len(req.Batch), s.lim.MaxBatch))
		return
	}
	var opts []asv.ViewOption
	if req.Lazy != nil {
		if *req.Lazy {
			opts = append(opts, asv.Lazy())
		} else {
			opts = append(opts, asv.Eager())
		}
	}
	if req.Pinned {
		opts = append(opts, asv.Pinned())
	}
	if len(req.Batch) > 0 {
		extra := make([]asv.ViewRange, len(req.Batch))
		for i, vr := range req.Batch {
			extra[i] = asv.ViewRange{Lo: vr.Lo, Hi: vr.Hi}
		}
		opts = append(opts, asv.Batch(extra...))
	}
	if err := col.CreateViewOpt(req.Lo, req.Hi, opts...); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	s.writeJSON(w, http.StatusCreated, map[string]any{"views": col.Views()})
}

func (s *Server) handleSnapshotCreate(w http.ResponseWriter, r *http.Request, t *Tenant) {
	col, ok := s.column(w, r, t)
	if !ok {
		return
	}
	snap, err := col.Snapshot() //asv:handoff the pins are owned by the tenant's snapshot table until DELETE or tenant close
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	id, err := t.AddSnapshot(col.Name(), snap)
	if err != nil {
		_ = snap.Close() //asv:ignore-err unwinding a refused registration; the registration error is returned
		status := snapshotRefusal(err)
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		s.writeError(w, status, err)
		return
	}
	s.writeJSON(w, http.StatusCreated, map[string]any{"id": strconv.FormatUint(id, 10)})
}

// snapshotRefusal is the status of a snapshot whose registration
// AddSnapshot refused: 429 at the tenant's handle cap, otherwise 409,
// because the tenant or the column closed between the pin and its
// registration.
func snapshotRefusal(err error) int {
	if errors.Is(err, errTooManySnapshots) {
		return http.StatusTooManyRequests
	}
	return http.StatusConflict
}

func (s *Server) handleSnapshotQuery(w http.ResponseWriter, r *http.Request, t *Tenant) {
	col, ok := s.column(w, r, t)
	if !ok {
		return
	}
	id, err := pathUint(r, "id")
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	snap, ok := t.SnapshotHandle(col.Name(), id)
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown snapshot %d on column %q", id, col.Name()))
		return
	}
	var req queryRequest
	if !s.decode(w, r, &req) {
		return
	}
	o := queryOptions(r, req)
	ans, err := snap.QueryOpt(req.Lo, req.Hi, rawOptions(o))
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(w, http.StatusOK, s.answerResponse(ans))
}

func (s *Server) handleSnapshotClose(w http.ResponseWriter, r *http.Request, t *Tenant) {
	col, ok := s.column(w, r, t)
	if !ok {
		return
	}
	id, err := pathUint(r, "id")
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := t.CloseSnapshot(col.Name(), id); err != nil {
		s.writeError(w, http.StatusNotFound, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"closed": strconv.FormatUint(id, 10)})
}

func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request, t *Tenant) {
	col, ok := s.column(w, r, t)
	if !ok {
		return
	}
	s.writeJSON(w, http.StatusOK, col.Telemetry())
}
