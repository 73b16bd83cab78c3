package main

import (
	"encoding/json"
	"os"
	"path/filepath"

	"github.com/asv-db/asv/internal/obs"
)

// layerOf maps a span name to the layer whose self time it is. The op root
// and the engine's "query" root own whatever their children do not cover:
// that is core.unattributed_share. "view" spans are the per-source slices
// of the scan loop and count as scan. "stall" is the tier's simulated
// latency rendered as a synthetic span over the scan; it is skipped, or
// the same interval would be counted twice.
var layerOf = map[string]string{
	"op":            "unattributed",
	"query":         "unattributed",
	"pin":           "pin",
	"route":         "route",
	"scan":          "scan",
	"view":          "scan",
	"materialize":   "materialize",
	"merge":         "merge",
	"client":        "client",
	"serve.handler": "handler",
	"update":        "update",
	"flush":         "flush",
}

// selfTimes adds every span's self time — its duration minus the part its
// children cover — to the layer that owns it.
func selfTimes(sp *obs.Span, into map[string]int64) {
	layer, ok := layerOf[sp.Name]
	if !ok {
		return
	}
	self := sp.End - sp.Start
	for _, c := range sp.Children {
		if _, counted := layerOf[c.Name]; counted {
			self -= c.End - c.Start
			selfTimes(c, into)
		}
	}
	into[layer] += self
}

// shares are the traced pass's time attribution: each layer's self time as
// a share of the wall time of the ops it can occur in.
type shares struct {
	pin, route, scan, materialize, merge, unattributed float64 // of query-op wall
	client, handler                                    float64 // of query-op wall, serve_http
	flushWall                                          float64 // flush spans, of all-op wall
}

func attribute(ops []opRecord) shares {
	queryLayers := make(map[string]int64)
	writeLayers := make(map[string]int64)
	var queryWall, writeWall int64
	for _, op := range ops {
		d := op.Span.End - op.Span.Start
		if op.Kind == "query" {
			queryWall += d
			selfTimes(op.Span, queryLayers)
		} else {
			writeWall += d
			selfTimes(op.Span, writeLayers)
		}
	}
	var s shares
	if queryWall > 0 {
		of := func(layer string) float64 { return float64(queryLayers[layer]) / float64(queryWall) }
		s.pin, s.route, s.scan = of("pin"), of("route"), of("scan")
		s.materialize, s.merge, s.unattributed = of("materialize"), of("merge"), of("unattributed")
		s.client = of("client")
		// The handler's share is its whole span: what lies below it is the
		// server, which this benchmark does not trace into.
		s.handler = of("handler")
	}
	if queryWall+writeWall > 0 {
		s.flushWall = float64(writeLayers["flush"]) / float64(queryWall+writeWall)
	}
	return s
}

// traceFile is what bench/out/trace-<workload>.json holds.
type traceFile struct {
	Env      env        `json:"env"`
	Workload string     `json:"workload"`
	Seed     uint64     `json:"seed"`
	Ops      []opRecord `json:"ops"`
}

func writeTrace(dir string, tf traceFile) error {
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+tf.Workload+".json"), data, 0o644)
}
