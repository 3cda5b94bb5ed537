package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"finser"
	"finser/internal/dist"
)

// maxShardRequestBytes bounds the /shards request body. The shipped
// characterization dominates it: 3 axes × samples × at most 24 bytes per
// critical charge (17 significant digits, point, exponent, comma),
// about 72 B per sample. 8 MiB carries 116,000 samples, over 100× the
// paper's 1,000; the job spec, seeds and fingerprint add well under 1 KB.
const maxShardRequestBytes = 8 << 20

// handleShard is the worker half of the distributed protocol: compute the
// POF points of one energy-bin shard on the characterization the
// coordinator shipped with it. The endpoint is stateless — shard identity,
// seeds, the cell model and merge order all live with the coordinator —
// so any worker can serve any shard of any job.
//
// Status mapping: invalid shard messages are 400 (permanent — the request
// is wrong everywhere); a saturated worker sheds with 503 + Retry-After
// (transient — try another worker); compute faults are 500 (transient).
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxShardRequestBytes)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: "shard request too large"})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "read body: " + err.Error()})
		return
	}
	req, err := dist.DecodeShardRequest(body)
	if err != nil {
		s.reg.Counter("serd/shards/rejected_invalid").Inc()
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	// Shed before computing: a worker saturated with shards refuses fast so
	// the coordinator's work stealing routes the shard elsewhere.
	select {
	case s.shardSem <- struct{}{}:
		defer func() { <-s.shardSem }()
	default:
		s.reg.Counter("serd/shards/rejected_busy").Inc()
		s.writeUnavailable(w, "server: shard slots busy")
		return
	}
	s.reg.Counter("serd/shards/accepted").Inc()
	s.reg.Gauge("serd/shards/running").Set(float64(len(s.shardSem)))
	defer func() { s.reg.Gauge("serd/shards/running").Set(float64(len(s.shardSem) - 1)) }()

	cfg, err := req.Job.FlowConfig()
	if err != nil { // unreachable after Decode, but keep the 400 contract
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	cfg.Obs = s.reg
	cfg.Faults = s.cfg.Faults
	cfg.Guard = s.cfg.Guard
	cfg.GuardLog = s.cfg.GuardLog

	// The request context dies with the coordinator's connection (a stolen
	// shard's loser stops burning CPU); a server drain cuts it too.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()

	sp, _ := dist.Species(req.Shard.Species)
	pts, conv, err := finser.SpeciesShardPOFConvCtx(ctx, cfg, req.Char, sp, req.Shard.Start, req.Shard.End)
	if err != nil {
		s.shardError(w, req, err)
		return
	}
	s.reg.Counter("serd/shards/served").Inc()
	res := dist.ShardResult{
		Fingerprint: req.Fingerprint,
		Shard:       req.Shard,
		Points:      pts,
		Conv:        conv,
		Worker:      r.Host,
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(res)
}

// shardError maps a shard compute failure onto the wire: cancellation is a
// 503 (the worker is draining, or the caller already left — either way the
// shard belongs elsewhere), everything else a 500; both are transient to
// the coordinator.
func (s *Server) shardError(w http.ResponseWriter, req *dist.ShardRequest, err error) {
	s.reg.Counter("serd/shards/errors").Inc()
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		s.writeUnavailable(w, "server: shard "+req.Shard.String()+" interrupted: "+err.Error())
		return
	}
	writeJSON(w, http.StatusInternalServerError, errorBody{Error: "shard " + req.Shard.String() + ": " + err.Error()})
}
