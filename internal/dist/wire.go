// Package dist distributes one FIT job across a fleet of worker serds and
// merges the pieces back into a result bit-identical to the single-node
// run. The shard axis is the job's natural one: energy bins × pre-drawn
// seed-schedule slices (core.FITSeedSchedule makes bin k's Monte-Carlo
// substream a pure function of the job seed, so a shard computes the same
// numbers on any machine). The coordinator characterizes the cell once per
// job and ships that POF model in every shard request, so workers keep no
// characterization state. It records each accepted shard in the bin
// ledger (core.Ledger) a single-node run uses, so either resumes the
// other's checkpoint, under any ShardBins. Robustness is the point — a
// worker crash, timeout, or 5xx re-enqueues the shard for another worker,
// a breaker-open worker is drained from rotation until its cooldown probe,
// stragglers are duplicated with first-result-wins dedup, and shards that
// exhaust their retry budget degrade the job to a typed *PartialError
// naming the missing bins with the partial FIT sum, never to a lost job.
package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"

	"finser"
	"finser/internal/checkpoint"
	"finser/internal/core"
)

// Species wire spellings.
const (
	SpeciesAlpha  = "alpha"
	SpeciesProton = "proton"
)

// WireError reports a shard wire message that failed validation — a
// corrupt, truncated, or inconsistent payload rejected at the trust
// boundary before anything reaches the merge. Match with errors.As.
type WireError struct {
	// Field names the offending message field.
	Field string
	// Reason describes the violation.
	Reason string
}

func (e *WireError) Error() string {
	return fmt.Sprintf("dist: wire field %s %s", e.Field, e.Reason)
}

// Species resolves the wire spelling; ok is false for anything else.
func Species(name string) (finser.Species, bool) {
	switch name {
	case SpeciesAlpha:
		return finser.Alpha, true
	case SpeciesProton:
		return finser.Proton, true
	}
	return 0, false
}

// ShardID names one shard: a half-open energy-bin range of one species'
// FIT integration.
type ShardID struct {
	// Species is "alpha" or "proton".
	Species string `json:"species"`
	// Start is the first bin index (0-based, inclusive).
	Start int `json:"start"`
	// End is the past-the-end bin index.
	End int `json:"end"`
}

func (id ShardID) String() string {
	return fmt.Sprintf("%s[%d:%d)", id.Species, id.Start, id.End)
}

// valid reports structural sanity (species known, non-empty range).
func (id ShardID) valid() error {
	if _, ok := Species(id.Species); !ok {
		return &WireError{Field: "shard.species", Reason: fmt.Sprintf("unknown %q", id.Species)}
	}
	if id.Start < 0 || id.End <= id.Start {
		return &WireError{Field: "shard", Reason: fmt.Sprintf("bad bin range [%d,%d)", id.Start, id.End)}
	}
	return nil
}

// ShardRequest is the coordinator → worker message: compute the POF points
// of one shard of the job's FIT integration.
type ShardRequest struct {
	// Job is the job's result-determining configuration, in the JSON
	// spelling of the serd job request. The technology card and the worker
	// count are not on the wire: a coordinator distributes only jobs on the
	// default card, and no result depends on the worker count, so each
	// worker serd runs a shard on its own cores. DecodeShardRequest returns
	// it validated, defaults resolved.
	Job   finser.FlowConfig `json:"job"`
	Shard ShardID           `json:"shard"`
	// Seeds is the pre-drawn seed-schedule slice for the shard's bins —
	// derivable from (Job.Seed, Shard) on either side, carried explicitly so
	// the worker verifies both ends agree on the schedule before burning
	// Monte-Carlo budget on bins that would not merge.
	Seeds []uint64 `json:"seeds"`
	// Fingerprint is the shard identity digest (ShardFingerprint); results
	// are deduplicated, first-result-wins merged, and checkpointed under it.
	Fingerprint string `json:"fingerprint"`
	// Char is the job's cell characterization, built once by the
	// coordinator, so every shard of a job runs on the same POF model and
	// workers build none. It is a pure function of Job, so it stays out of
	// the fingerprint. The coordinator leaves off the per-sample Vth shifts:
	// only flip-surface validation reads them.
	Char *finser.Characterization `json:"char"`
}

// ShardResult is the worker → coordinator message: the shard's POF points,
// aligned with its bin range.
type ShardResult struct {
	Fingerprint string            `json:"fingerprint"`
	Shard       ShardID           `json:"shard"`
	Points      []finser.POFPoint `json:"points"`
	// Conv carries the shard's per-bin convergence records, aligned with
	// Points, when the job runs adaptively (fit_rel_err > 0); absent under
	// the flat budget. An adaptive result from a worker predating the field
	// arrives without it and is rejected at decode — version skew degrades
	// to a typed *WireError, never to a silent flat-budget merge.
	Conv []finser.BinConv `json:"conv,omitempty"`
	// Worker identifies the serd that computed the shard (diagnostics only;
	// not part of the merge).
	Worker string `json:"worker,omitempty"`
}

// ShardFingerprint digests the shard's result-determining identity: the
// job's wire form, the shard coordinates, the seed slice, and the strike
// physics revision (core.PhysicsRevision). Two shards with the same
// fingerprint are interchangeable, which is what makes duplicate dispatch
// (work stealing) safe to dedup.
func ShardFingerprint(job finser.FlowConfig, id ShardID, seeds []uint64) (string, error) {
	return checkpoint.Fingerprint(struct {
		Job     finser.FlowConfig `json:"job"`
		Shard   ShardID           `json:"shard"`
		Seeds   []uint64          `json:"seeds"`
		Physics int               `json:"physics"`
	}{job, id, seeds, core.PhysicsRevision})
}

// DecodeShardRequest parses and validates a coordinator's shard request at
// the worker's trust boundary, returning it with Job validated and its
// defaults resolved. Every failure is a typed *WireError; the job must
// decode strictly (a field off the wire, or a pattern spelled as a name,
// fails), the seed schedule is re-derived from the job seed and must match
// the carried slice, the fingerprint is recomputed and must match the
// carried one, and the characterization must be valid and built for the
// job's Vdd, variation mode and sample count, so a coordinator/worker
// version skew (a different random stream or physics revision, or a
// coordinator that ships no characterization) fails loudly instead of
// merging.
func DecodeShardRequest(data []byte) (*ShardRequest, error) {
	// The characterization decodes on its own, so that any fault in it is
	// reported as field "char" rather than as an undecodable body.
	var wire struct {
		ShardRequest
		Char json.RawMessage `json:"char"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wire); err != nil {
		return nil, &WireError{Field: "body", Reason: "undecodable: " + err.Error()}
	}
	req := wire.ShardRequest
	if err := req.Shard.valid(); err != nil {
		return nil, err
	}
	if len(req.Seeds) != req.Shard.End-req.Shard.Start {
		return nil, &WireError{Field: "seeds", Reason: fmt.Sprintf("%d seeds for a %d-bin shard", len(req.Seeds), req.Shard.End-req.Shard.Start)}
	}
	cfg, err := req.Job.Validate()
	if err != nil {
		return nil, &WireError{Field: "job", Reason: err.Error()}
	}
	sp, _ := Species(req.Shard.Species)
	l, err := finser.SpeciesLedger(cfg, sp)
	if err != nil {
		return nil, &WireError{Field: "job", Reason: err.Error()}
	}
	sched := l.Plan().Seeds
	if req.Shard.End > len(sched) {
		return nil, &WireError{Field: "shard", Reason: fmt.Sprintf("range [%d,%d) outside the %d-bin %s plan", req.Shard.Start, req.Shard.End, len(sched), req.Shard.Species)}
	}
	if !slices.Equal(req.Seeds, sched[req.Shard.Start:req.Shard.End]) {
		return nil, &WireError{Field: "seeds", Reason: "seed schedule diverges (coordinator and worker disagree)"}
	}
	fp, err := ShardFingerprint(req.Job, req.Shard, req.Seeds)
	if err != nil {
		return nil, &WireError{Field: "fingerprint", Reason: err.Error()}
	}
	if req.Fingerprint != fp {
		return nil, &WireError{Field: "fingerprint", Reason: fmt.Sprintf("%q does not match this worker's %q (physics revision %d)", req.Fingerprint, fp, core.PhysicsRevision)}
	}
	if req.Char, err = decodeChar(wire.Char, cfg); err != nil {
		return nil, err
	}
	req.Job = cfg
	return &req, nil
}

// decodeChar decodes a shipped characterization (decoding validates it)
// and checks that it was built for the job's resolved config: same Vdd,
// same variation mode, and the sample count characterization runs (1
// without variation).
func decodeChar(raw json.RawMessage, job finser.FlowConfig) (*finser.Characterization, error) {
	if len(raw) == 0 || string(raw) == "null" {
		return nil, &WireError{Field: "char", Reason: "missing (the coordinator characterizes each job and ships the result)"}
	}
	var ch finser.Characterization
	if err := json.Unmarshal(raw, &ch); err != nil {
		return nil, &WireError{Field: "char", Reason: err.Error()}
	}
	samples := 1
	if job.ProcessVariation {
		samples = job.Samples
	}
	switch {
	case ch.Vdd != job.Vdd:
		return nil, &WireError{Field: "char", Reason: fmt.Sprintf("built at Vdd %g for a %g V job", ch.Vdd, job.Vdd)}
	case ch.PV != job.ProcessVariation:
		return nil, &WireError{Field: "char", Reason: fmt.Sprintf("process variation %t for a job with %t", ch.PV, job.ProcessVariation)}
	case ch.Samples != samples:
		return nil, &WireError{Field: "char", Reason: fmt.Sprintf("%d samples for a job of %d", ch.Samples, samples)}
	}
	return &ch, nil
}

// DecodeShardResult parses and validates a worker's shard result against
// the request it answers. Corrupt or truncated payloads, mismatched
// identities, and bins failing core.CheckBin (the check a restored
// checkpoint bin passes too) all return a typed *WireError — nothing
// unvalidated ever reaches the merge, and a NaN can never poison the FIT
// sum.
func DecodeShardResult(data []byte, want *ShardRequest) (*ShardResult, error) {
	var res ShardResult
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		return nil, &WireError{Field: "body", Reason: "undecodable: " + err.Error()}
	}
	if want != nil {
		if res.Fingerprint != want.Fingerprint {
			return nil, &WireError{Field: "fingerprint", Reason: fmt.Sprintf("%q answers a different shard than %q", res.Fingerprint, want.Fingerprint)}
		}
		if res.Shard != want.Shard {
			return nil, &WireError{Field: "shard", Reason: fmt.Sprintf("result names %v, request named %v", res.Shard, want.Shard)}
		}
	}
	if err := res.Shard.valid(); err != nil {
		return nil, err
	}
	if len(res.Points) != res.Shard.End-res.Shard.Start {
		return nil, &WireError{Field: "points", Reason: fmt.Sprintf("%d points for a %d-bin shard", len(res.Points), res.Shard.End-res.Shard.Start)}
	}
	// An adaptive job needs a convergence record per point (a result
	// without them ran the flat budget); a flat job must carry none.
	adaptive := len(res.Conv) > 0
	if want != nil {
		adaptive = want.Job.FITRelErr > 0
	}
	if len(res.Conv) > 0 && len(res.Conv) != len(res.Points) {
		return nil, &WireError{Field: "conv", Reason: fmt.Sprintf("%d convergence records for %d points", len(res.Conv), len(res.Points))}
	}
	for i, pt := range res.Points {
		var conv *core.BinConv
		if len(res.Conv) > 0 {
			conv = &res.Conv[i]
		}
		if err := core.CheckBin(pt, conv, adaptive); err != nil {
			return nil, &WireError{Field: fmt.Sprintf("points[%d]", i), Reason: err.Error()}
		}
	}
	return &res, nil
}

// IsWire reports whether err is (or wraps) a *WireError.
func IsWire(err error) bool {
	var we *WireError
	return errors.As(err, &we)
}
