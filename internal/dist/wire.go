// Package dist distributes one FIT job across a fleet of worker serds and
// merges the pieces back into a result bit-identical to the single-node
// run. The shard axis is the job's natural one: energy bins × pre-drawn
// seed-schedule slices (core.FITSeedSchedule makes bin k's Monte-Carlo
// substream a pure function of the job seed, so a shard computes the same
// numbers on any machine). The coordinator characterizes the cell once per
// job and ships that POF model in every shard request, so workers keep no
// characterization state. Robustness is the point — a worker crash,
// timeout, or 5xx re-enqueues the shard for another worker, a breaker-open
// worker is drained from rotation until its cooldown probe, stragglers are
// duplicated with first-result-wins dedup, and shards that exhaust their
// retry budget degrade the job to a typed *PartialError naming the missing
// bins with the partial FIT sum, never to a lost job.
package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
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

// JobSpec is the result-determining job configuration on the shard wire:
// the scalar subset of finser.FlowConfig a coordinator serializes to its
// workers. Field meanings and JSON spellings match the serd job request;
// zero values select the same finser defaults. Parallelism is not on the
// wire: no result depends on it, so each worker serd runs a shard on its
// own cores.
type JobSpec struct {
	Vdd              float64 `json:"vdd"`
	Rows             int     `json:"rows,omitempty"`
	Cols             int     `json:"cols,omitempty"`
	ProcessVariation bool    `json:"process_variation,omitempty"`
	Samples          int     `json:"samples,omitempty"`
	ItersPerBin      int     `json:"iters_per_bin,omitempty"`
	// FITRelErr selects the adaptive FIT mode; omitempty keeps flat-budget
	// requests decodable by workers predating the field, while an adaptive
	// request sent to such a worker fails its strict decode with a typed
	// *WireError instead of silently running the flat budget.
	FITRelErr   float64 `json:"fit_rel_err,omitempty"`
	AlphaRate   float64 `json:"alpha_rate,omitempty"`
	ProtonScale float64 `json:"proton_scale,omitempty"`
	AlphaBins   int     `json:"alpha_bins,omitempty"`
	ProtonBins  int     `json:"proton_bins,omitempty"`
	Pattern     string  `json:"pattern,omitempty"`
	Seed        uint64  `json:"seed,omitempty"`
}

// SpecFromFlow projects a validated finser.FlowConfig onto the wire spec.
// Only configurations expressible in the job API distribute: a custom
// technology card has no wire spelling and is rejected.
func SpecFromFlow(cfg finser.FlowConfig) (JobSpec, error) {
	if cfg.Tech.Name != "" && cfg.Tech.Name != finser.Default14nmSOI().Name {
		return JobSpec{}, &WireError{Field: "tech", Reason: fmt.Sprintf("custom technology %q cannot be distributed", cfg.Tech.Name)}
	}
	var pat string
	switch cfg.Pattern {
	case finser.PatternZeros:
		pat = "" // wire default
	case finser.PatternOnes:
		pat = "ones"
	case finser.PatternCheckerboard:
		pat = "checkerboard"
	default:
		return JobSpec{}, &WireError{Field: "pattern", Reason: fmt.Sprintf("unknown (%d)", cfg.Pattern)}
	}
	return JobSpec{
		Vdd:              cfg.Vdd,
		Rows:             cfg.Rows,
		Cols:             cfg.Cols,
		ProcessVariation: cfg.ProcessVariation,
		Samples:          cfg.Samples,
		ItersPerBin:      cfg.ItersPerBin,
		FITRelErr:        cfg.FITRelErr,
		AlphaRate:        cfg.AlphaRate,
		ProtonScale:      cfg.ProtonScale,
		AlphaBins:        cfg.AlphaBins,
		ProtonBins:       cfg.ProtonBins,
		Pattern:          pat,
		Seed:             cfg.Seed,
	}, nil
}

// FlowConfig maps the wire spec back onto a finser.FlowConfig.
func (s JobSpec) FlowConfig() (finser.FlowConfig, error) {
	var pat finser.DataPattern
	switch strings.ToLower(s.Pattern) {
	case "", "zeros":
		pat = finser.PatternZeros
	case "ones":
		pat = finser.PatternOnes
	case "checkerboard":
		pat = finser.PatternCheckerboard
	default:
		return finser.FlowConfig{}, &WireError{Field: "pattern", Reason: fmt.Sprintf("unknown %q", s.Pattern)}
	}
	return finser.FlowConfig{
		Vdd:              s.Vdd,
		Rows:             s.Rows,
		Cols:             s.Cols,
		ProcessVariation: s.ProcessVariation,
		Samples:          s.Samples,
		ItersPerBin:      s.ItersPerBin,
		FITRelErr:        s.FITRelErr,
		AlphaRate:        s.AlphaRate,
		ProtonScale:      s.ProtonScale,
		AlphaBins:        s.AlphaBins,
		ProtonBins:       s.ProtonBins,
		Pattern:          pat,
		Seed:             s.Seed,
	}, nil
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
	Job   JobSpec `json:"job"`
	Shard ShardID `json:"shard"`
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
// job spec, the shard coordinates, the seed slice, and the strike physics
// revision (core.PhysicsRevision). Two shards with the same fingerprint
// are interchangeable, which is what makes duplicate dispatch (work
// stealing) safe to dedup.
func ShardFingerprint(spec JobSpec, id ShardID, seeds []uint64) (string, error) {
	return checkpoint.Fingerprint(struct {
		Job     JobSpec  `json:"job"`
		Shard   ShardID  `json:"shard"`
		Seeds   []uint64 `json:"seeds"`
		Physics int      `json:"physics"`
	}{spec, id, seeds, core.PhysicsRevision})
}

// maxShardBins bounds how many bins one shard request may name — far above
// any real discretization, low enough that a hostile length cannot balloon
// allocations.
const maxShardBins = 4096

// DecodeShardRequest parses and validates a coordinator's shard request at
// the worker's trust boundary. Every failure is a typed *WireError; the
// seed schedule is re-derived from the job seed and must match the carried
// slice, the fingerprint is recomputed and must match the carried one, and
// the characterization must be valid and built for the job's Vdd,
// variation mode and sample count, so a coordinator/worker version skew (a
// different random stream or physics revision, or a coordinator that ships
// no characterization) fails loudly instead of merging.
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
	if req.Shard.End-req.Shard.Start > maxShardBins {
		return nil, &WireError{Field: "shard", Reason: fmt.Sprintf("range spans %d bins (max %d)", req.Shard.End-req.Shard.Start, maxShardBins)}
	}
	if len(req.Seeds) != req.Shard.End-req.Shard.Start {
		return nil, &WireError{Field: "seeds", Reason: fmt.Sprintf("%d seeds for a %d-bin shard", len(req.Seeds), req.Shard.End-req.Shard.Start)}
	}
	cfg, err := req.Job.FlowConfig()
	if err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, &WireError{Field: "job", Reason: err.Error()}
	}
	sp, _ := Species(req.Shard.Species)
	bins, err := finser.SpeciesBins(cfg, sp)
	if err != nil {
		return nil, &WireError{Field: "job", Reason: err.Error()}
	}
	if req.Shard.End > len(bins) {
		return nil, &WireError{Field: "shard", Reason: fmt.Sprintf("range [%d,%d) outside the %d-bin %s plan", req.Shard.Start, req.Shard.End, len(bins), req.Shard.Species)}
	}
	sched, err := finser.SpeciesSeedSchedule(cfg, sp)
	if err != nil {
		return nil, &WireError{Field: "job", Reason: err.Error()}
	}
	for k, s := range req.Seeds {
		if sched[req.Shard.Start+k] != s {
			return nil, &WireError{Field: "seeds", Reason: fmt.Sprintf("seed schedule diverges at bin %d (coordinator and worker disagree)", req.Shard.Start+k)}
		}
	}
	fp, err := ShardFingerprint(req.Job, req.Shard, req.Seeds)
	if err != nil {
		return nil, &WireError{Field: "fingerprint", Reason: err.Error()}
	}
	if req.Fingerprint != fp {
		return nil, &WireError{Field: "fingerprint", Reason: fmt.Sprintf("%q does not match this worker's %q (physics revision %d)", req.Fingerprint, fp, core.PhysicsRevision)}
	}
	if req.Char, err = decodeChar(wire.Char, req.Job); err != nil {
		return nil, err
	}
	return &req, nil
}

// decodeChar decodes a shipped characterization (decoding validates it)
// and checks that it was built for spec: same Vdd, same variation mode,
// and the sample count sram.CharConfig resolves for the job (1 without
// variation, 1000 when unset).
func decodeChar(raw json.RawMessage, spec JobSpec) (*finser.Characterization, error) {
	if len(raw) == 0 || string(raw) == "null" {
		return nil, &WireError{Field: "char", Reason: "missing (the coordinator characterizes each job and ships the result)"}
	}
	var ch finser.Characterization
	if err := json.Unmarshal(raw, &ch); err != nil {
		return nil, &WireError{Field: "char", Reason: err.Error()}
	}
	samples := spec.Samples
	if !spec.ProcessVariation {
		samples = 1
	} else if samples == 0 {
		samples = 1000
	}
	switch {
	case ch.Vdd != spec.Vdd:
		return nil, &WireError{Field: "char", Reason: fmt.Sprintf("built at Vdd %g for a %g V job", ch.Vdd, spec.Vdd)}
	case ch.PV != spec.ProcessVariation:
		return nil, &WireError{Field: "char", Reason: fmt.Sprintf("process variation %t for a job with %t", ch.PV, spec.ProcessVariation)}
	case ch.Samples != samples:
		return nil, &WireError{Field: "char", Reason: fmt.Sprintf("%d samples for a job of %d", ch.Samples, samples)}
	}
	return &ch, nil
}

// DecodeShardResult parses and validates a worker's shard result against
// the request it answers. Corrupt or truncated payloads, mismatched
// identities, and non-finite or out-of-range physics all return a typed
// *WireError — nothing unvalidated ever reaches the merge, and a NaN can
// never poison the FIT sum.
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
	if err := ValidatePoints(res.Points); err != nil {
		return nil, err
	}
	if want != nil {
		if err := ValidateConv(res.Points, res.Conv, want.Job.FITRelErr > 0); err != nil {
			return nil, err
		}
	}
	return &res, nil
}

// ValidateConv checks a shard's convergence records against its points at a
// trust boundary (wire or checkpoint restore). An adaptive job requires one
// valid record per point — a result without them came from a worker that
// does not understand the adaptive mode and silently ran the flat budget,
// which must never merge. A flat job must not carry any records.
func ValidateConv(pts []finser.POFPoint, conv []finser.BinConv, adaptive bool) error {
	if !adaptive {
		if len(conv) != 0 {
			return &WireError{Field: "conv", Reason: fmt.Sprintf("%d convergence records on a flat-budget job", len(conv))}
		}
		return nil
	}
	if len(conv) != len(pts) {
		return &WireError{Field: "conv", Reason: fmt.Sprintf("%d convergence records for %d points on an adaptive job (worker ran the flat budget?)", len(conv), len(pts))}
	}
	for i := range conv {
		if err := core.CheckBinConv(conv[i], pts[i]); err != nil {
			return &WireError{Field: fmt.Sprintf("conv[%d]", i), Reason: err.Error()}
		}
	}
	return nil
}

// ValidatePoints checks shard POF points at a trust boundary (wire or
// checkpoint restore): probabilities in [0,1], errors and energies finite,
// strike counts positive. It is the same class of invariant the engine's
// guard enforces on freshly computed points.
func ValidatePoints(pts []finser.POFPoint) error {
	for i, pt := range pts {
		if !(pt.EnergyMeV > 0) || math.IsInf(pt.EnergyMeV, 0) {
			return &WireError{Field: fmt.Sprintf("points[%d].energy_mev", i), Reason: fmt.Sprintf("must be positive and finite, got %v", pt.EnergyMeV)}
		}
		for _, p := range []struct {
			name string
			v    float64
		}{
			{"tot", pt.Tot}, {"seu", pt.SEU}, {"mbu", pt.MBU}, {"hit_frac", pt.HitFrac},
		} {
			if !(p.v >= 0 && p.v <= 1) { // NaN fails both comparisons
				return &WireError{Field: fmt.Sprintf("points[%d].%s", i, p.name), Reason: fmt.Sprintf("must be a probability in [0,1], got %v", p.v)}
			}
		}
		if !(pt.TotStdErr >= 0) || math.IsInf(pt.TotStdErr, 0) {
			return &WireError{Field: fmt.Sprintf("points[%d].tot_stderr", i), Reason: fmt.Sprintf("must be non-negative and finite, got %v", pt.TotStdErr)}
		}
		if pt.Strikes <= 0 {
			return &WireError{Field: fmt.Sprintf("points[%d].strikes", i), Reason: fmt.Sprintf("must be positive, got %d", pt.Strikes)}
		}
	}
	return nil
}

// IsWire reports whether err is (or wraps) a *WireError.
func IsWire(err error) bool {
	var we *WireError
	return errors.As(err, &we)
}
