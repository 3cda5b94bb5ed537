package sram

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"finser/internal/faultinject"
	"finser/internal/finfet"
	"finser/internal/guard"
	"finser/internal/obs"
	"finser/internal/rng"
	"finser/internal/stats"
)

// CharConfig configures cell POF characterization — the paper's §4 step
// that SPICE-sweeps current magnitudes and transistor combinations, with a
// 1000-sample threshold-voltage Monte Carlo when process variation is on.
type CharConfig struct {
	Tech finfet.Technology
	Vdd  float64
	// Samples is the number of process-variation Monte-Carlo samples
	// (the paper uses 1000). Ignored when ProcessVariation is false.
	Samples int
	// ProcessVariation selects probabilistic POF ∈ [0,1] (true) or the
	// nominal-corner binary POF ∈ {0,1} (false) — the paper's Fig. 11
	// comparison.
	ProcessVariation bool
	// Seed makes the characterization deterministic.
	Seed uint64
	// Workers bounds characterization parallelism; 0 means GOMAXPROCS.
	Workers int
	// BaseShifts are deterministic per-transistor Vth shifts applied under
	// the random variation — e.g. BTI aging stress (AgedShifts) or a
	// deliberately skewed corner. Zero value means the nominal cell.
	BaseShifts VthShifts
	// Shape is the injected pulse shape (the paper's model is rectangular).
	Shape PulseShape
	// Metrics, when non-nil, receives characterization and solver counters.
	// Nil costs nothing.
	Metrics *Metrics
	// Progress, when non-nil, receives throttled done/total/ETA reports as
	// variation samples complete.
	Progress obs.ProgressFunc
	// Faults, when non-nil, injects deterministic failures at the
	// per-sample worker site — robustness-test only. Nil costs one pointer
	// check per sample.
	Faults *faultinject.Hooks
	// Guard, when non-nil, checks physics invariants (finite critical
	// charges, probability-valued POFs) at stage boundaries. Nil costs one
	// pointer check per sample.
	Guard *guard.Guard
}

func (c CharConfig) withDefaults() CharConfig {
	if c.Samples <= 0 {
		c.Samples = 1000
	}
	if !c.ProcessVariation {
		c.Samples = 1
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// chargeLo and chargeHi bracket every characterization's critical-charge
// bisection, in coulombs.
const (
	chargeLo = 1e-18
	chargeHi = 5e-14
)

// Characterization is the POF model for one (technology, Vdd): per-sample
// critical charges along the three sensitive axes. It plays the role of the
// paper's POF LUTs: cheap POF evaluation for arbitrary strike charge
// combinations at array-MC time. Its JSON form is charJSON.
type Characterization struct {
	Vdd     float64
	Samples int
	PV      bool
	Axis    [NumAxes][]float64 // per-sample Qcrit, C (+Inf = unflippable)
	Shifts  []VthShifts        // per-sample Vth shifts (for validation)
	ecdf    [NumAxes]*stats.ECDF
	recip   [][NumAxes]float64
}

// FaultSiteSample is the characterization's per-sample fault-injection
// site.
const FaultSiteSample = "sram.sample"

// CharacterizeCtx runs the process-variation Monte Carlo: for each
// variation sample it builds the cell and bisects the critical charge of
// each sensitive axis. Sample 0 runs first, on the caller's goroutine, and
// guides the other samples' bisections, which then run in parallel on
// min(cfg.Workers, Samples−1) goroutines with deterministic per-sample
// random substreams; each sample writes its critical charges in place.
// Workers check ctx before every variation sample, and a panic inside a
// sample — solver bug or injected fault — is recovered into a
// stack-carrying error that fails the characterization instead of the
// process. A failure reports the lowest-indexed sample that failed on its
// own, whatever the worker count, and a sample 0 that fails on its own
// stops the characterization before any other sample runs; a cancellation
// surfaces as the context error wrapped with the stage identity only when
// no sample failed on its own.
func CharacterizeCtx(ctx context.Context, cfg CharConfig) (*Characterization, error) {
	cfg = cfg.withDefaults()
	if cfg.Vdd <= 0 {
		return nil, errors.New("sram: characterization needs positive Vdd")
	}

	// Pre-draw per-sample Vth shifts so results are independent of worker
	// scheduling.
	src := rng.New(cfg.Seed)
	shifts := make([]VthShifts, cfg.Samples)
	for i := range shifts {
		shifts[i] = cfg.BaseShifts
		if cfg.ProcessVariation {
			for r := Role(0); r < NumRoles; r++ {
				shifts[i][r] += cfg.Tech.SigmaVth * src.Normal()
			}
		}
	}

	ch := &Characterization{Vdd: cfg.Vdd, Samples: cfg.Samples, PV: cfg.ProcessVariation, Shifts: shifts}
	for a := range ch.Axis {
		ch.Axis[a] = make([]float64, cfg.Samples)
	}
	// sample characterizes variation sample idx with panic isolation,
	// bisecting each axis from the guess for it (0 for none) and writing
	// the critical charge to ch.Axis.
	sample := func(idx int, guess [NumAxes]float64) (err error) {
		defer faultinject.Recover("sram.worker", &err)
		if err := ctx.Err(); err != nil {
			return err
		}
		if fi := cfg.Faults; fi != nil {
			if err := fi.Hit(FaultSiteSample); err != nil {
				return err
			}
		}
		cell, err := NewCell(cfg.Tech, cfg.Vdd, shifts[idx])
		if err != nil {
			return err
		}
		cell.SetMetrics(cfg.Metrics)
		cell.SetGuard(cfg.Guard)
		for a := AxisI1; a < NumAxes; a++ {
			var q float64
			if a == AxisI3 {
				// I1 and I3 are ideal current sources into Q from nodes
				// that ideal DC sources pin at Vdd, so their transients are
				// the same circuit and I3 inherits I1's critical charge.
				q = ch.Axis[AxisI1][idx]
			} else if q, err = cell.criticalCharge(a, chargeLo, chargeHi, cfg.Shape, guess[a]); err != nil {
				return err
			}
			// +Inf is the legal "unflippable at any charge" sentinel; NaN or
			// -Inf means the bisection itself went wrong.
			if !math.IsInf(q, 1) {
				if err := cfg.Guard.Finite("sram.characterize", fmt.Sprintf("qcrit axis %d", a), q); err != nil {
					return err
				}
			}
			ch.Axis[a][idx] = q
		}
		return nil
	}
	errs := make([]error, cfg.Samples)
	tracker := obs.NewTracker(cfg.Progress, "characterize", int64(cfg.Samples), 0)
	run := func(idx int, guess [NumAxes]float64) {
		errs[idx] = sample(idx, guess)
		if m := cfg.Metrics; m != nil {
			m.VariationSamples.Inc()
		}
		tracker.Add(1)
	}

	// Sample 0 runs alone, and its critical charges guide every other
	// sample's bisection. A guess changes which probes are simulated, never
	// a result, and it depends on sample 0 alone, so neither depends on
	// Workers.
	run(0, [NumAxes]float64{})
	if err := errs[0]; err != nil && !isCtxErr(err) {
		// Sample 0 is the lowest index, so its own failure is the report
		// whatever the other samples would do: none of them runs.
		tracker.Finish()
		return nil, fmt.Errorf("sram: sample 0: %w", err)
	}
	var guess [NumAxes]float64
	if errs[0] == nil {
		for a := range guess {
			guess[a] = ch.Axis[a][0]
		}
	}
	var next atomic.Int64 // the last sample index handed out
	var wg sync.WaitGroup
	for w := 0; w < min(cfg.Workers, cfg.Samples-1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := int(next.Add(1)); idx < cfg.Samples && ctx.Err() == nil; idx = int(next.Add(1)) {
				run(idx, guess)
			}
		}()
	}
	wg.Wait()
	tracker.Finish()

	for idx, err := range errs {
		if err != nil && !isCtxErr(err) {
			return nil, fmt.Errorf("sram: sample %d: %w", idx, err)
		}
	}
	if err := ctx.Err(); err != nil {
		// Cancelled: some samples never ran, so the characterization is
		// incomplete and must not be used.
		return nil, fmt.Errorf("sram: characterize: %w", err)
	}
	for idx, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sram: sample %d: %w", idx, err)
		}
	}
	if err := ch.finish(); err != nil {
		return nil, err
	}
	return ch, nil
}

// isCtxErr reports whether err is (or wraps) a context cancellation or
// deadline error.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// finish builds the derived lookup structures.
func (ch *Characterization) finish() error {
	for a := range ch.Axis {
		e, err := stats.NewECDF(ch.Axis[a])
		if err != nil {
			return fmt.Errorf("sram: axis %d: %w", a, err)
		}
		ch.ecdf[a] = e
	}
	ch.recip = make([][NumAxes]float64, ch.Samples)
	for i := range ch.recip {
		for a := 0; a < int(NumAxes); a++ {
			q := ch.Axis[a][i]
			if q > 0 && !math.IsInf(q, 1) {
				ch.recip[i][a] = 1 / q
			}
		}
	}
	return nil
}

// POFSingle returns the probability that a charge q on a single axis flips
// the cell: P(Qcrit ≤ q) over the variation samples. O(log samples).
func (ch *Characterization) POFSingle(a Axis, q float64) float64 {
	if q <= 0 {
		return 0
	}
	return ch.ecdf[a].Eval(q)
}

// POF returns the flip probability for an arbitrary charge vector using the
// linear flip-surface model per variation sample: flip ⇔ Σ qᵢ/aᵢ ≥ 1.
// Single-axis vectors take the exact ECDF fast path.
func (ch *Characterization) POF(q [NumAxes]float64) float64 {
	nz, axis := 0, Axis(0)
	for a := AxisI1; a < NumAxes; a++ {
		if q[a] > 0 {
			nz++
			axis = a
		}
	}
	switch nz {
	case 0:
		return 0
	case 1:
		return ch.POFSingle(axis, q[axis])
	}
	flips := 0
	for i := range ch.recip {
		s := 0.0
		for a := 0; a < int(NumAxes); a++ {
			s += q[a] * ch.recip[i][a]
		}
		if s >= 1 {
			flips++
		}
	}
	return float64(flips) / float64(len(ch.recip))
}

// QcritQuantile returns the q-quantile of the axis critical-charge
// distribution (0.5 = median).
func (ch *Characterization) QcritQuantile(a Axis, q float64) float64 {
	return ch.ecdf[a].Quantile(q)
}

// WriteJSON serializes the characterization (the "POF LUT" artifact).
func (ch *Characterization) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ch)
}

// charJSON is the JSON form of a Characterization. JSON has no infinity,
// so an unflippable sample's +Inf critical charge is spelled null.
type charJSON struct {
	Vdd     float64             `json:"vdd"`
	Samples int                 `json:"samples"`
	PV      bool                `json:"process_variation"`
	Axis    [NumAxes][]*float64 `json:"axis_qcrit"`
	Shifts  []VthShifts         `json:"vth_shifts,omitempty"`
}

// MarshalJSON writes the characterization with +Inf critical charges as
// null.
func (ch *Characterization) MarshalJSON() ([]byte, error) {
	out := charJSON{Vdd: ch.Vdd, Samples: ch.Samples, PV: ch.PV, Shifts: ch.Shifts}
	for a := range ch.Axis {
		out.Axis[a] = make([]*float64, len(ch.Axis[a]))
		for i := range ch.Axis[a] {
			if !math.IsInf(ch.Axis[a][i], 1) {
				out.Axis[a][i] = &ch.Axis[a][i]
			}
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes a characterization strictly (an unknown field is
// an error, null reads back as +Inf) and then validates it, so no decoded
// characterization skips the checks ReadCharacterization promises.
func (ch *Characterization) UnmarshalJSON(data []byte) error {
	var in charJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return err
	}
	out := Characterization{Vdd: in.Vdd, Samples: in.Samples, PV: in.PV, Shifts: in.Shifts}
	for a := range in.Axis {
		out.Axis[a] = make([]float64, len(in.Axis[a]))
		for i, q := range in.Axis[a] {
			out.Axis[a][i] = math.Inf(1)
			if q != nil {
				out.Axis[a][i] = *q
			}
		}
	}
	if err := out.validate(); err != nil {
		return err
	}
	*ch = out
	return nil
}

// validate re-runs the checks a freshly built characterization satisfies
// by construction, then builds its lookup structures. NaN, zero or
// negative critical charges would silently poison every downstream POF, so
// they are rejected; +Inf stays legal as the "unflippable" sentinel.
func (ch *Characterization) validate() error {
	if math.IsNaN(ch.Vdd) || math.IsInf(ch.Vdd, 0) || ch.Vdd <= 0 {
		return fmt.Errorf("sram: characterization Vdd %g is not a positive voltage", ch.Vdd)
	}
	if ch.Samples <= 0 {
		return fmt.Errorf("sram: characterization claims %d samples", ch.Samples)
	}
	for a := range ch.Axis {
		if len(ch.Axis[a]) != ch.Samples {
			return fmt.Errorf("sram: axis %d has %d samples, want %d",
				a, len(ch.Axis[a]), ch.Samples)
		}
		for i, q := range ch.Axis[a] {
			if math.IsNaN(q) || q <= 0 || math.IsInf(q, -1) {
				return fmt.Errorf("sram: axis %d sample %d has critical charge %g, want positive (or +Inf)", a, i, q)
			}
		}
	}
	if len(ch.Shifts) != 0 && len(ch.Shifts) != ch.Samples {
		return fmt.Errorf("sram: %d Vth shift records for %d samples", len(ch.Shifts), ch.Samples)
	}
	return ch.finish()
}

// ReadCharacterization deserializes a characterization. A characterization
// from disk is untrusted input, so decoding validates it (UnmarshalJSON)
// and rebuilds its lookup structures.
func ReadCharacterization(r io.Reader) (*Characterization, error) {
	var ch Characterization
	if err := json.NewDecoder(r).Decode(&ch); err != nil {
		return nil, fmt.Errorf("sram: decode characterization: %w", err)
	}
	return &ch, nil
}

// ValidateFlipSurface checks the linear multi-strike flip-surface
// approximation against direct circuit simulation: it draws trials random
// (sample, charge-vector) points near the surface and reports the fraction
// of evaluated trials where the surface model and the simulator agree. A
// trial drawing a sample that no charge flips has no surface and is
// skipped; when every trial is skipped there is nothing to report, which
// is an error. So is a characterization without per-sample Vth shifts
// (one read from JSON may lack them). cfg must be the config the
// characterization was built with (it supplies technology and shape).
func (ch *Characterization) ValidateFlipSurface(cfg CharConfig, trials int, seed uint64) (agreement float64, err error) {
	if len(ch.Shifts) != ch.Samples {
		return 0, fmt.Errorf("sram: validate flip surface: %d Vth shift records for %d samples; the per-sample shifts are missing",
			len(ch.Shifts), ch.Samples)
	}
	cfg = cfg.withDefaults()
	src := rng.New(seed)
	agree, evaluated := 0, 0
	for t := 0; t < trials; t++ {
		idx := src.Intn(ch.Samples)
		cell, err := NewCell(cfg.Tech, ch.Vdd, ch.Shifts[idx])
		if err != nil {
			return 0, err
		}
		// Random direction in the positive octant, scaled to land the
		// surface sum in [0.5, 1.5] so trials concentrate where the model
		// could plausibly be wrong.
		var q [NumAxes]float64
		s := 0.0
		for a := 0; a < int(NumAxes); a++ {
			q[a] = src.Float64()
			s += q[a] * ch.recip[idx][a]
		}
		if s == 0 {
			continue
		}
		scale := src.Uniform(0.5, 1.5) / s
		sum := 0.0
		for a := 0; a < int(NumAxes); a++ {
			q[a] *= scale
			sum += q[a] * ch.recip[idx][a]
		}
		predicted := sum >= 1
		res, err := cell.SimulateStrike(q, cfg.Shape)
		if err != nil {
			return 0, err
		}
		evaluated++
		if res.Flipped == predicted {
			agree++
		}
	}
	if evaluated == 0 {
		return 0, fmt.Errorf("sram: validate flip surface: no trial of %d drew a flippable sample", trials)
	}
	return float64(agree) / float64(evaluated), nil
}
