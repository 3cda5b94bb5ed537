// Package transport is the library's Geant4 substitute: straight-line
// Monte-Carlo transport of directly ionizing particles (protons,
// alpha-particles) through collections of silicon fin boxes. For each fin a
// track crosses, it integrates the electronic stopping power along the
// chord in sub-steps, applies Bohr energy-loss straggling and Fano
// pair-count fluctuation, and reports the electron–hole pairs generated in
// that fin — the exact quantity the paper extracts from Geant4 and stores
// in LUTs (its Fig. 4). Between fins the mean energy loss is solved in one
// step from the species' CSDA range table, whatever the gap's length.
package transport

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"finser/internal/geom"
	"finser/internal/guard"
	"finser/internal/lut"
	"finser/internal/obs"
	"finser/internal/phys"
	"finser/internal/rng"
	"finser/internal/stats"
)

// Config controls the transport physics fidelity.
type Config struct {
	// Stopping is the electronic stopping model, densely resampled. Nil
	// selects the tabulated NIST-style model; wrap another model with
	// phys.NewFastStopping.
	Stopping *phys.FastStopping
	// StepNm is the sub-step length for integrating dE/dx along a fin
	// chord. Zero selects 2 nm, fine enough that S(E) is constant per step
	// for the fin dimensions in play.
	StepNm float64
	// Straggling enables Bohr energy-loss fluctuation per step.
	Straggling bool
	// FanoFluctuation enables sub-Poissonian pair-count fluctuation.
	FanoFluctuation bool
	// InterFinStoppingScale scales silicon stopping for the material between
	// fins (spacer/oxide stack): a gap integrates dE/dx = −scale·S(E), so a
	// particle whose range ends inside it stops there. 0 treats gaps as
	// lossless; 1 as silicon. The default config uses 0.5, a reasonable
	// oxide/nitride average.
	InterFinStoppingScale float64
	// CollectionEfficiency scales generated pairs to collected pairs,
	// covering carriers lost to the BOX or recombined at interfaces.
	// Zero selects 1.0 (the paper assumes full drift collection in the fin).
	CollectionEfficiency float64
	// Metrics, when non-nil, receives transport counters (rays traced, fin
	// intersections, segments deposited). Nil costs nothing.
	Metrics *Metrics
}

// Metrics is the transport layer's observability hook.
type Metrics struct {
	// RaysTraced counts Trace calls (one particle track each).
	RaysTraced *obs.Counter
	// FinIntersections counts fin boxes the traced rays crossed.
	FinIntersections *obs.Counter
	// SegmentsDeposited counts fin chords that actually deposited energy
	// (intersections can range out before depositing).
	SegmentsDeposited *obs.Counter
}

// NewMetrics registers the transport counters on r under the "transport."
// prefix. Returns nil when r is nil, preserving the no-op path.
func NewMetrics(r *obs.Registry) *Metrics {
	if r == nil {
		return nil
	}
	return &Metrics{
		RaysTraced:        r.Counter("transport.rays_traced"),
		FinIntersections:  r.Counter("transport.fin_intersections"),
		SegmentsDeposited: r.Counter("transport.segments_deposited"),
	}
}

// defaultStopping returns the shared default stopping model: the tabulated
// NIST-style anchors behind a dense log-uniform resampling, so the per-
// sub-step evaluation in the hot loop costs one logarithm instead of three
// plus an exponential. Both layers are safe for concurrent use, so one
// instance serves every Config.
var defaultStopping = sync.OnceValue(func() *phys.FastStopping {
	return phys.NewFastStopping(phys.NewTabulatedStopping())
})

// DefaultConfig returns the configuration used throughout the flow:
// tabulated stopping (dense-resampled for evaluation speed), 2 nm steps,
// straggling and Fano fluctuation on, half-silicon inter-fin losses, unity
// collection efficiency.
func DefaultConfig() Config {
	return Config{
		Stopping:              defaultStopping(),
		StepNm:                2,
		Straggling:            true,
		FanoFluctuation:       true,
		InterFinStoppingScale: 0.5,
		CollectionEfficiency:  1,
	}
}

func (c Config) withDefaults() Config {
	if c.Stopping == nil {
		c.Stopping = defaultStopping()
	}
	if c.StepNm <= 0 {
		c.StepNm = 2
	}
	if c.CollectionEfficiency <= 0 {
		c.CollectionEfficiency = 1
	}
	return c
}

// Deposit is the energy a single track left in a single fin.
type Deposit struct {
	Fin      int     // index into the fins slice passed to Trace
	EnergyEV float64 // deposited energy
	Pairs    float64 // collected electron–hole pairs
	PathNm   float64 // chord length through the fin
}

// CheckDeposits runs the guard's physics invariants over a track's deposits:
// every deposited energy and collected pair count must be finite and
// non-negative — a NaN here would propagate through charge conversion into
// the circuit injection untouched by any sign check. Strict mode returns
// the first violation; warn mode counts them all and returns nil. The happy
// path is allocation-free: violation names are only formatted for values
// that already failed the numeric predicate, so an enabled guard costs two
// float compares per deposit, not a fmt.Sprintf.
func CheckDeposits(g *guard.Guard, stage string, deps []Deposit) error {
	if !g.Enabled() {
		return nil
	}
	for i, d := range deps {
		if badNonNegFinite(d.EnergyEV) {
			if err := g.NonNegativeFinite(stage, fmt.Sprintf("deposit %d energy", i), d.EnergyEV); err != nil {
				return err
			}
		}
		if badNonNegFinite(d.Pairs) {
			if err := g.NonNegativeFinite(stage, fmt.Sprintf("deposit %d pairs", i), d.Pairs); err != nil {
				return err
			}
		}
	}
	return nil
}

// badNonNegFinite mirrors guard.NonNegativeFinite's predicate so callers
// can defer name formatting until a value actually violates it.
func badNonNegFinite(v float64) bool {
	return math.IsNaN(v) || math.IsInf(v, 0) || v < 0
}

type hit struct {
	fin       int
	tIn, tOut float64
}

// TraceScratch holds the intermediate buffers one Trace call needs. A
// caller that traces millions of tracks keeps one TraceScratch per worker
// and passes it to TraceAppend, making the steady-state path
// allocation-free. The zero value is ready to use; a TraceScratch must not
// be shared between concurrent calls.
type TraceScratch struct {
	hits []hit
}

// Trace propagates one particle along ray (Dir must be unit length) through
// the fins and returns the per-fin deposits in traversal order. The
// particle's kinetic energy is depleted as it travels; a track that ranges
// out stops depositing. src supplies the fluctuation randomness and may be
// nil when both fluctuation options are off.
//
// Trace allocates its result and scratch per call; hot loops should use
// TraceAppend with a reused TraceScratch and output buffer instead.
func Trace(cfg Config, sp phys.Species, energyMeV float64, ray geom.Ray, fins []geom.AABB, src *rng.Source) []Deposit {
	var scr TraceScratch
	out := TraceAppend(cfg, sp, energyMeV, ray, fins, src, &scr, nil)
	if len(out) == 0 {
		return nil // preserve Trace's historical nil-on-no-deposit contract
	}
	return out
}

// TraceAppend is Trace's allocation-free form: intermediate state lives in
// scr (reused across calls) and deposits are appended to out, which is
// returned. With a warm scratch and a pre-grown out buffer the call does
// not allocate. Deposit.Fin indexes fins exactly as in Trace; out's
// existing elements are preserved, so callers batching several tracks into
// one buffer must record the length before each call.
func TraceAppend(cfg Config, sp phys.Species, energyMeV float64, ray geom.Ray, fins []geom.AABB, src *rng.Source, scr *TraceScratch, out []Deposit) []Deposit {
	cfg = cfg.withDefaults()
	if energyMeV <= 0 {
		return out
	}
	if (cfg.Straggling || cfg.FanoFluctuation) && src == nil {
		panic("transport: fluctuations enabled but no rng source")
	}

	hits := scr.hits[:0]
	for i, f := range fins {
		tIn, tOut, ok := f.Intersect(ray)
		if ok && tOut > tIn {
			hits = append(hits, hit{fin: i, tIn: tIn, tOut: tOut})
		}
	}
	scr.hits = hits[:0] // keep the (possibly regrown) backing array
	if m := cfg.Metrics; m != nil {
		m.RaysTraced.Inc()
		m.FinIntersections.Add(int64(len(hits)))
	}
	if len(hits) == 0 {
		return out
	}
	// Insertion sort by entry parameter: a handful of hits per track, and
	// unlike sort.Slice it neither allocates a closure nor reorders equal
	// keys, keeping traversal order deterministic.
	for i := 1; i < len(hits); i++ {
		for j := i; j > 0 && hits[j].tIn < hits[j-1].tIn; j-- {
			hits[j], hits[j-1] = hits[j-1], hits[j]
		}
	}

	nBefore := len(out)
	energyEV := energyMeV * 1e6
	cursor := 0.0
	for _, h := range hits {
		if energyEV <= 0 {
			break
		}
		// Lossy gap between the previous exit and this fin's entry.
		if gap := h.tIn - cursor; gap > 0 && cfg.InterFinStoppingScale > 0 {
			energyEV = cfg.Stopping.Residual(sp, energyEV*1e-6, cfg.InterFinStoppingScale*gap) * 1e6
			if energyEV <= 0 {
				break
			}
		}
		dep := depositInSegment(cfg, sp, &energyEV, h.tOut-h.tIn, src)
		if dep > 0 {
			pairs := collectPairs(cfg, dep, src)
			out = append(out, Deposit{
				Fin:      h.fin,
				EnergyEV: dep,
				Pairs:    pairs,
				PathNm:   h.tOut - h.tIn,
			})
		}
		if h.tOut > cursor {
			cursor = h.tOut
		}
	}
	if m := cfg.Metrics; m != nil {
		m.SegmentsDeposited.Add(int64(len(out) - nBefore))
	}
	return out
}

// depositInSegment walks a chord through silicon in sub-steps, depleting
// *energyEV by the total stopping and returning the *ionizing* deposit
// (electronic stopping plus the Lindhard partition of nuclear stopping for
// heavy recoils), with optional Landau straggling on the ionizing part.
func depositInSegment(cfg Config, sp phys.Species, energyEV *float64, pathNm float64, src *rng.Source) float64 {
	deposited := 0.0
	remaining := pathNm
	for remaining > 0 && *energyEV > 0 {
		step := math.Min(cfg.StepNm, remaining)
		eMeV := *energyEV * 1e-6
		// One electronic and one nuclear evaluation per sub-step; the
		// combined and ionizing rates share them (the table look-up is the
		// hot path's dominant cost).
		se := cfg.Stopping.ElectronicStopping(sp, eMeV)
		sn := phys.ZBLNuclearStopping(sp, eMeV)
		sTotal := se + sn
		sIon := se + phys.IonizationPartition*sn
		if sTotal <= 0 {
			break
		}
		deTotal := sTotal * step
		if cfg.Straggling {
			xi := phys.LandauXiEV(sp, eMeV, step)
			deTotal = phys.SampleLandauDeposit(deTotal, xi, src.Normal())
		}
		if deTotal > *energyEV {
			deTotal = *energyEV
		}
		deposited += deTotal * (sIon / sTotal)
		*energyEV -= deTotal
		remaining -= step
	}
	return deposited
}

// collectPairs converts deposited energy to collected e–h pairs with
// optional Fano fluctuation.
func collectPairs(cfg Config, energyEV float64, src *rng.Source) float64 {
	mean := phys.PairsFromEnergy(energyEV)
	if cfg.FanoFluctuation && mean > 0 {
		mean += math.Sqrt(phys.FanoFactor*mean) * src.Normal()
		if mean < 0 {
			mean = 0
		}
	}
	return mean * cfg.CollectionEfficiency
}

// SecantThroughBox samples a flux-uniform (μ-random) chord through the box:
// an isotropic direction plus a uniform impact point on the plane
// perpendicular to it, rejection-sampled to hit the box. This models a
// uniform external particle flux, so chord lengths obey Cauchy's mean-chord
// theorem E[L] = 4V/S. The returned ray has unit direction and enters the
// box at t = 0.
func SecantThroughBox(src *rng.Source, b geom.AABB) geom.Ray {
	c := b.Center()
	half := b.Size().Norm() / 2 // bounding-sphere radius
	for {
		d := src.IsotropicDirection()
		u, v := orthoBasis(d)
		// Uniform impact point on a disk-bounding square ⊥ d through the
		// centre; reject rays that miss the box.
		a := src.Uniform(-half, half)
		e := src.Uniform(-half, half)
		origin := c.Add(u.Scale(a)).Add(v.Scale(e)).Sub(d.Scale(2 * half))
		r := geom.Ray{Origin: origin, Dir: d}
		tIn, tOut, ok := b.Intersect(r)
		if !ok || tOut <= tIn {
			continue
		}
		return geom.Ray{Origin: r.At(tIn), Dir: d}
	}
}

// orthoBasis returns two unit vectors orthogonal to d and each other.
func orthoBasis(d geom.Vec3) (u, v geom.Vec3) {
	ref := geom.V(1, 0, 0)
	if math.Abs(d.X) > 0.9 {
		ref = geom.V(0, 1, 0)
	}
	u = d.Cross(ref).Unit()
	v = d.Cross(u)
	return u, v
}

// YieldStats summarizes the e–h yield distribution at one energy.
type YieldStats struct {
	EnergyMeV float64
	MeanPairs float64
	StdPairs  float64
	MaxPairs  float64
	HitFrac   float64 // fraction of sampled tracks that deposited anything
}

// yieldCancelCheckEvery is the secant stride between context checks while
// building yield statistics — fine enough that a cancelled LUT build stops
// within a few hundred microseconds.
const yieldCancelCheckEvery = 256

// FinYieldCtx runs iters random secants through a single fin at the given
// energy and returns the yield statistics — the paper's "10 million MC
// simulations ... for each particular energy" step. It checks ctx every
// yieldCancelCheckEvery secants and returns its error on cancellation.
func FinYieldCtx(ctx context.Context, cfg Config, sp phys.Species, energyMeV float64, fin geom.AABB, iters int, src *rng.Source) (YieldStats, error) {
	var w stats.Welford
	maxPairs := 0.0
	hits := 0
	for i := 0; i < iters; i++ {
		if i%yieldCancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return YieldStats{}, err
			}
		}
		ray := SecantThroughBox(src, fin)
		deps := Trace(cfg, sp, energyMeV, ray, []geom.AABB{fin}, src)
		pairs := 0.0
		for _, d := range deps {
			pairs += d.Pairs
		}
		if pairs > 0 {
			hits++
		}
		if pairs > maxPairs {
			maxPairs = pairs
		}
		w.Add(pairs)
	}
	return YieldStats{
		EnergyMeV: energyMeV,
		MeanPairs: w.Mean(),
		StdPairs:  w.StdDev(),
		MaxPairs:  maxPairs,
		HitFrac:   float64(hits) / float64(iters),
	}, nil
}

// BuildFinYieldLUTCtx sweeps the energy grid and returns the mean-pairs
// LUT used by the array-level stage (and plotted, normalized, as Fig. 4).
// The sweep checks ctx between secant batches, so a cancelled run abandons
// the (potentially hundreds of ms) LUT construction promptly.
func BuildFinYieldLUTCtx(ctx context.Context, cfg Config, sp phys.Species, energiesMeV []float64, fin geom.AABB, itersPerEnergy int, src *rng.Source) (*lut.Table1D, error) {
	if len(energiesMeV) < 2 {
		return nil, errors.New("transport: need at least two energies")
	}
	if itersPerEnergy <= 0 {
		return nil, errors.New("transport: need positive iteration count")
	}
	ys := make([]float64, len(energiesMeV))
	for i, e := range energiesMeV {
		if e <= 0 {
			return nil, fmt.Errorf("transport: non-positive energy %g", e)
		}
		stat, err := FinYieldCtx(ctx, cfg, sp, e, fin, itersPerEnergy, src)
		if err != nil {
			return nil, fmt.Errorf("transport: yield LUT at %g MeV: %w", e, err)
		}
		ys[i] = stat.MeanPairs
		if ys[i] <= 0 {
			// Keep the table log-interpolable even if an energy point ranged
			// out completely.
			ys[i] = 1e-9
		}
	}
	return lut.NewTable1D(energiesMeV, ys, lut.Log, lut.Log)
}
