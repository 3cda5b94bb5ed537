// Package transport is the library's Geant4 substitute: straight-line
// Monte-Carlo transport of directly ionizing particles (protons,
// alpha-particles) through collections of silicon fin boxes. Crossings is
// the narrow phase: it finds the fins a track crosses. For each crossed
// fin, TraceAppend integrates the stopping power along the chord in 2 nm
// sub-steps, draws each sub-step's loss from a Landau (Moyal) straggling
// law, applies Fano pair-count fluctuation, and reports the electron–hole
// pairs generated in that fin — the exact quantity the paper extracts from
// Geant4 and stores in LUTs (its Fig. 4). Between fins the mean energy loss
// is solved in one step from the species' CSDA range table, whatever the
// gap's length.
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
	// Straggling enables energy-loss fluctuation: each stepNm sub-step of a
	// fin chord draws its loss from a Landau (Moyal) law around the mean.
	Straggling bool
	// FanoFluctuation enables sub-Poissonian pair-count fluctuation.
	FanoFluctuation bool
	// InterFinStoppingScale scales silicon stopping for the material between
	// fins (spacer/oxide stack): a gap integrates dE/dx = −scale·S(E), so a
	// particle whose range ends inside it stops there. 0 treats gaps as
	// lossless; 1 as silicon. The default config uses 0.5, a reasonable
	// oxide/nitride average.
	InterFinStoppingScale float64
	// Metrics, when non-nil, receives transport counters (rays traced, fin
	// intersections, segments deposited). Nil costs nothing.
	Metrics *Metrics
}

const (
	// stepNm is the sub-step length for integrating dE/dx along a fin
	// chord, fine enough that S(E) is constant per step for the fin
	// dimensions in play. Each step draws its own straggling.
	stepNm = 2
	// collectionEfficiency scales generated pairs to collected pairs. The
	// paper assumes full drift collection in the fin.
	collectionEfficiency = 1
)

// Metrics is the transport layer's observability hook. TraceAppend counts
// nothing itself: its callers count their tracks and add them with Add,
// as often as suits them (the array engine once per worker and estimate).
type Metrics struct {
	// RaysTraced counts the particle tracks transport resolves, one per
	// TraceAppend call at a positive energy. A caller that decides a track
	// by geometry alone and never traces it counts it too, so this keeps
	// counting every track that reaches the narrow phase.
	RaysTraced *obs.Counter
	// FinIntersections counts fin boxes the counted rays crossed.
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

// Add adds rays counted tracks, the crossings they made and the segments
// they deposited. Nil-safe.
func (m *Metrics) Add(rays, crossings, segments int64) {
	if m != nil {
		m.RaysTraced.Add(rays)
		m.FinIntersections.Add(crossings)
		m.SegmentsDeposited.Add(segments)
	}
}

// stopping returns the stopping model: the tabulated NIST-style anchors
// behind a dense log-uniform resampling, so the per-sub-step evaluation in
// the hot loop costs one logarithm instead of three plus an exponential.
// Both layers are safe for concurrent use, so one instance serves every
// track.
var stopping = sync.OnceValue(func() *phys.FastStopping {
	return phys.NewFastStopping(phys.NewTabulatedStopping())
})

// DefaultConfig returns the configuration used throughout the flow:
// straggling and Fano fluctuation on, half-silicon inter-fin losses.
func DefaultConfig() Config {
	return Config{
		Straggling:            true,
		FanoFluctuation:       true,
		InterFinStoppingScale: 0.5,
	}
}

// Deposit is the energy a single track left in a single fin.
type Deposit struct {
	Fin      int     // the fin's index into the boxes given to Crossings
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

// Crossing is one fin a track crosses: the fin's index into the boxes
// given to Crossings, and the ray parameters at which the track enters and
// leaves it.
type Crossing struct {
	Fin       int
	TIn, TOut float64
}

// Crossings appends to out the fins among boxes[idx[0]], boxes[idx[1]], …
// that ray crosses with a positive chord, in idx order, and returns it.
// It is the narrow phase of every strike path: a ray that only touches a
// fin (entry == exit) crosses nothing. It runs geom.AABB.Intersect's
// three geom.Slab steps on each box, so every TIn and TOut is bit for bit
// Intersect's, but inverts the ray's direction once, not once per box;
// a box is dropped at the first of its slabs the ray misses.
func Crossings(ray geom.Ray, boxes []geom.AABB, idx []int, out []Crossing) []Crossing {
	return CrossingsInv(ray, ray.InvDir(), boxes, idx, out)
}

// CrossingsInv is Crossings for a ray whose geom.Ray.InvDir is inv, for a
// strike whose broad phase has already inverted the ray's direction.
func CrossingsInv(ray geom.Ray, inv geom.Vec3, boxes []geom.AABB, idx []int, out []Crossing) []Crossing {
	o, d := ray.Origin, ray.Dir
	for _, fi := range idx {
		b := &boxes[fi]
		tIn, tOut, ok := geom.Slab(b.Min.X, b.Max.X, o.X, d.X, inv.X, 0, math.Inf(1))
		if ok {
			tIn, tOut, ok = geom.Slab(b.Min.Y, b.Max.Y, o.Y, d.Y, inv.Y, tIn, tOut)
		}
		if ok {
			tIn, tOut, ok = geom.Slab(b.Min.Z, b.Max.Z, o.Z, d.Z, inv.Z, tIn, tOut)
		}
		if ok && tOut > tIn {
			out = append(out, Crossing{Fin: fi, TIn: tIn, TOut: tOut})
		}
	}
	return out
}

// TraceAppend propagates one particle through the fins its ray crosses
// (hits, from Crossings) and appends the per-fin deposits to out in
// traversal order, returning it; out's existing elements are preserved.
// It sorts hits by entry in place. The particle's kinetic energy is
// depleted as it travels; a track that ranges out stops depositing. src
// supplies the fluctuation randomness and may be nil when both fluctuation
// options are off. With pre-grown buffers the call does not allocate. It
// counts nothing: at a positive energy the caller counts the track in
// cfg.Metrics, with its crossings and the deposits appended.
func TraceAppend(cfg Config, sp phys.Species, energyMeV float64, hits []Crossing, src *rng.Source, out []Deposit) []Deposit {
	if energyMeV <= 0 {
		return out
	}
	if (cfg.Straggling || cfg.FanoFluctuation) && src == nil {
		panic("transport: fluctuations enabled but no rng source")
	}
	if len(hits) == 0 {
		return out
	}
	// Insertion sort by entry parameter: a handful of hits per track, and
	// unlike sort.Slice it neither allocates a closure nor reorders equal
	// keys, keeping traversal order deterministic.
	for i := 1; i < len(hits); i++ {
		for j := i; j > 0 && hits[j].TIn < hits[j-1].TIn; j-- {
			hits[j], hits[j-1] = hits[j-1], hits[j]
		}
	}

	st := stopping()
	energyEV := energyMeV * 1e6
	cursor := 0.0
	for _, h := range hits {
		if energyEV <= 0 {
			break
		}
		// Lossy gap between the previous exit and this fin's entry.
		if gap := h.TIn - cursor; gap > 0 && cfg.InterFinStoppingScale > 0 {
			energyEV = st.Residual(sp, energyEV*1e-6, cfg.InterFinStoppingScale*gap) * 1e6
			if energyEV <= 0 {
				break
			}
		}
		dep := depositInSegment(cfg, st, sp, &energyEV, h.TOut-h.TIn, src)
		if dep > 0 {
			pairs := collectPairs(cfg, dep, src)
			out = append(out, Deposit{
				Fin:      h.Fin,
				EnergyEV: dep,
				Pairs:    pairs,
				PathNm:   h.TOut - h.TIn,
			})
		}
		if h.TOut > cursor {
			cursor = h.TOut
		}
	}
	return out
}

// depositInSegment walks a chord through silicon in stepNm sub-steps,
// depleting *energyEV by the total stopping and returning the *ionizing*
// deposit (electronic stopping plus the Lindhard partition of nuclear
// stopping for heavy recoils), with optional Landau straggling per step.
func depositInSegment(cfg Config, st *phys.FastStopping, sp phys.Species, energyEV *float64, pathNm float64, src *rng.Source) float64 {
	deposited := 0.0
	remaining := pathNm
	for remaining > 0 && *energyEV > 0 {
		step := math.Min(stepNm, remaining)
		eMeV := *energyEV * 1e-6
		// One electronic and one nuclear evaluation per sub-step; the
		// combined and ionizing rates share them (the table look-up is the
		// hot path's dominant cost).
		se := st.ElectronicStopping(sp, eMeV)
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
	return mean * collectionEfficiency
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

// CheckEnergy refuses a particle energy that is not positive and finite:
// no track can start with it.
func CheckEnergy(energyMeV float64) error {
	if energyMeV > 0 && energyMeV <= math.MaxFloat64 {
		return nil
	}
	return fmt.Errorf("transport: energy %g MeV is not positive and finite", energyMeV)
}

// FinYieldCtx runs iters random secants through a single fin at the given
// energy and returns the yield statistics — the paper's "10 million MC
// simulations ... for each particular energy" step. It refuses an energy
// CheckEnergy refuses before it traces anything, checks ctx every
// yieldCancelCheckEvery secants and returns its error on cancellation.
func FinYieldCtx(ctx context.Context, cfg Config, sp phys.Species, energyMeV float64, fin geom.AABB, iters int, src *rng.Source) (YieldStats, error) {
	if err := CheckEnergy(energyMeV); err != nil {
		return YieldStats{}, err
	}
	var w stats.Welford
	maxPairs := 0.0
	hits := 0
	boxes, idx := []geom.AABB{fin}, []int{0}
	var crossed []Crossing
	var deps []Deposit
	var rays, crossings, segments int64
	defer func() { cfg.Metrics.Add(rays, crossings, segments) }()
	for i := 0; i < iters; i++ {
		if i%yieldCancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return YieldStats{}, err
			}
		}
		ray := SecantThroughBox(src, fin)
		crossed = Crossings(ray, boxes, idx, crossed[:0])
		deps = TraceAppend(cfg, sp, energyMeV, crossed, src, deps[:0])
		rays++
		crossings += int64(len(crossed))
		segments += int64(len(deps))
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
