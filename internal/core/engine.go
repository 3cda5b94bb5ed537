// Package core implements the paper's primary contribution: the cross-layer
// SER estimation engine (its Fig. 6 flow). It glues the device level
// (transport: e–h pairs per struck fin), the circuit level (sram: POF per
// strike-current combination under process variation) and the array level
// (layout: 3-D fin placement) into the Monte-Carlo procedure of §5.1:
//
//  1. generate a random particle over the array,
//  2. find the struck fins by 3-D ray analysis,
//  3. convert per-fin deposited charge on sensitive transistors into the
//     cell's strike-current combination,
//  4. look up each struck cell's POF,
//  5. combine cell POFs into POFtot/POFSEU/POFMBU (Eqs. 4–6),
//  6. average over many particles, then integrate over the energy spectrum
//     for the FIT rate (Eq. 8).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"finser/internal/faultinject"
	"finser/internal/finfet"
	"finser/internal/geom"
	"finser/internal/guard"
	"finser/internal/layout"
	"finser/internal/lut"
	"finser/internal/obs"
	"finser/internal/phys"
	"finser/internal/rng"
	"finser/internal/spectra"
	"finser/internal/sram"
	"finser/internal/transport"
)

// DataPattern selects the bits stored in the array. The sensitive
// transistor set of each cell depends on its stored bit, so the pattern
// shifts which fins are live targets.
type DataPattern int

const (
	// PatternZeros stores 0 in every cell (the canonical characterized state).
	PatternZeros DataPattern = iota
	// PatternOnes stores 1 in every cell.
	PatternOnes
	// PatternCheckerboard alternates bits in both directions — the usual
	// worst-case test pattern.
	PatternCheckerboard
)

// Valid reports whether p is one of the defined patterns. New rejects
// invalid patterns up front, making the panic in Bit unreachable.
func (p DataPattern) Valid() bool {
	return p >= PatternZeros && p <= PatternCheckerboard
}

// Bit returns the stored bit at (row, col).
func (p DataPattern) Bit(row, col int) bool {
	switch p {
	case PatternZeros:
		return false
	case PatternOnes:
		return true
	case PatternCheckerboard:
		return (row+col)%2 == 1
	default:
		panic("core: unknown data pattern")
	}
}

// Incidence selects the angular distribution of incoming particles.
type Incidence int

const (
	// IncidenceCosine is the cosine-law distribution of an isotropic
	// external flux crossing the die plane (atmospheric protons).
	IncidenceCosine Incidence = iota
	// IncidenceIsotropic is a downward-isotropic source (package alpha
	// emission from material directly above the die).
	IncidenceIsotropic
)

// DefaultIncidence returns the physically appropriate incidence for a
// species: cosine-law for atmospheric protons, isotropic for package
// alphas.
func DefaultIncidence(sp phys.Species) Incidence {
	if sp == phys.Alpha {
		return IncidenceIsotropic
	}
	return IncidenceCosine
}

// DepositMode selects how per-fin charge deposits are obtained during the
// array Monte Carlo.
type DepositMode int

const (
	// DepositTransport traces every particle through the fin geometry,
	// resolving actual chord lengths, energy depletion, and straggling.
	DepositTransport DepositMode = iota
	// DepositLUT reproduces the paper's tractability device: a pre-built
	// single-fin look-up table of mean e-h yield versus energy (its Geant4
	// LUT, Fig. 4) supplies the deposit for every struck fin, ignoring
	// per-strike chord detail. Faster, coarser — the ablation benchmarks
	// quantify the difference.
	DepositLUT
)

// PhysicsRevision names the revision of the strike physics behind every
// FIT this module computes. Checkpoint and shard fingerprints include it,
// so results computed under another revision are rejected, never mixed.
// Raise it with any change that moves FIT bits for a fixed configuration.
// Revision 1: each inter-fin gap's energy loss is a CSDA range lookup, no
// longer integrated in 2 nm steps.
// Revision 2: the random stream is keyed per strike — strike i of an
// estimate draws from the stream keyed by (seed, i), and strikes merge in
// fixed chunks — so no result depends on the worker count.
const PhysicsRevision = 2

// Config assembles an Engine.
type Config struct {
	Tech       finfet.Technology
	Rows, Cols int // array dimensions (the paper uses 9×9)
	// Char is the cell POF model at the target Vdd: a sample-based
	// sram.Characterization, or a serialized sram.GridLUT for the paper's
	// LUT-only array architecture. For a symmetric cell it serves both
	// stored states (the axis mapping mirrors the roles).
	Char sram.POFProvider
	// CharOne optionally overrides the POF model for cells storing 1 —
	// needed when the cell is asymmetric (e.g. BTI-aged with a static data
	// pattern). Nil reuses Char for both states.
	CharOne sram.POFProvider
	// Transport configures the device-level physics.
	Transport transport.Config
	// Deposits selects full transport (default) or the paper's
	// mean-yield-LUT shortcut.
	Deposits DepositMode
	// LUTIters is the Monte-Carlo budget per energy grid point when
	// building yield LUTs for DepositLUT mode. Zero selects 20000.
	LUTIters int
	// Pattern is the stored data pattern.
	Pattern DataPattern
	// Incidence overrides the per-species default when non-nil.
	Incidence *Incidence
	// Workers bounds MC parallelism; 0 means GOMAXPROCS.
	Workers int
	// FITRelErr, when > 0, switches the FIT integration to confidence-driven
	// adaptive sampling (see adaptivefit.go): each energy bin consumes its
	// particle stream in fixed batches of itersPerBin/10 and stops once its
	// POFtot confidence interval is inside this relative tolerance, scaled
	// by the bin's flux weight in the FIT integral, up to a hard cap of 4×
	// the flat budget. ItersPerBin becomes the flat reference budget the
	// batches are sized from. The tolerance is result-determining (part of
	// the flow fingerprint): a fixed config stays bit-identical across runs,
	// checkpoint resume, and the distributed shard merge. Zero (the default)
	// keeps the exact flat-budget integration.
	FITRelErr float64
	// Metrics, when non-nil, receives engine counters (particles, hit/miss,
	// struck-cell multiplicity, worker utilization) and per-stage FIT
	// spans. Nil (the default) costs one pointer check per strike.
	Metrics *Metrics
	// Progress, when non-nil, receives throttled done/total/ETA reports
	// while FIT integrates over energy bins.
	Progress obs.ProgressFunc
	// OnBinDone, when non-nil, is invoked after every completed FIT energy
	// bin — freshly computed or restored from a checkpoint — with the bin's
	// POF point and the FIT accumulated so far. It fires once per bin (not
	// per particle), on the integration goroutine; keep it non-blocking.
	OnBinDone func(BinEvent)
	// Checkpoint, when non-nil, persists each completed FIT energy bin
	// (POF point + RNG seed schedule) so an interrupted integration can
	// resume bit-identically from the last completed bin. Nil disables
	// checkpointing.
	Checkpoint CheckpointStore
	// CheckpointPrefix namespaces this engine's checkpoint stages (e.g.
	// "vdd0.8/") so one store can carry a whole sweep.
	CheckpointPrefix string
	// Faults, when non-nil, injects deterministic failures at the engine's
	// worker-loop sites — robustness-test only. Nil (the default) costs one
	// pointer check per particle.
	Faults *faultinject.Hooks
	// Guard, when non-nil, checks physics invariants on every particle
	// (finite deposits, probability-valued POFs, charge conservation from
	// transport into the cells) and on the integrated FIT numbers. Warn
	// counts violations; Strict fails the stage with a *guard.InvariantError.
	// Nil (the default) costs one pointer check per particle.
	Guard *guard.Guard
	// NeutronSubstrateDepthNm is the depth of handle-wafer silicon (below
	// the BOX) modelled as a neutron interaction volume. Energetic reaction
	// secondaries born there can traverse the BOX and strike fins even
	// though the BOX blocks charge diffusion. Zero selects 3000 nm, roughly
	// the range of the hardest Si recoils.
	NeutronSubstrateDepthNm float64
}

// Engine is a ready-to-run array SER estimator for one (technology, Vdd).
type Engine struct {
	cfg      Config
	arr      *layout.Array
	boxes    []geom.AABB
	cellFins [][]int // fin indices per cell, for the grid-walk broad phase

	// scratch pools per-worker strike state (see strikeScratch) so the
	// steady-state Monte-Carlo path is allocation-free across calls.
	scratch sync.Pool

	yieldMu   sync.Mutex
	yieldLUTs map[phys.Species]*lut.Table1D // DepositLUT mode, built lazily
}

// New builds the engine: tiles the thin-cell layout into the array and
// prepares the broad-phase structures.
func New(cfg Config) (*Engine, error) {
	if cfg.Char == nil {
		return nil, errors.New("core: config needs a cell characterization")
	}
	if cfg.Rows <= 0 || cfg.Cols <= 0 {
		return nil, fmt.Errorf("core: bad array dims %d×%d", cfg.Rows, cfg.Cols)
	}
	if !cfg.Pattern.Valid() {
		return nil, fmt.Errorf("core: unknown data pattern %d", cfg.Pattern)
	}
	if cfg.Deposits != DepositTransport && cfg.Deposits != DepositLUT {
		return nil, fmt.Errorf("core: unknown deposit mode %d", cfg.Deposits)
	}
	if cfg.Deposits == DepositLUT {
		// Validate here what the lazy yield-LUT build depends on, so the
		// build itself cannot fail on bad inputs mid-run.
		if cfg.Tech.FinWidthNm <= 0 || cfg.Tech.GateLengthNm <= 0 || cfg.Tech.FinHeightNm <= 0 {
			return nil, fmt.Errorf("core: LUT deposit mode needs positive fin dims, got %g×%g×%g",
				cfg.Tech.FinWidthNm, cfg.Tech.GateLengthNm, cfg.Tech.FinHeightNm)
		}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	arr, err := layout.NewArray(layout.ThinCellLayout(cfg.Tech), cfg.Rows, cfg.Cols)
	if err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, arr: arr, boxes: arr.Boxes()}
	e.cellFins = make([][]int, arr.NumCells())
	for i, f := range arr.Fins() {
		ci := arr.CellIndex(f.Row, f.Col)
		e.cellFins[ci] = append(e.cellFins[ci], i)
	}
	nCells := arr.NumCells()
	e.scratch.New = func() any { return newStrikeScratch(nCells) }
	return e, nil
}

// Array exposes the tiled array (for reporting dimensions etc.).
func (e *Engine) Array() *layout.Array { return e.arr }

// sampleRay draws a random particle: uniform position on the array top
// face, direction from the configured incidence.
func (e *Engine) sampleRay(src *rng.Source, sp phys.Species) geom.Ray {
	inc := DefaultIncidence(sp)
	if e.cfg.Incidence != nil {
		inc = *e.cfg.Incidence
	}
	origin := src.PointOnTopFace(e.arr.Bounds())
	var dir geom.Vec3
	if inc == IncidenceCosine {
		dir = src.CosineLawDirection()
	} else {
		dir = src.DownwardIsotropic()
	}
	return geom.Ray{Origin: origin, Dir: dir}
}

// strikeOutcome is the per-particle result.
type strikeOutcome struct {
	pofTot, pofSEU, pofMBU float64
	struckCells            int // cells with charge on ≥1 sensitive transistor
}

// providerFor returns the POF model for the cell at the dense index ci,
// honouring the optional per-state override for asymmetric cells.
func (e *Engine) providerFor(ci int) sram.POFProvider {
	if e.cfg.CharOne == nil {
		return e.cfg.Char
	}
	if e.cfg.Pattern.Bit(ci/e.arr.Cols, ci%e.arr.Cols) {
		return e.cfg.CharOne
	}
	return e.cfg.Char
}

// ensureYieldLUT returns (building on first use) the single-fin mean-yield
// table for the species — the paper's Geant4 LUT. The build honours ctx,
// so a cancelled run does not pay for an unused table; inputs are
// validated at New, so a completed build cannot fail.
func (e *Engine) ensureYieldLUT(ctx context.Context, sp phys.Species) (*lut.Table1D, error) {
	e.yieldMu.Lock()
	defer e.yieldMu.Unlock()
	if e.yieldLUTs == nil {
		e.yieldLUTs = map[phys.Species]*lut.Table1D{}
	}
	if t, ok := e.yieldLUTs[sp]; ok {
		return t, nil
	}
	iters := e.cfg.LUTIters
	if iters <= 0 {
		iters = 20000
	}
	fin := geom.BoxAt(geom.V(0, 0, 0),
		geom.V(e.cfg.Tech.FinWidthNm, e.cfg.Tech.GateLengthNm, e.cfg.Tech.FinHeightNm))
	energies := lut.LogSpace(0.05, 1000, 25)
	t, err := transport.BuildFinYieldLUTCtx(ctx, e.cfg.Transport, sp, energies, fin, iters,
		rng.New(0xF14F+uint64(sp)))
	if err != nil {
		return nil, fmt.Errorf("core: yield LUT (%v): %w", sp, err)
	}
	e.yieldLUTs[sp] = t
	return t, nil
}

// strike runs steps 1–5 of the paper's §5.1 for one particle. yield is the
// pre-built mean-yield table in DepositLUT mode (resolved once per energy
// point, outside the hot loop) and nil in transport mode. scr holds the
// worker's reusable buffers; the steady-state path allocates nothing. The
// error is non-nil only under a strict guard, when a physics invariant
// (finite deposits, POF ∈ [0,1], charge conservation) is violated.
func (e *Engine) strike(src *rng.Source, sp phys.Species, energyMeV float64, yieldTab *lut.Table1D, scr *strikeScratch) (strikeOutcome, error) {
	ray := e.sampleRay(src, sp)

	// Broad phase: only trace fins of cells whose bounds the ray crosses.
	scr.candidate = appendCandidateFins(e, ray, scr.candidate[:0])
	candidate := scr.candidate
	if len(candidate) == 0 {
		return strikeOutcome{}, nil
	}
	deps := scr.deps[:0]
	if e.cfg.Deposits == DepositLUT {
		// Paper-style: every struck fin receives the mean yield at this
		// energy, regardless of chord geometry.
		yield := yieldTab.Eval(energyMeV)
		for i, fi := range candidate {
			if _, _, ok := e.boxes[fi].Intersect(ray); ok {
				deps = append(deps, transport.Deposit{Fin: i, Pairs: yield})
			}
		}
	} else {
		boxes := e.candidateBoxes(scr, candidate)
		deps = transport.TraceAppend(e.cfg.Transport, sp, energyMeV, ray, boxes, src, &scr.tr, deps)
	}
	scr.deps = deps
	if len(deps) == 0 {
		return strikeOutcome{}, nil
	}
	if err := transport.CheckDeposits(e.cfg.Guard, "core.strike", deps); err != nil {
		return strikeOutcome{}, err
	}
	if m := e.cfg.Metrics; m != nil {
		if e.cfg.Deposits == DepositLUT {
			m.DepositsLUT.Inc()
		} else {
			m.DepositsTransport.Inc()
		}
	}

	// Accumulate per-cell sensitive-axis charges into the dense epoch-
	// cleared accumulator, then order the struck cells by cell index: the
	// POF product/sum reductions below are float-order-sensitive, and the
	// sorted order makes them bit-identical across runs (the old per-strike
	// map iterated cells in randomized order).
	scr.beginCells()
	deposited := e.accumulateCharges(scr, candidate, deps)
	if len(scr.touched) == 0 {
		return strikeOutcome{}, nil
	}
	scr.sortTouched()
	if g := e.cfg.Guard; g.Enabled() {
		// Charge conservation: what the cells are about to see must equal
		// what transport deposited on sensitive transistors. The sums run in
		// different orders, so allow float round-off.
		injected := 0.0
		for _, ci := range scr.touched {
			for a := range scr.cellQ[ci] {
				injected += scr.cellQ[ci][a]
			}
		}
		if err := g.Conserved("core.strike", "injected charge", injected, deposited, 1e-9, 1e-30); err != nil {
			return strikeOutcome{}, err
		}
	}

	// Per-cell POFs and the paper's Eqs. 4–6, in sorted cell order.
	pofs := scr.pofs[:0]
	for _, ci := range scr.touched {
		p := e.providerFor(ci).POF(scr.cellQ[ci])
		if err := e.cfg.Guard.Probability("core.strike", "cell POF", p); err != nil {
			scr.pofs = pofs
			return strikeOutcome{}, err
		}
		if p > 0 {
			pofs = append(pofs, p)
		}
	}
	scr.pofs = pofs
	return combinePOFs(pofs, len(scr.touched)), nil
}

// candidateFins returns indices of fins in cells the ray can reach. It is
// the allocating convenience form of appendCandidateFins for cold callers.
func candidateFins(e *Engine, ray geom.Ray) []int {
	return appendCandidateFins(e, ray, nil)
}

// appendCandidateFins appends the indices of fins in cells the ray can
// reach to out and returns it. Cells tile a regular XY grid, so instead of
// testing every cell's bounds the engine walks the ray's XY projection
// through the grid (Amanatides–Woo traversal) — O(cells crossed), which
// keeps large arrays fast. Fins are strictly inside their cell footprint
// (a layout invariant), so the walk is exact; TestBroadPhaseComplete
// cross-checks it against brute force. With a pre-grown out buffer the
// walk is allocation-free.
func appendCandidateFins(e *Engine, ray geom.Ray, out []int) []int {
	tIn, tOut, ok := e.arr.Bounds().Intersect(ray)
	if !ok {
		return out
	}
	w := e.arr.Cell.WidthNm
	h := e.arr.Cell.HeightNm
	p0 := ray.At(tIn)
	p1 := ray.At(tOut)

	clampCol := func(x float64) int {
		c := int(x / w)
		if c < 0 {
			return 0
		}
		if c >= e.arr.Cols {
			return e.arr.Cols - 1
		}
		return c
	}
	clampRow := func(y float64) int {
		r := int(y / h)
		if r < 0 {
			return 0
		}
		if r >= e.arr.Rows {
			return e.arr.Rows - 1
		}
		return r
	}
	col := clampCol(p0.X)
	row := clampRow(p0.Y)
	endCol := clampCol(p1.X)
	endRow := clampRow(p1.Y)

	out = append(out, e.cellFins[e.arr.CellIndex(row, col)]...)
	if col == endCol && row == endRow {
		return out
	}

	dx := p1.X - p0.X
	dy := p1.Y - p0.Y
	stepC, stepR := 0, 0
	tMaxX, tMaxY := math.Inf(1), math.Inf(1)
	tDeltaX, tDeltaY := math.Inf(1), math.Inf(1)
	if dx > 0 {
		stepC = 1
		tMaxX = (float64(col+1)*w - p0.X) / dx
		tDeltaX = w / dx
	} else if dx < 0 {
		stepC = -1
		tMaxX = (float64(col)*w - p0.X) / dx
		tDeltaX = -w / dx
	}
	if dy > 0 {
		stepR = 1
		tMaxY = (float64(row+1)*h - p0.Y) / dy
		tDeltaY = h / dy
	} else if dy < 0 {
		stepR = -1
		tMaxY = (float64(row)*h - p0.Y) / dy
		tDeltaY = -h / dy
	}

	// Walk until the segment parameter exceeds 1 (the exit point).
	for steps := 0; steps < e.arr.Rows+e.arr.Cols+2; steps++ {
		if tMaxX < tMaxY {
			if tMaxX > 1 {
				break
			}
			col += stepC
			if col < 0 || col >= e.arr.Cols {
				break
			}
			tMaxX += tDeltaX
		} else {
			if tMaxY > 1 {
				break
			}
			row += stepR
			if row < 0 || row >= e.arr.Rows {
				break
			}
			tMaxY += tDeltaY
		}
		out = append(out, e.cellFins[e.arr.CellIndex(row, col)]...)
		if col == endCol && row == endRow {
			break
		}
	}
	return out
}

// combinePOFs applies Eqs. 4–6: POFtot = 1-Π(1-pᵢ),
// POFSEU = Σᵢ pᵢ·Πⱼ≠ᵢ(1-pⱼ), POFMBU = POFtot - POFSEU.
func combinePOFs(pofs []float64, struck int) strikeOutcome {
	out := strikeOutcome{struckCells: struck}
	if len(pofs) == 0 {
		return out
	}
	prodAll := 1.0
	for _, p := range pofs {
		prodAll *= 1 - p
	}
	out.pofTot = 1 - prodAll
	for i, pi := range pofs {
		prod := pi
		for j, pj := range pofs {
			if j != i {
				prod *= 1 - pj
			}
		}
		out.pofSEU += prod
	}
	out.pofMBU = out.pofTot - out.pofSEU
	if out.pofMBU < 0 { // numerical guard
		out.pofMBU = 0
	}
	return out
}

// POFPoint is the array POF at one particle energy, averaged over strikes
// that are guaranteed to hit the array footprint (the paper's Fig. 8
// convention).
type POFPoint struct {
	EnergyMeV float64
	Tot       float64 // mean POFtot per particle
	SEU       float64
	MBU       float64
	TotStdErr float64
	Strikes   int
	// HitFrac is the fraction of particles that charged at least one
	// sensitive transistor.
	HitFrac float64
}

// POFAtEnergyCtx runs iters Monte-Carlo particles of the species at one
// energy through the shared worker fan-out and returns the averaged POFs.
// Workers check ctx every cancelCheckEvery particles; a worker panic fails
// this energy point with a stack-carrying *faultinject.PanicError instead
// of crashing the process. The result is a pure function of the
// configuration and seed, whatever the worker count.
func (e *Engine) POFAtEnergyCtx(ctx context.Context, sp phys.Species, energyMeV float64, iters int, seed uint64) (POFPoint, error) {
	k, err := e.directKernel(ctx, sp)
	if err != nil {
		return POFPoint{}, err
	}
	pt, _, err := e.estimate(ctx, k, energyMeV, 0, iters, seed)
	return pt, err
}

// checkPOFPoint runs the guard's probability invariants over one energy
// point — used both on freshly computed points and on points restored from
// a checkpoint file, which is a disk trust boundary.
func checkPOFPoint(g *guard.Guard, stage string, pt POFPoint) error {
	if !g.Enabled() {
		return nil
	}
	name := fmt.Sprintf("POF @%g MeV", pt.EnergyMeV)
	if err := g.Probability(stage, name+" (tot)", pt.Tot); err != nil {
		return err
	}
	if err := g.Probability(stage, name+" (seu)", pt.SEU); err != nil {
		return err
	}
	if err := g.Probability(stage, name+" (mbu)", pt.MBU); err != nil {
		return err
	}
	return g.NonNegativeFinite(stage, name+" (stderr)", pt.TotStdErr)
}

// FITResult is the spectrum-integrated failure rate of the array.
type FITResult struct {
	Species phys.Species
	Vdd     float64
	// FIT rates: failures per 10⁹ device-hours (Eq. 8 scaled to FIT).
	TotalFIT float64
	SEUFIT   float64
	MBUFIT   float64
	// TotalFITErr is the 1σ Monte-Carlo uncertainty of TotalFIT, from the
	// per-bin POF standard errors propagated through Eq. 8 (bins are
	// independent, so variances add).
	TotalFITErr float64
	// MBUToSEU is the Fig. 10 ratio (in %, MBU FIT / SEU FIT × 100).
	MBUToSEU float64
	Points   []POFPoint // per-bin POFs, aligned with Bins
	Bins     []spectra.EnergyBin
	// Conv carries per-bin convergence records, aligned with Points, when
	// the integration ran in adaptive mode (Config.FITRelErr > 0); nil under
	// the flat budget.
	Conv []BinConv
}

// fitScale converts POF·flux[/(cm²·s)]·area[cm²] into FIT
// (events/1e9 hours).
const fitScale = 3600 * 1e9

// CheckpointStore persists per-stage state across interrupted runs.
// *checkpoint.Store implements it; the indirection keeps core free of any
// on-disk format knowledge.
type CheckpointStore interface {
	// Load unmarshals the named stage into v, reporting presence.
	Load(stage string, v any) (bool, error)
	// Save replaces the named stage's state.
	Save(stage string, v any) error
}

// BinEvent reports one completed FIT energy bin to Config.OnBinDone. Bin is
// 1-based; FITSoFar is the Eq. 8 partial sum over the bins completed so far
// (total FIT, same area and flux weighting as the final result), so a live
// consumer can watch the integral converge.
type BinEvent struct {
	Stage     string
	Bin, Bins int
	Point     POFPoint
	FITSoFar  float64
	// Resumed marks bins restored from a checkpoint rather than computed in
	// this call.
	Resumed bool
	// Adaptive marks events from an adaptive integration (Config.FITRelErr
	// > 0); Conv then carries the bin's convergence record.
	Adaptive bool
	Conv     BinConv
}

// fitState is the per-stage checkpoint payload: the full pre-drawn per-bin
// seed schedule plus the POF points of the bins completed so far, in bin
// order. The seed schedule doubles as a consistency check on resume — a
// checkpoint taken under a different seed or binning is rejected.
type fitState struct {
	ItersPerBin int        `json:"iters_per_bin"`
	Seeds       []uint64   `json:"seeds"`
	Points      []POFPoint `json:"points"`
	// RelErr records the adaptive tolerance the run was taken under (0 for
	// the flat budget); resuming under a different tolerance is rejected.
	RelErr float64 `json:"rel_err,omitempty"`
	// Conv records per-bin consumed-batch counts and convergence state in
	// adaptive mode, aligned with Points — what makes a resumed adaptive
	// integration replay the interrupted one bit-identically.
	Conv []BinConv `json:"conv,omitempty"`
}

// FITCtx runs the full Eq. 8 integration for a directly ionizing species:
// per energy bin, estimate the POF with itersPerBin Monte-Carlo particles
// (or adaptively, with Config.FITRelErr > 0), multiply by the bin's integral
// flux and the array area, and sum. It is cancellable and checkpointed bin
// by bin; see integrate.
func (e *Engine) FITCtx(ctx context.Context, spec spectra.Spectrum, bins []spectra.EnergyBin, itersPerBin int, seed uint64) (FITResult, error) {
	k, err := e.directKernel(ctx, spec.Species())
	if err != nil {
		return FITResult{}, err
	}
	return e.integrate(ctx, k, spec.Species(), bins, itersPerBin, seed)
}

// FITSeedSchedule returns the per-bin seed schedule FITCtx pre-draws from
// seed: bin k's Monte-Carlo substream is a pure function of (seed, k),
// independent of which process — or which machine — computes it. The
// distributed coordinator and its worker serds both derive the schedule
// from the job seed, which is what makes energy-bin shards relocatable
// without losing bit-identity with the single-node run.
func FITSeedSchedule(seed uint64, nBins int) []uint64 {
	src := rng.New(seed)
	seeds := make([]uint64, nBins)
	for i := range seeds {
		seeds[i] = src.Uint64()
	}
	return seeds
}

// POFBinsConvCtx is the shard-scoped FIT entry: the bin runner over
// bins[from:to) with the given pre-drawn seed schedule (aligned with bins,
// typically FITSeedSchedule output), exactly as FITCtx runs those bins. A
// worker computing bins [from,to) with the job's seed schedule produces
// points bit-identical to the single-node integration, so a coordinator can
// merge shards from many machines with AssembleFIT and land on the same
// FITResult to the last bit. conv carries the per-bin convergence records
// in adaptive mode (Config.FITRelErr > 0) and is nil under the flat budget.
func (e *Engine) POFBinsConvCtx(ctx context.Context, sp phys.Species, bins []spectra.EnergyBin, itersPerBin int, seeds []uint64, from, to int) ([]POFPoint, []BinConv, error) {
	if from >= to {
		return nil, nil, fmt.Errorf("core: POF bins: bad shard range [%d,%d) over %d bins", from, to, len(bins))
	}
	k, err := e.directKernel(ctx, sp)
	if err != nil {
		return nil, nil, err
	}
	adaptive := e.cfg.FITRelErr > 0
	pts := make([]POFPoint, 0, to-from)
	var convs []BinConv
	err = e.runBins(ctx, k, bins, itersPerBin, seeds, from, to, nil, func(_ int, pt POFPoint, conv BinConv) error {
		pts = append(pts, pt)
		if adaptive {
			convs = append(convs, conv)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return pts, convs, nil
}

// AssembleFIT folds per-bin POF points into the Eq. 8 FIT integral —
// exactly the accumulation FITCtx performs, factored out so a distributed
// merge runs the same float operations in the same (bin) order and is
// therefore bit-identical to the single-node result. points must align
// with bins; passing a completed subset of (bins, points) pairs yields the
// partial FIT sum over just those bins.
func AssembleFIT(sp phys.Species, vdd float64, bins []spectra.EnergyBin, points []POFPoint, areaCm2 float64) FITResult {
	res := FITResult{Species: sp, Vdd: vdd, Bins: bins, Points: points}
	for i, b := range bins {
		pt := points[i]
		res.TotalFIT += pt.Tot * b.IntFlux * areaCm2 * fitScale
		res.SEUFIT += pt.SEU * b.IntFlux * areaCm2 * fitScale
		res.MBUFIT += pt.MBU * b.IntFlux * areaCm2 * fitScale
		binErr := pt.TotStdErr * b.IntFlux * areaCm2 * fitScale
		res.TotalFITErr = math.Sqrt(res.TotalFITErr*res.TotalFITErr + binErr*binErr)
	}
	if res.SEUFIT > 0 {
		res.MBUToSEU = 100 * res.MBUFIT / res.SEUFIT
	}
	return res
}

// ArrayAreaCm2 returns the die area of the tiled array in cm² — the Eq. 8
// area factor — without building a full engine, so a coordinator that never
// touches a characterization can still run the FIT merge.
func ArrayAreaCm2(tech finfet.Technology, rows, cols int) (float64, error) {
	arr, err := layout.NewArray(layout.ThinCellLayout(tech), rows, cols)
	if err != nil {
		return 0, err
	}
	lx, ly := arr.DimsCm()
	return lx * ly, nil
}

// compatibleFITState verifies a restored checkpoint stage matches this
// run's integration plan: same particle budget, same seed schedule, and no
// more completed bins than the plan has.
func compatibleFITState(prev, cur fitState, nBins int) error {
	if prev.ItersPerBin != cur.ItersPerBin {
		return fmt.Errorf("iters per bin changed: checkpoint %d, run %d", prev.ItersPerBin, cur.ItersPerBin)
	}
	if prev.RelErr != cur.RelErr {
		// The adaptive tolerance is result-determining: a flat checkpoint
		// cannot seed an adaptive run or vice versa, and two tolerances
		// consume different batch streams.
		return fmt.Errorf("FIT tolerance changed: checkpoint %g, run %g", prev.RelErr, cur.RelErr)
	}
	if cur.RelErr > 0 && len(prev.Conv) != len(prev.Points) {
		return fmt.Errorf("checkpoint has %d convergence records for %d completed bins", len(prev.Conv), len(prev.Points))
	}
	if len(prev.Seeds) != len(cur.Seeds) {
		return fmt.Errorf("bin count changed: checkpoint %d, run %d", len(prev.Seeds), len(cur.Seeds))
	}
	for i := range prev.Seeds {
		if prev.Seeds[i] != cur.Seeds[i] {
			return fmt.Errorf("seed schedule diverges at bin %d", i)
		}
	}
	if len(prev.Points) > nBins {
		return fmt.Errorf("checkpoint has %d completed bins for a %d-bin plan", len(prev.Points), nBins)
	}
	return nil
}
