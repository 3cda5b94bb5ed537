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
//
// Only step 4 depends on the supply voltage, so an Engine holds no cell
// model: every estimate takes the model it looks strikes up in.
package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
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

// patternNames spells each pattern, indexed by its value.
var patternNames = [...]string{"zeros", "ones", "checkerboard"}

// Valid reports whether p is one of the defined patterns. New rejects
// invalid patterns up front, making the panic in Bit unreachable.
func (p DataPattern) Valid() bool {
	return p >= PatternZeros && p <= PatternCheckerboard
}

// String is the pattern's name: zeros, ones or checkerboard. Fingerprints
// encode a pattern as its integer value, not as this name.
func (p DataPattern) String() string {
	if !p.Valid() {
		return fmt.Sprintf("DataPattern(%d)", int(p))
	}
	return patternNames[p]
}

// ParseDataPattern reads a pattern name case-insensitively; "" is zeros.
// ok is false for anything else.
func ParseDataPattern(s string) (p DataPattern, ok bool) {
	if s == "" {
		return PatternZeros, true
	}
	for i, name := range patternNames {
		if strings.EqualFold(s, name) {
			return DataPattern(i), true
		}
	}
	return 0, false
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
// Revision 3: each FinFET stamp takes its Jacobian in closed form, no
// longer by central differences, which moves a critical charge by one
// bisection step where a probe lies within Newton's tolerance of the flip
// threshold (about 1 in 2,000).
const PhysicsRevision = 3

// Config assembles an Engine.
type Config struct {
	Tech       finfet.Technology
	Rows, Cols int // array dimensions (the paper uses 9×9)
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
	// Metrics, when non-nil, receives engine counters (particles, hit/miss,
	// struck-cell multiplicity, worker utilization) and per-stage FIT
	// spans. Nil (the default) costs one pointer check per strike.
	Metrics *Metrics
	// Progress, when non-nil, receives throttled done/total/ETA reports
	// while FIT integrates over energy bins.
	Progress obs.ProgressFunc
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

// Engine is a ready-to-run array SER estimator for one technology, array
// and data pattern. Each estimate takes the sram.POFProvider it looks
// strikes up in (a Characterization, or the paper's serialized GridLUT),
// so calls on one engine may interleave any models.
type Engine struct {
	cfg      Config
	arr      *layout.Array
	boxes    []geom.AABB // every fin's box, by global fin index
	cellFins [][]int     // fin indices per cell, for the grid-walk broad phase
	// slab is the neutron substrate interaction volume; hasSlab is false
	// when Config.NeutronSubstrateDepthNm disables it.
	slab    geom.AABB
	hasSlab bool

	// scratch pools per-worker strike state (see strikeScratch) so the
	// steady-state Monte-Carlo path is allocation-free across calls.
	scratch sync.Pool

	yieldMu   sync.Mutex
	yieldLUTs map[phys.Species]*lut.Table1D // DepositLUT mode, built lazily
}

// New builds the engine: tiles the thin-cell layout into the array and
// prepares the broad-phase structures.
func New(cfg Config) (*Engine, error) {
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
	e.slab, e.hasSlab = e.substrateSlab()
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

// yieldTable returns the species' single-fin mean-yield table — the
// paper's Geant4 LUT — in DepositLUT mode, building it on first use, and
// nil in transport mode. Every α/p strike path takes its deposit mode from
// here. The build honours ctx, so a cancelled run does not pay for an
// unused table; inputs are validated at New, so a completed build cannot
// fail.
func (e *Engine) yieldTable(ctx context.Context, sp phys.Species) (*lut.Table1D, error) {
	if e.cfg.Deposits != DepositLUT {
		return nil, nil
	}
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

// strike runs steps 2–5 of the paper's §5.1 for one particle on the
// sampled ray, in cell model m: the one-model case of the two strike
// halves, chargeStrike and lookup. MBU reports and sampled tracks call it.
// yieldTab is the yieldTable result, resolved once per estimate outside
// the hot loop. scr holds the worker's reusable buffers, and keeps the
// track's deposits and the strike's cell POFs until the next call; the
// steady-state path allocates nothing. The error is non-nil only under a
// strict guard.
func (e *Engine) strike(m sram.POFProvider, src *rng.Source, sp phys.Species, energyMeV float64, ray geom.Ray, yieldTab *lut.Table1D, scr *strikeScratch) (strikeOutcome, error) {
	if err := e.chargeStrike(src, sp, energyMeV, ray, yieldTab, scr); err != nil {
		return strikeOutcome{}, err
	}
	return e.lookup(m, scr)
}

// chargeStrike is the voltage-independent half of an α/p strike: it opens
// the strike, charges its cells along the one track (chargeTrack) and
// closes them (closeCells).
func (e *Engine) chargeStrike(src *rng.Source, sp phys.Species, energyMeV float64, ray geom.Ray, yieldTab *lut.Table1D, scr *strikeScratch) error {
	scr.beginCells()
	deposited, err := e.chargeTrack(src, sp, energyMeV, ray, yieldTab, scr)
	if err != nil {
		return err
	}
	return e.closeCells(scr, deposited)
}

// chargeTrack is the per-track half of the one strike body. It runs the
// broad phase for ray and the narrow phase (transport.Crossings) over the
// engine's fin boxes, resolves the crossed fins' deposits — by full
// transport, or from the mean-yield table when yieldTab is non-nil —
// checks them under the guard, and adds their sensitive-axis charge to the
// strike's cells in scr. It returns the charge landed on sensitive
// transistors. scr.deps keeps this track's deposits, by global fin index,
// until the next call. Several tracks may charge one strike: the caller
// opens it with scr.beginCells and closes it with closeCells.
func (e *Engine) chargeTrack(src *rng.Source, sp phys.Species, energyMeV float64, ray geom.Ray, yieldTab *lut.Table1D, scr *strikeScratch) (float64, error) {
	// Broad phase: only fins of cells whose bounds the ray crosses.
	scr.candidate = appendCandidateFins(e, ray, scr.candidate[:0])
	deps := scr.deps[:0]
	if len(scr.candidate) > 0 { // else the ray misses the array
		scr.hits = transport.Crossings(ray, e.boxes, scr.candidate, scr.hits[:0])
		if yieldTab != nil {
			// Paper-style: every crossed fin receives the mean yield at this
			// energy, regardless of chord geometry.
			yield := yieldTab.Eval(energyMeV)
			for _, h := range scr.hits {
				deps = append(deps, transport.Deposit{Fin: h.Fin, Pairs: yield})
			}
		} else {
			deps = transport.TraceAppend(e.cfg.Transport, sp, energyMeV, scr.hits, src, deps)
		}
	}
	scr.deps = deps
	if len(deps) == 0 {
		return 0, nil // the common track: it crosses no fin
	}
	if err := transport.CheckDeposits(e.cfg.Guard, "core.strike", deps); err != nil {
		return 0, err
	}
	return e.accumulateCharges(scr, deps), nil
}

// closeCells closes a strike whose tracks landed deposited on sensitive
// transistors: it orders the struck cells by cell index and checks under
// the guard that they received exactly that charge. The sorted order makes
// the float-order-sensitive reductions downstream (Eqs. 4–6, the MBU
// multiplicity PMF) bit-identical across runs. The error is non-nil only
// under a strict guard.
func (e *Engine) closeCells(scr *strikeScratch, deposited float64) error {
	if len(scr.touched) == 0 {
		return nil // nothing charged, so nothing to conserve
	}
	scr.sortTouched()
	if g := e.cfg.Guard; g.Enabled() {
		// Charge conservation: what the cells are about to see must equal
		// what the tracks deposited on sensitive transistors. The sums run
		// in different orders, so allow float round-off.
		injected := 0.0
		for _, ci := range scr.touched {
			for a := range scr.cellQ[ci] {
				injected += scr.cellQ[ci][a]
			}
		}
		return g.Conserved("core.strike", "injected charge", injected, deposited, 1e-9, 1e-30)
	}
	return nil
}

// lookup is the per-voltage half of a strike closed in scr: it looks up
// each struck cell's POF in model m under the probability guard and folds
// them by Eqs. 4–6. The positive POFs land in scr.pofs with their cells in
// scr.pofCells, in cell order. The error is non-nil only under a strict
// guard.
func (e *Engine) lookup(m sram.POFProvider, scr *strikeScratch) (strikeOutcome, error) {
	scr.pofs, scr.pofCells = scr.pofs[:0], scr.pofCells[:0]
	for _, ci := range scr.touched {
		p := m.POF(scr.cellQ[ci])
		if err := e.cfg.Guard.Probability("core.strike", "cell POF", p); err != nil {
			return strikeOutcome{}, err
		}
		if p > 0 {
			scr.pofs = append(scr.pofs, p)
			scr.pofCells = append(scr.pofCells, ci)
		}
	}
	return combinePOFs(scr.pofs, len(scr.touched)), nil
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
// energy through the shared worker fan-out, looks their struck cells up in
// cell model m, and returns the averaged POFs. Workers check ctx every
// cancelCheckEvery particles; a worker panic fails this energy point with
// a stack-carrying *faultinject.PanicError instead of crashing the
// process. The result is a pure function of the configuration, model and
// seed, whatever the worker count.
func (e *Engine) POFAtEnergyCtx(ctx context.Context, m sram.POFProvider, sp phys.Species, energyMeV float64, iters int, seed uint64) (POFPoint, error) {
	k, err := e.directKernel(ctx, sp)
	if err != nil {
		return POFPoint{}, err
	}
	pts, _, err := e.estimate(ctx, k, []sram.POFProvider{m}, energyMeV, 0, iters, seed)
	if err != nil {
		return POFPoint{}, err
	}
	return pts[0], nil
}

// checkPOFPoint runs the guard's probability invariants over one freshly
// computed energy point. Points that cross a trust boundary (a checkpoint
// or the shard wire) pass CheckBin instead, whatever the guard mode.
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
	// the integration ran in adaptive mode (a BinPlan with RelErr > 0); nil
	// under the flat budget.
	Conv []BinConv
}

// fitScale converts POF·flux[/(cm²·s)]·area[cm²] into FIT
// (events/1e9 hours).
const fitScale = 3600 * 1e9

// CheckpointStore persists per-stage state across interrupted runs.
// *checkpoint.Store implements it; the indirection keeps core free of any
// on-disk format knowledge. Only a Ledger holds one: the engine runs the
// ledgers its caller builds and knows no store.
type CheckpointStore interface {
	// Load unmarshals the named stage into v, reporting presence.
	Load(stage string, v any) (bool, error)
	// Save replaces the named stage's state.
	Save(stage string, v any) error
}

// BinEvent reports one completed FIT energy bin to a Ledger's onBin hook.
// Bin is 1-based; FITSoFar is the Eq. 8 partial sum over the bins
// completed so far (total FIT, same area and flux weighting as the final
// result), so a live consumer can watch the integral converge.
type BinEvent struct {
	Stage     string
	Bin, Bins int
	Point     POFPoint
	FITSoFar  float64
	// Resumed marks bins restored from a checkpoint rather than computed in
	// this call.
	Resumed bool
	// Adaptive marks events from an adaptive integration (a plan with
	// RelErr > 0); Conv then carries the bin's convergence record.
	Adaptive bool
	Conv     BinConv
}

// FITCtx runs the full Eq. 8 integration for a directly ionizing species in
// cell model m: per energy bin, estimate the POF with itersPerBin
// Monte-Carlo particles, multiply by the bin's integral flux and the array
// area, and sum. It is the flat-budget, store-less library form of
// RunLedgersCtx: one run of ownPlan, with no checkpoint and no BinDone
// stream, cancellable bin by bin. Adaptive sampling runs a plan with
// RelErr > 0 through RunLedgersCtx.
func (e *Engine) FITCtx(ctx context.Context, m sram.POFProvider, spec spectra.Spectrum, bins []spectra.EnergyBin, itersPerBin int, seed uint64) (FITResult, error) {
	sp := spec.Species()
	return e.runOwnPlan(ctx, m, e.ownPlan(m, sp.String(), sp, bins, itersPerBin, seed), nil)
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

// AssembleFIT folds per-bin POF points into the Eq. 8 FIT integral, in bin
// order: the fold behind Ledger.FIT, so every FIT runs the same float
// operations in the same order however its bins were computed. points must
// align with bins; passing a completed subset of (bins, points) pairs
// yields the partial FIT sum over just those bins.
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
// area factor — without building an engine or tiling the array, so a
// coordinator can plan a bin ledger before it characterizes, and planning
// costs the same for any array size.
func ArrayAreaCm2(tech finfet.Technology, rows, cols int) (float64, error) {
	return layout.AreaCm2(layout.ThinCellLayout(tech), rows, cols)
}
