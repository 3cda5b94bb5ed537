// Package finser is a cross-layer soft-error-rate (SER) analysis library
// for SRAM arrays in SOI FinFET technology, reproducing the device-to-
// circuit flow of Kiamehr, Osiecki, Tahoori and Nassif (DAC 2014):
//
//	particle strike → 3-D fin-level Monte-Carlo transport (e–h pairs)
//	              → transient drift-current pulse (τ = L²/µeVds)
//	              → SPICE-style 6T-cell POF characterization with
//	                threshold-voltage process variation
//	              → 3-D memory-array layout Monte Carlo
//	              → SEU/MBU split and FIT-rate integration over the
//	                sea-level proton and package-alpha spectra.
//
// The package is a façade over the substrate packages in internal/: it
// re-exports the types a downstream user needs (technology cards, cell
// characterization, the array engine, spectra) and provides the one-call
// orchestration (RunFlowCtx, RunVddSweepCtx) used by the examples, the command-
// line tools, and the paper-figure benchmarks.
//
// # Performance and determinism contract
//
// The steady-state Monte-Carlo hot path — one particle through broad phase,
// transport, per-cell charge accumulation, and POF reduction — allocates
// nothing: each worker owns a reusable scratch buffer, and the circuit
// solver reuses one workspace across Newton iterations and timesteps. The
// per-strike reduction iterates struck cells in sorted cell order, and each
// strike draws from a random stream keyed by (seed, strike index), so every
// estimate (POF points, FIT rates, checkpoint-resumed sweeps, shard merges)
// is bit-identical for a given configuration and seed, whatever the worker
// count — not merely statistically reproducible. See README.md's
// "Performance" section for profiling and benchmark-reproduction
// instructions.
package finser

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"finser/internal/checkpoint"
	"finser/internal/core"
	"finser/internal/ecc"
	"finser/internal/faultinject"
	"finser/internal/finfet"
	"finser/internal/guard"
	"finser/internal/lifetime"
	"finser/internal/neutron"
	"finser/internal/obs"
	"finser/internal/phys"
	"finser/internal/scrub"
	"finser/internal/spectra"
	"finser/internal/sram"
)

// Re-exported substrate types. Aliases keep the public surface in one
// import while the implementations stay in focused internal packages.
type (
	// Technology is the FinFET technology card (geometry + electrical).
	Technology = finfet.Technology
	// Species identifies a particle species.
	Species = phys.Species
	// Characterization is a cell POF model at one supply voltage.
	Characterization = sram.Characterization
	// CharConfig configures cell POF characterization.
	CharConfig = sram.CharConfig
	// GridLUT is the paper-format serialized POF look-up table.
	GridLUT = sram.GridLUT
	// POFProvider is any POF model the array engine can consume.
	POFProvider = sram.POFProvider
	// Engine is the array-level Monte-Carlo SER engine.
	Engine = core.Engine
	// EngineConfig assembles an Engine.
	EngineConfig = core.Config
	// FITResult is a spectrum-integrated failure-rate result.
	FITResult = core.FITResult
	// POFPoint is an array POF estimate at one energy.
	POFPoint = core.POFPoint
	// DataPattern selects the bits stored in the array.
	DataPattern = core.DataPattern
	// Incidence selects the angular distribution of incoming particles.
	Incidence = core.Incidence
	// Spectrum describes a particle flux environment.
	Spectrum = spectra.Spectrum
	// EnergyBin is one slice of a discretized spectrum.
	EnergyBin = spectra.EnergyBin
	// PulseShape selects the injected current waveform.
	PulseShape = sram.PulseShape
	// NeutronReactions is the neutron–silicon reaction model (indirect
	// ionization extension; the paper's §7 future work).
	NeutronReactions = neutron.Reactions
	// NeutronPoint is the weighted array POF at one neutron energy.
	NeutronPoint = core.NeutronPoint
	// MBUReport summarizes upset multiplicity and geometry at one energy.
	MBUReport = core.MBUReport
	// BinConv is one FIT energy bin's convergence record under the adaptive
	// mode (FlowConfig.FITRelErr > 0): achieved relative error, weight-scaled
	// tolerance, consumed batches, and strikes saved versus the flat budget.
	BinConv = core.BinConv
	// PairKey is the row/column separation of an upset cell pair.
	PairKey = core.PairKey
	// ECCScheme describes word organization for interleaving analysis.
	ECCScheme = ecc.Scheme
	// ECCAnalysis is the outcome of applying a scheme to an MBU report.
	ECCAnalysis = ecc.Analysis
	// ScrubConfig models periodic scrubbing of an ECC-protected memory.
	ScrubConfig = scrub.Config
	// ScrubPoint is one entry of a scrub-interval sweep.
	ScrubPoint = scrub.Point
	// LifetimeConfig drives the event-level memory lifetime simulator.
	LifetimeConfig = lifetime.Config
	// LifetimeResult summarizes simulated memory lifetimes.
	LifetimeResult = lifetime.Result
	// Metrics is the cross-layer metrics registry (counters, gauges,
	// histograms, stage spans) snapshotable to JSON and publishable via
	// expvar. A nil *Metrics disables instrumentation at zero cost.
	Metrics = obs.Registry
	// MetricsSnapshot is a point-in-time JSON-serializable metrics view.
	MetricsSnapshot = obs.Snapshot
	// Progress is one report from a long-running stage (done/total/ETA).
	Progress = obs.Progress
	// ProgressFunc consumes progress reports.
	ProgressFunc = obs.ProgressFunc
	// CheckpointStore is an on-disk checkpoint that persists each completed
	// FIT energy bin so an interrupted sweep resumes bit-identically
	// (serflow -checkpoint / -resume). Build one with CreateCheckpoint or
	// ResumeCheckpoint; a nil store disables checkpointing.
	CheckpointStore = checkpoint.Store
	// CheckpointCorruptError is the typed error a damaged (truncated,
	// malformed, or wrong-version) checkpoint file is rejected with. It
	// names the file and the cause; a merely missing file is a plain I/O
	// error instead, so callers can tell "never ran" from "damaged".
	// Match with errors.As.
	CheckpointCorruptError = checkpoint.CorruptError
	// FaultHooks injects deterministic failures (worker panics, solver
	// errors, cancellation) at named sites inside the long-running stages —
	// for robustness tests only. A nil *FaultHooks is the zero-cost
	// production configuration.
	FaultHooks = faultinject.Hooks
	// PanicError is the stack-carrying error a recovered worker panic
	// surfaces as; use errors.As to retrieve the stack.
	PanicError = faultinject.PanicError
	// Guard is the runtime physics-invariant checker threaded through the
	// flow (probabilities in range, finite solver outputs, charge
	// conservation, monotone POF tables, non-negative FIT). A nil *Guard is
	// the zero-cost off configuration.
	Guard = guard.Guard
	// GuardMode is the guard enforcement level (GuardOff/GuardWarn/
	// GuardStrict).
	GuardMode = guard.Mode
	// GuardLogf is the warn-mode log sink signature (log.Printf-compatible).
	GuardLogf = guard.Logf
	// InvariantError is the typed error a strict guard fails a stage with,
	// naming the invariant, the stage, and the offending value. Match with
	// errors.As.
	InvariantError = guard.InvariantError
	// Ledger holds one species' completed FIT energy bins, single-node or
	// distributed alike (SpeciesLedger).
	Ledger = core.Ledger
	// BinEvent reports one completed FIT energy bin to FlowConfig.BinDone
	// (the Ledger's BinDone stream): the 1-based bin index, the bin's POF
	// point, and the Eq. 8 partial FIT sum so far.
	BinEvent = core.BinEvent
	// PlanMismatchError is the typed error a FIT stage fails with when its
	// characterization was built at another Vdd than the flow's, naming
	// both voltages. Match with errors.As.
	PlanMismatchError = core.PlanMismatchError
	// GuardViolation is the live violation payload FlowConfig.GuardEvent
	// receives for every recorded guard violation, in warn and strict modes
	// alike.
	GuardViolation = guard.Violation
	// BinDoneFunc consumes per-bin completion events.
	BinDoneFunc = func(BinEvent)
	// GuardEventFunc consumes live guard-violation events.
	GuardEventFunc = func(GuardViolation)
)

// Guard enforcement modes.
const (
	// GuardOff disables every invariant check (the zero value).
	GuardOff = guard.Off
	// GuardWarn counts and logs violations but lets the flow continue.
	GuardWarn = guard.Warn
	// GuardStrict fails the stage with a typed *InvariantError.
	GuardStrict = guard.Strict
)

// ParseGuardMode parses the -guard flag spelling ("off", "warn", "strict").
func ParseGuardMode(s string) (GuardMode, error) { return guard.ParseMode(s) }

// NewGuard builds a guard at the given mode, counting violations on reg
// (nil disables counting) and logging warn-mode hits through logf (nil
// discards). Returns nil — the zero-cost representation — for GuardOff.
// RunFlowCtx and friends call this internally from FlowConfig.Guard; use it
// directly when assembling CharConfig or EngineConfig by hand.
func NewGuard(mode GuardMode, reg *Metrics, logf GuardLogf) *Guard {
	return guard.New(mode, reg, logf)
}

// NewFaultHooks returns an empty fault-injection hook set (tests only).
func NewFaultHooks() *FaultHooks { return faultinject.New() }

// Fault-injection sites reachable through FlowConfig.Faults.
const (
	// FaultSiteParticle is hit once per array-MC particle inside the FIT
	// worker loops.
	FaultSiteParticle = core.FaultSiteParticle
	// FaultSiteSample is hit once per process-variation sample inside the
	// characterization workers.
	FaultSiteSample = sram.FaultSiteSample
)

// ErrCheckpointMismatch is returned by ResumeCheckpoint when the file was
// written under a different configuration (use errors.Is).
var ErrCheckpointMismatch = checkpoint.ErrConfigMismatch

// NewMetrics returns an empty metrics registry for FlowConfig.Obs, and for
// the Metrics field of a CharConfig or EngineConfig assembled by hand.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// ProgressPrinter returns a ProgressFunc rendering throttled one-line
// reports (stage, done/total, rate, ETA) on w — the live view behind
// serflow -progress.
func ProgressPrinter(w io.Writer) ProgressFunc {
	return obs.Printer(w)
}

// SimulateLifetime runs the event-driven scrubbed-memory simulator — the
// Monte-Carlo validation of the analytic ScrubConfig model.
func SimulateLifetime(cfg LifetimeConfig, trials int, seed uint64) (LifetimeResult, error) {
	return lifetime.Simulate(cfg, trials, seed)
}

// MTTFHours converts a FIT rate to mean time to failure in hours.
func MTTFHours(fit float64) float64 { return scrub.MTTFHours(fit) }

// Particle species.
const (
	Proton = phys.Proton
	Alpha  = phys.Alpha
)

// Data patterns.
const (
	PatternZeros        = core.PatternZeros
	PatternOnes         = core.PatternOnes
	PatternCheckerboard = core.PatternCheckerboard
)

// ParseDataPattern reads a pattern name (zeros, ones or checkerboard)
// case-insensitively; "" is zeros. ok is false for anything else.
func ParseDataPattern(s string) (DataPattern, bool) { return core.ParseDataPattern(s) }

// Pulse shapes.
const (
	ShapeRect      = sram.ShapeRect
	ShapeTriangle  = sram.ShapeTriangle
	ShapeDoubleExp = sram.ShapeDoubleExp
)

// Incidence modes.
const (
	IncidenceCosine    = core.IncidenceCosine
	IncidenceIsotropic = core.IncidenceIsotropic
)

// Deposit modes (full transport vs the paper's mean-yield LUT shortcut).
const (
	DepositTransport = core.DepositTransport
	DepositLUT       = core.DepositLUT
)

// Default14nmSOI returns the 14 nm SOI FinFET technology card.
func Default14nmSOI() Technology { return finfet.Default14nmSOI() }

// CharacterizeCtx runs the circuit-level cell POF characterization with
// cooperative cancellation and worker panic isolation: a cancelled context
// stops the variation Monte Carlo within a sample and returns ctx.Err()
// wrapped with the stage identity.
func CharacterizeCtx(ctx context.Context, cfg CharConfig) (*Characterization, error) {
	return sram.CharacterizeCtx(ctx, cfg)
}

// NewEngine builds an array SER engine.
func NewEngine(cfg EngineConfig) (*Engine, error) { return core.New(cfg) }

// BuildGridLUT samples a characterization onto the paper-format POF grids
// (serializable; usable directly as the engine's POF provider).
func BuildGridLUT(ch *Characterization, nFine, nCoarse int, qLo, qHi float64) (*GridLUT, error) {
	return sram.BuildGridLUT(ch, nFine, nCoarse, qLo, qHi)
}

// NewAlphaSpectrum builds the package alpha-emission environment for the
// given emission rate in α/(cm²·h). The paper assumes 0.001.
func NewAlphaSpectrum(ratePerCm2Hour float64) (Spectrum, error) {
	return spectra.NewAlphaEmission(ratePerCm2Hour)
}

// NewProtonSpectrum builds the sea-level proton environment; scale
// multiplies the nominal flux.
func NewProtonSpectrum(scale float64) (Spectrum, error) {
	return spectra.NewProtonSeaLevel(scale)
}

// NewNeutronSpectrum builds the sea-level neutron environment; scale
// multiplies the nominal (JEDEC-class) flux.
func NewNeutronSpectrum(scale float64) (Spectrum, error) {
	return neutron.NewSeaLevel(scale)
}

// NewNeutronReactions builds the neutron–silicon reaction model used by
// Engine.NeutronFITCtx.
func NewNeutronReactions() *NeutronReactions { return neutron.NewReactions() }

// AnalyzeECC classifies an MBU report's pair statistics under a word
// organization, returning the SEC-DED-uncorrectable share.
func AnalyzeECC(rep MBUReport, s ECCScheme) (ECCAnalysis, error) {
	return ecc.Analyze(rep, s)
}

// ECCInterleaveSweep evaluates the uncorrectable share across column-
// interleaving factors.
func ECCInterleaveSweep(rep MBUReport, factors []int, sameRowOnly bool) ([]ECCAnalysis, error) {
	return ecc.InterleaveSweep(rep, factors, sameRowOnly)
}

// ResidualMBUFIT estimates the post-ECC failure rate contributed by MBUs.
func ResidualMBUFIT(mbuFIT float64, a ECCAnalysis) float64 {
	return ecc.ResidualMBUFIT(mbuFIT, a)
}

// Bins discretizes a spectrum into n log-spaced energy bins over [lo, hi]
// MeV with per-bin integral fluxes (the Eq. 8 discretization).
func Bins(s Spectrum, lo, hi float64, n int) ([]EnergyBin, error) {
	return spectra.Bins(s, lo, hi, n)
}

// DefaultAlphaRate is the paper's assumed alpha emission rate, α/(cm²·h).
const DefaultAlphaRate = spectra.DefaultAlphaRate

// AltitudeScale returns the atmospheric-flux multiplier at the given
// altitude in metres (1 at sea level), for use as a proton/neutron
// spectrum scale.
func AltitudeScale(altitudeMeters float64) float64 {
	return spectra.AltitudeScale(altitudeMeters)
}

// FlowConfig configures the end-to-end flow at a single supply voltage.
// Its result-determining fields carry the JSON names of the serd job
// request, which is how a coordinator ships the job to its workers; the
// technology card, the worker count and every runtime hook stay off the
// wire.
type FlowConfig struct {
	// Tech is the technology card; zero value selects Default14nmSOI.
	Tech Technology `json:"-"`
	// Vdd is the supply voltage (required).
	Vdd float64 `json:"vdd"`
	// Rows, Cols are the array dimensions; zero selects the paper's 9×9.
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// ProcessVariation toggles the Vth Monte Carlo in characterization.
	ProcessVariation bool `json:"process_variation,omitempty"`
	// Samples is the PV sample count (paper: 1000). Zero selects 1000.
	Samples int `json:"samples,omitempty"`
	// ItersPerBin is the array-MC particle count per energy bin.
	// Zero selects 50000.
	ItersPerBin int `json:"iters_per_bin,omitempty"`
	// FITRelErr, when > 0, switches both species' FIT integrations to
	// confidence-driven adaptive sampling: each energy bin streams its
	// particles in batches of ItersPerBin/10 and stops as soon as its POF
	// confidence interval is inside this relative tolerance (scaled by the
	// bin's flux weight in the FIT integral), up to a hard per-bin cap of 4×
	// the flat budget. ItersPerBin becomes the flat reference budget. Valid
	// values are in (0, 0.5]; the tolerance is result-determining and part
	// of the flow fingerprint. Zero (the default) keeps the exact
	// flat-budget integration.
	FITRelErr float64 `json:"fit_rel_err,omitempty"`
	// AlphaRate is the alpha emission rate in α/(cm²·h); zero selects the
	// paper's 0.001.
	AlphaRate float64 `json:"alpha_rate,omitempty"`
	// ProtonScale multiplies the sea-level proton flux; zero selects 1.
	ProtonScale float64 `json:"proton_scale,omitempty"`
	// AlphaBins/ProtonBins are the energy discretizations; zero selects
	// 12 and 16.
	AlphaBins  int `json:"alpha_bins,omitempty"`
	ProtonBins int `json:"proton_bins,omitempty"`
	// Pattern is the stored data pattern, as its integer value on the wire.
	Pattern DataPattern `json:"pattern,omitempty"`
	// Seed makes the whole flow deterministic.
	Seed uint64 `json:"seed,omitempty"`
	// Workers bounds parallelism (0 = GOMAXPROCS). It is a speed setting
	// only: no result depends on it.
	Workers int `json:"-"`
	// Obs, when non-nil, collects cross-layer metrics and stage spans for
	// the whole flow (circuit Newton work, transport rays, characterization
	// samples, array-MC hit statistics, per-stage wall times). Nil — the
	// default — keeps every layer on its zero-cost uninstrumented path.
	Obs *Metrics `json:"-"`
	// Progress, when non-nil, receives throttled done/total/ETA reports
	// from the characterization and FIT stages.
	Progress ProgressFunc `json:"-"`
	// Checkpoint, when non-nil, persists every completed FIT energy bin so
	// an interrupted run — single-node or distributed, SpeciesLedger —
	// resumes bit-identically from its completed bins. Build it with
	// CreateCheckpoint (fresh run) or ResumeCheckpoint (continue an
	// interrupted one); the store rejects resuming under a different
	// configuration.
	Checkpoint *CheckpointStore `json:"-"`
	// Faults, when non-nil, injects deterministic failures into the worker
	// loops — robustness tests only. Nil (the default) is zero-cost.
	Faults *FaultHooks `json:"-"`
	// Guard selects the physics-invariant enforcement mode for the whole
	// flow: GuardOff (default, zero cost), GuardWarn (count violations on
	// Obs and keep going), or GuardStrict (fail the stage with a typed
	// *InvariantError). Guard mode never changes the numbers a healthy run
	// produces, so it is excluded from checkpoint fingerprints.
	Guard GuardMode `json:"-"`
	// GuardLog, when non-nil, receives warn-mode violation logs (throttled
	// to one line per invariant and stage). log.Printf fits.
	GuardLog GuardLogf `json:"-"`
	// BinDone, when non-nil, receives one event per completed FIT energy bin
	// (per species, including bins restored from a checkpoint) with the
	// bin's POF point and the FIT accumulated so far — the hook a live
	// telemetry stream taps. It fires on the integration goroutine; keep it
	// non-blocking. Like Obs and Checkpoint, it never changes the numbers
	// and is excluded from checkpoint fingerprints.
	BinDone BinDoneFunc `json:"-"`
	// GuardEvent, when non-nil, receives every guard violation (warn and
	// strict modes) as it is recorded, in addition to the Obs counters and
	// GuardLog lines. Same non-blocking and fingerprint-exclusion rules as
	// BinDone.
	GuardEvent GuardEventFunc `json:"-"`
}

// newGuard builds the flow's guard from the config (nil when GuardOff),
// wiring the live violation hook when one is configured.
func (c FlowConfig) newGuard() *guard.Guard {
	g := guard.New(c.Guard, c.Obs, c.GuardLog)
	if c.GuardEvent != nil {
		g.SetNotify(c.GuardEvent)
	}
	return g
}

// ConfigError reports an invalid FlowConfig field — a caller mistake that
// no amount of retrying can fix. A serving layer maps it to HTTP 400
// (everything else stays a 500-class job failure). Match with errors.As.
type ConfigError struct {
	// Field is the FlowConfig field name at fault.
	Field string
	// Reason describes the violation, including the offending value.
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("finser: FlowConfig.%s %s", e.Field, e.Reason)
}

// The admission bounds on every size the flow allocates for. Each is far
// above any study the paper makes, and low enough that no request can
// panic an allocation or exhaust memory.
const (
	maxArrayCells  = 256 * 256   // Rows×Cols
	maxBins        = 4096        // AlphaBins and ProtonBins
	maxSamples     = 100_000     // 100× the paper's 1,000 variation samples
	maxItersPerBin = 100_000_000 // 10× the paper's 10 M particles per bin
	maxWorkers     = 256
	// AlphaRate and ProtonScale. On the default card at the largest array
	// and bin counts, a stage's largest FIT (every bin at POF 1) is 2.3×10⁴
	// per unit α rate and 2.9×10³ per unit proton scale, so at this bound it
	// stays some 280 orders of magnitude below overflow
	// (TestAdmissionBoundsKeepFITFinite).
	maxFluxScale = 1e20
)

// Validate resolves defaults, returning the config the flow would run,
// and reports the first invalid field as a *ConfigError — the
// admission-time check a serving layer runs before queueing hours of work.
// It checks fields only and does no physics. Besides each field's own
// range — Rows×Cols at most 65,536 cells, AlphaBins and ProtonBins at most
// 4,096, Samples at most 100,000, ItersPerBin at most 10⁸, Workers at most
// 256, AlphaRate and ProtonScale at most 10²⁰ — Vdd must not exceed twice
// the technology card's nominal supply (when the card names one). The
// bounds keep every FIT finite on the default card. A custom card reaches
// Validate only from Go code (neither serd's request nor the shard wire
// carries one); its FIT totals are still checked by the engine's guard,
// when one is on, and in serd by the result's JSON encoding.
func (c FlowConfig) Validate() (FlowConfig, error) {
	if !(c.Vdd > 0) || math.IsInf(c.Vdd, 1) {
		return c, &ConfigError{Field: "Vdd", Reason: fmt.Sprintf("must be positive and finite, got %g", c.Vdd)}
	}
	// The environment scales: zero selects the default, anything else must
	// be a usable flux (a NaN, negative or infinite one would fail only
	// after the characterization, or not at all), and one too large would
	// overflow the FIT into an Inf or NaN that no JSON can carry.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"AlphaRate", c.AlphaRate},
		{"ProtonScale", c.ProtonScale},
	} {
		if !(f.v >= 0 && f.v <= maxFluxScale) {
			return c, &ConfigError{Field: f.name, Reason: fmt.Sprintf("must be zero (the default) or positive and at most %g, got %g", maxFluxScale, f.v)}
		}
	}
	// Negative budgets and dimensions are always mistakes, and sizes above
	// the admission bounds would panic an allocation or ask for gigabytes;
	// fail here with the field name instead of layers deeper.
	for _, f := range []struct {
		name   string
		v, max int
	}{
		{"Samples", c.Samples, maxSamples},
		{"ItersPerBin", c.ItersPerBin, maxItersPerBin},
		{"Rows", c.Rows, maxArrayCells},
		{"Cols", c.Cols, maxArrayCells},
		{"AlphaBins", c.AlphaBins, maxBins},
		{"ProtonBins", c.ProtonBins, maxBins},
	} {
		if f.v < 0 {
			return c, &ConfigError{Field: f.name, Reason: fmt.Sprintf("must not be negative, got %d", f.v)}
		}
		if f.v > f.max {
			return c, &ConfigError{Field: f.name, Reason: fmt.Sprintf("must not exceed %d, got %d", f.max, f.v)}
		}
	}
	if c.Workers > maxWorkers {
		return c, &ConfigError{Field: "Workers", Reason: fmt.Sprintf("must not exceed %d, got %d", maxWorkers, c.Workers)}
	}
	if !c.Pattern.Valid() {
		return c, &ConfigError{Field: "Pattern", Reason: fmt.Sprintf("unknown (%d)", c.Pattern)}
	}
	if c.FITRelErr != 0 && !(c.FITRelErr > 0 && c.FITRelErr <= 0.5) {
		// Above 0.5 the "converged" estimate would be noise; negative or NaN
		// tolerances are always mistakes.
		return c, &ConfigError{Field: "FITRelErr", Reason: fmt.Sprintf("must be in (0, 0.5], got %g", c.FITRelErr)}
	}
	if c.Tech.Name == "" {
		c.Tech = Default14nmSOI()
	}
	if c.Rows == 0 {
		c.Rows = 9
	}
	if c.Cols == 0 {
		c.Cols = 9
	}
	if c.Rows > maxArrayCells/c.Cols { // Rows×Cols > maxArrayCells, without overflow
		return c, &ConfigError{Field: "Rows", Reason: fmt.Sprintf("×Cols must not exceed %d cells, got %d×%d", maxArrayCells, c.Rows, c.Cols)}
	}
	if c.Samples == 0 {
		c.Samples = 1000
	}
	if c.ItersPerBin == 0 {
		c.ItersPerBin = 50000
	}
	if c.AlphaRate == 0 {
		c.AlphaRate = DefaultAlphaRate
	}
	if c.ProtonScale == 0 {
		c.ProtonScale = 1
	}
	if c.AlphaBins == 0 {
		c.AlphaBins = 12
	}
	if c.ProtonBins == 0 {
		c.ProtonBins = 16
	}
	// No cell model is solved far above its card's supply; 2× nominal
	// leaves the paper's 0.7–1.1 V sweep (1.6 V on the 14 nm card) room.
	if vmax := 2 * c.Tech.VddNominal; vmax > 0 && c.Vdd > vmax {
		return c, &ConfigError{Field: "Vdd", Reason: fmt.Sprintf("must not exceed twice the %s card's nominal %g V, got %g", c.Tech.Name, c.Tech.VddNominal, c.Vdd)}
	}
	return c, nil
}

// FlowResult is the outcome of the end-to-end flow at one supply voltage.
type FlowResult struct {
	Vdd    float64
	Alpha  FITResult
	Proton FITResult
	// Char is the cell characterization used (reusable across runs).
	Char *Characterization
}

// RunFlowCtx executes the complete paper flow at one Vdd: characterize the
// cell, build the array engine, and integrate FIT rates for both the alpha
// and proton environments — a Vdd sweep of one voltage. Cancellation is
// threaded through every long-running stage: a cancelled or expired
// context stops the characterization and FIT worker loops within
// milliseconds, and the returned error wraps ctx.Err() with the identity
// of the stage that was interrupted. With cfg.Checkpoint set, completed
// FIT bins survive the interruption and a rerun resumes from them.
func RunFlowCtx(ctx context.Context, cfg FlowConfig) (*FlowResult, error) {
	return runFlow(ctx, cfg, nil)
}

// characterize runs the flow's characterization stage under the flow span
// — the one FlowConfig → CharConfig mapping. cfg must already carry
// defaults.
func characterize(ctx context.Context, cfg FlowConfig, flow *obs.Span) (*Characterization, error) {
	charSpan := flow.Child("characterize")
	char, err := CharacterizeCtx(ctx, CharConfig{
		Tech:             cfg.Tech,
		Vdd:              cfg.Vdd,
		Samples:          cfg.Samples,
		ProcessVariation: cfg.ProcessVariation,
		Seed:             cfg.Seed,
		Workers:          cfg.Workers,
		Metrics:          cfg.Obs,
		Progress:         cfg.Progress,
		Faults:           cfg.Faults,
		Guard:            cfg.newGuard(),
	})
	charSpan.End()
	if err != nil {
		return nil, fmt.Errorf("finser: characterize: %w", err)
	}
	return char, nil
}

// RunFlowWithCharCtx is RunFlowCtx with a pre-built characterization —
// useful for sweeps that vary only the environment.
func RunFlowWithCharCtx(ctx context.Context, cfg FlowConfig, char *Characterization) (*FlowResult, error) {
	return runFlow(ctx, cfg, char)
}

// runFlow is a sweep of one voltage: it characterizes cfg's cell unless
// char is given, then runs fitSweep over it.
func runFlow(ctx context.Context, cfg FlowConfig, char *Characterization) (*FlowResult, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	flow := cfg.Obs.StartSpan("flow")
	defer flow.End()
	if char == nil {
		if char, err = characterize(ctx, cfg, flow); err != nil {
			return nil, err
		}
	}
	out, err := fitSweep(ctx, []FlowConfig{cfg}, []*Characterization{char}, flow)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// fitSweep is the environment half of every flow: it builds one engine and
// integrates alpha, then proton, each once over every voltage's ledger, so
// each strike is traced once and looked up in every voltage's cell model.
// cfgs carry defaults and differ only in Vdd; chars align with them.
func fitSweep(ctx context.Context, cfgs []FlowConfig, chars []*Characterization, flow *obs.Span) ([]*FlowResult, error) {
	eng, err := buildFlowEngine(cfgs[0], flow)
	if err != nil {
		return nil, err
	}
	alpha, err := fitStage(ctx, eng, flow, cfgs, chars, "alpha", nil)
	if err != nil {
		return nil, err
	}
	proton, err := fitStage(ctx, eng, flow, cfgs, chars, "proton", nil)
	if err != nil {
		return nil, err
	}
	out := make([]*FlowResult, len(cfgs))
	for i, c := range cfgs {
		out[i] = &FlowResult{Vdd: c.Vdd, Alpha: alpha[i], Proton: proton[i], Char: chars[i]}
	}
	return out, nil
}

// buildFlowEngine assembles the array engine exactly as RunFlowCtx does; cfg
// must already carry defaults. Nothing in it depends on the supply voltage:
// the cell models and the adaptive tolerance travel in each stage's ledger
// runs.
func buildFlowEngine(cfg FlowConfig, flow *obs.Span) (*Engine, error) {
	buildSpan := flow.Child("engine-build")
	eng, err := NewEngine(EngineConfig{
		Tech:     cfg.Tech,
		Rows:     cfg.Rows,
		Cols:     cfg.Cols,
		Pattern:  cfg.Pattern,
		Workers:  cfg.Workers,
		Metrics:  cfg.Obs,
		Progress: cfg.Progress,
		Faults:   cfg.Faults,
		Guard:    cfg.newGuard(),
	})
	buildSpan.End()
	if err != nil {
		return nil, fmt.Errorf("finser: engine: %w", err)
	}
	return eng, nil
}

// planLedger is the flow's one FIT planner: it turns cfg (defaults
// resolved) into the empty bin ledger of one FIT stage, named "alpha",
// "proton" or "neutron". The stage fixes the spectrum, its Eq. 8 energy
// bins and the seed offset of its schedule:
//
//	alpha    AlphaRate emission,   AlphaBins over 0.5–10 MeV,   Seed+1
//	proton   ProtonScale sea level, ProtonBins over 0.1–100 MeV, Seed+2
//	neutron  sea level ×1,          10 bins over 2–1000 MeV,     Seed+3
//
// cfg adds the budget, the tolerance and the array's area. The ledger is
// checkpointed in cfg.Checkpoint at stage "vdd<V>/fit/<name>" and reports
// to cfg.BinDone. Every FIT surface — the flow's stages, a worker's shard,
// a coordinator's SpeciesLedger — plans here, so they all agree on the
// bins and seed schedule to the bit.
func planLedger(cfg FlowConfig, name string) (*Ledger, error) {
	var (
		spec   Spectrum
		lo, hi float64
		nBins  int
		seed   uint64
		err    error
	)
	switch name {
	case "alpha":
		spec, err = NewAlphaSpectrum(cfg.AlphaRate)
		lo, hi, nBins, seed = 0.5, 10, cfg.AlphaBins, cfg.Seed+1
	case "proton":
		spec, err = NewProtonSpectrum(cfg.ProtonScale)
		lo, hi, nBins, seed = 0.1, 100, cfg.ProtonBins, cfg.Seed+2
	case "neutron":
		spec, err = NewNeutronSpectrum(1)
		lo, hi, nBins, seed = 2, 1000, 10, cfg.Seed+3
	default:
		return nil, fmt.Errorf("finser: species FIT: unsupported species %s", name)
	}
	if err != nil {
		return nil, err
	}
	bins, err := Bins(spec, lo, hi, nBins)
	if err != nil {
		return nil, fmt.Errorf("finser: %s bins: %w", name, err)
	}
	area, err := core.ArrayAreaCm2(cfg.Tech, cfg.Rows, cfg.Cols)
	if err != nil {
		return nil, fmt.Errorf("finser: %s ledger: %w", name, err)
	}
	plan := core.BinPlan{
		Name: name, Species: spec.Species(), Vdd: cfg.Vdd, Bins: bins, Seeds: core.FITSeedSchedule(seed, len(bins)),
		ItersPerBin: cfg.ItersPerBin, RelErr: cfg.FITRelErr, AreaCm2: area, CheckpointPrefix: fmt.Sprintf("vdd%g/", cfg.Vdd),
	}
	var store core.CheckpointStore
	if cfg.Checkpoint != nil { // a typed-nil store must not become a non-nil interface
		store = cfg.Checkpoint
	}
	return core.NewLedger(plan, store, cfg.BinDone)
}

// fitStage runs one FIT stage ("alpha", "proton" or "neutron") on an
// already-built engine: it plans every voltage's ledger under the flow
// span "bins-<name>", then integrates them in one shared bin run under
// "fit-<name>". rx is the neutron reaction model (nil for α and p). cfgs
// carry defaults; chars align with them.
func fitStage(ctx context.Context, eng *Engine, flow *obs.Span, cfgs []FlowConfig, chars []*Characterization, name string, rx *NeutronReactions) ([]FITResult, error) {
	binSpan := flow.Child("bins-" + name)
	runs := make([]core.LedgerRun, len(cfgs))
	for i, c := range cfgs {
		l, err := planLedger(c, name)
		if err != nil {
			binSpan.End()
			return nil, err
		}
		runs[i] = core.LedgerRun{Ledger: l, Char: chars[i]}
	}
	binSpan.End()
	fitSpan := flow.Child("fit-" + name)
	res, err := eng.RunLedgersCtx(ctx, runs, rx)
	fitSpan.End()
	if err != nil {
		return nil, fmt.Errorf("finser: %s FIT: %w", name, err)
	}
	return res, nil
}

// stageFIT runs one FIT stage over voltages with pre-built
// characterizations: one engine, built as buildFlowEngine builds it, runs
// the stage once over all of them (fitStage). cfgs carry defaults and
// differ only in Vdd; chars align with them.
func stageFIT(ctx context.Context, cfgs []FlowConfig, chars []*Characterization, name string, rx *NeutronReactions) ([]FITResult, error) {
	flow := cfgs[0].Obs.StartSpan("flow")
	defer flow.End()
	eng, err := buildFlowEngine(cfgs[0], flow)
	if err != nil {
		return nil, err
	}
	return fitStage(ctx, eng, flow, cfgs, chars, name, rx)
}

// CharacterizeFlowCtx runs only the characterization stage of the flow,
// with the exact configuration mapping RunFlowCtx uses — how a distributed
// coordinator builds a job's cell model once and ships it to every shard.
func CharacterizeFlowCtx(ctx context.Context, cfg FlowConfig) (*Characterization, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	flow := cfg.Obs.StartSpan("flow")
	defer flow.End()
	return characterize(ctx, cfg, flow)
}

// SpeciesFITCtx runs the single-species environment half of the flow —
// engine build, spectrum, bins, FIT integration — with a pre-built
// characterization. Alpha and proton integrate with the same seed
// substreams RunFlowCtx would use (alpha: Seed+1, proton: Seed+2), so
// composing CharacterizeFlowCtx with the two species reproduces
// RunFlowCtx's FlowResult bit-identically, checkpoint-compatible with an
// uninterrupted run; each call builds its own engine. A characterization
// built at another Vdd than cfg.Vdd fails with a *PlanMismatchError, and a
// nil one with an error naming it.
func SpeciesFITCtx(ctx context.Context, cfg FlowConfig, char *Characterization, sp Species) (FITResult, error) {
	if char == nil {
		return FITResult{}, fmt.Errorf("finser: %s FIT: no characterization", sp)
	}
	cfg, err := cfg.Validate()
	if err != nil {
		return FITResult{}, err
	}
	res, err := stageFIT(ctx, []FlowConfig{cfg}, []*Characterization{char}, sp.String(), nil)
	if err != nil {
		return FITResult{}, err
	}
	return res[0], nil
}

// NeutronFITCtx runs the neutron (indirect-ionization) stage over a sweep's
// results, on the engine the sweep's own stages run on — same workers,
// guard, adaptive tolerance, checkpoint store, and telemetry hooks. Each
// result's Vdd replaces cfg.Vdd and its Char is that voltage's cell model;
// every voltage is validated before any work. As for alpha and proton in
// RunVddSweepCtx, the stage runs once over all the voltages: each strike is
// traced once and looked up in every voltage's cell model, and each
// voltage's FIT, checkpoint record and BinDone events are bit-identical to
// a run of its own. The plan is fixed: the sea-level neutron spectrum over
// 10 bins from 2 to 1000 MeV, seeded Seed+3, checkpointed as stage
// "vdd<V>/fit/neutron". It depends only on fields the flow fingerprint
// already covers, so a checkpointed sweep resumes its neutron stage like
// any other. The results align with sweep. A failure is a *SweepError
// naming the voltage it belongs to, with Completed 0; a characterization
// built at another Vdd than its result's fails with a *PlanMismatchError.
func NeutronFITCtx(ctx context.Context, cfg FlowConfig, sweep []*FlowResult) ([]FITResult, error) {
	vdds := make([]float64, len(sweep))
	chars := make([]*Characterization, len(sweep))
	for i, r := range sweep {
		if r == nil || r.Char == nil {
			return nil, fmt.Errorf("finser: neutron FIT: sweep result %d has no characterization", i)
		}
		vdds[i], chars[i] = r.Vdd, r.Char
	}
	cfgs, err := sweepConfigs(cfg, vdds)
	if err != nil {
		return nil, err
	}
	res, err := stageFIT(ctx, cfgs, chars, "neutron", NewNeutronReactions())
	if err != nil {
		return nil, sweepError(vdds, err)
	}
	return res, nil
}

// SpeciesShardPOFConvCtx computes the POF points of one species' energy
// bins [from,to) with a pre-built characterization — the unit of work a
// distributed worker serd executes. The engine construction, bin plan, and
// per-bin seeds are exactly those of SpeciesFITCtx, so the returned points
// are bit-identical to the slice the single-node integration would produce
// for the same bins; a coordinator records them in the species'
// SpeciesLedger. The per-bin convergence records come alongside when
// cfg.FITRelErr > 0 (nil under the flat budget), so the coordinator can
// carry each bin's convergence state through the merge. A nil
// characterization fails with an error naming it.
func SpeciesShardPOFConvCtx(ctx context.Context, cfg FlowConfig, char *Characterization, sp Species, from, to int) ([]POFPoint, []BinConv, error) {
	if char == nil {
		return nil, nil, fmt.Errorf("finser: %s shard [%d,%d): no characterization", sp, from, to)
	}
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, nil, err
	}
	flow := cfg.Obs.StartSpan("flow")
	defer flow.End()
	// Shards never checkpoint or stream worker-side: the coordinator owns
	// the job's ledger, and a worker-local store would fracture the
	// fingerprint namespace.
	cfg.Checkpoint, cfg.BinDone = nil, nil
	eng, err := buildFlowEngine(cfg, flow)
	if err != nil {
		return nil, nil, err
	}
	l, err := planLedger(cfg, sp.String())
	if err != nil {
		return nil, nil, err
	}
	shardSpan := flow.Child("shard-" + sp.String()) // one name per species, whatever the range
	err = eng.RunShardCtx(ctx, core.LedgerRun{Ledger: l, Char: char}, from, to)
	shardSpan.End()
	if err != nil {
		return nil, nil, fmt.Errorf("finser: %s shard [%d,%d): %w", sp, from, to, err)
	}
	// The fold of a ledger holding just the shard lists its bins in order.
	res := l.FIT()
	return res.Points, res.Conv, nil
}

// SpeciesLedger returns one species' empty bin ledger for cfg — the plan
// SpeciesFITCtx integrates, checkpointed in cfg.Checkpoint at the stage it
// uses ("vdd<V>/fit/<species>") and reporting to cfg.BinDone — without an
// engine or a characterization, so a distributed coordinator restores
// before it characterizes and folds the FIT in the single-node ledger.
func SpeciesLedger(cfg FlowConfig, sp Species) (*Ledger, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	return planLedger(cfg, sp.String())
}

// SweepError reports the voltage at which a Vdd sweep failed. Unwrap
// exposes the underlying stage error (including context.Canceled for
// interrupted sweeps). A voltage that fails validation stops the sweep
// before any work. A voltage whose characterization fails (other than by
// cancellation) keeps the voltages before it: RunVddSweepCtx integrates
// their FIT and returns them alongside the error. Every other failure — a
// FIT stage, or any cancellation — returns no result, since the voltages
// share each strike; the checkpoint still holds every bin that finished,
// at any voltage.
type SweepError struct {
	// Vdd is the supply voltage whose stage failed. A failure that belongs
	// to no single voltage — a cancellation, a particle fault, a deposit
	// guard — names the sweep's first voltage.
	Vdd float64
	// Completed is the number of voltages returned with the error.
	Completed int
	// Err is the underlying failure.
	Err error
}

func (e *SweepError) Error() string {
	return fmt.Sprintf("finser: vdd %g (after %d completed): %v", e.Vdd, e.Completed, e.Err)
}

func (e *SweepError) Unwrap() error { return e.Err }

// RunVddSweepCtx runs the flow across supply voltages (the Figs. 9–11
// sweep). It validates every voltage before any work, characterizes the
// voltages in list order, and then integrates alpha, then proton, once
// over all of them: only the cell POF tables depend on Vdd, so each strike
// is traced once and looked up in every voltage's cell model. Every
// voltage's FIT, convergence records, checkpoint record and BinDone events
// are bit-identical to its own RunFlowCtx; the BinDone events of the
// voltages interleave within a species. On failure it returns a
// *SweepError (see there for which results survive it).
func RunVddSweepCtx(ctx context.Context, cfg FlowConfig, vdds []float64) ([]*FlowResult, error) {
	cfgs, err := sweepConfigs(cfg, vdds)
	if err != nil {
		return nil, err
	}
	flow := cfg.Obs.StartSpan("flow")
	defer flow.End()
	var charErr error
	chars := make([]*Characterization, 0, len(cfgs))
	for _, c := range cfgs {
		char, err := characterize(ctx, c, flow)
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, &SweepError{Vdd: vdds[0], Err: err}
		}
		if err != nil {
			charErr = &SweepError{Vdd: c.Vdd, Completed: len(chars), Err: err}
			break
		}
		chars = append(chars, char)
	}
	if len(chars) == 0 {
		return nil, charErr
	}
	out, err := fitSweep(ctx, cfgs[:len(chars)], chars, flow)
	if err != nil {
		return nil, sweepError(vdds, err)
	}
	if charErr != nil {
		return out, charErr
	}
	if err := checkSweepMonotonicity(cfg, out); err != nil {
		return out, err
	}
	return out, nil
}

// sweepConfigs validates cfg at each of vdds before any work, returning
// the configs (defaults resolved) a sweep runs, or a *SweepError naming the
// first invalid voltage. An empty list is an error.
func sweepConfigs(cfg FlowConfig, vdds []float64) ([]FlowConfig, error) {
	if len(vdds) == 0 {
		return nil, errors.New("finser: empty vdd sweep")
	}
	cfgs := make([]FlowConfig, len(vdds))
	for i, v := range vdds {
		c := cfg
		c.Vdd = v
		c, err := c.Validate()
		if err != nil {
			return nil, &SweepError{Vdd: v, Err: err}
		}
		cfgs[i] = c
	}
	return cfgs, nil
}

// sweepError is the *SweepError of a FIT stage that failed over vdds: it
// names the voltage a *core.VddError in err belongs to, else the first.
// Completed is 0, since the voltages share each strike.
func sweepError(vdds []float64, err error) error {
	v := vdds[0]
	var ve *core.VddError
	if errors.As(err, &ve) {
		v = ve.Vdd
	}
	return &SweepError{Vdd: v, Err: err}
}

// checkSweepMonotonicity asserts the paper's Fig. 9 physics across a
// completed sweep: at a fixed reference charge, raising Vdd must not make
// the cell easier to flip. The probe charge is the lowest voltage's median
// critical charge (the steepest part of its POF curve); the tolerance
// absorbs Monte-Carlo noise between independently characterized voltages.
func checkSweepMonotonicity(cfg FlowConfig, out []*FlowResult) error {
	g := cfg.newGuard()
	if !g.Enabled() || len(out) < 2 {
		return nil
	}
	idx := make([]int, len(out))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return out[idx[a]].Vdd < out[idx[b]].Vdd })
	qRef := out[idx[0]].Char.QcritQuantile(sram.AxisI1, 0.5)
	if qRef <= 0 || math.IsInf(qRef, 1) || math.IsNaN(qRef) {
		return nil // the reference cell never flips; nothing to compare
	}
	pofs := make([]float64, len(idx))
	for k, i := range idx {
		pofs[k] = out[i].Char.POFSingle(sram.AxisI1, qRef)
	}
	return g.MonotoneNonIncreasing("finser.vddsweep", fmt.Sprintf("pof(vdd) @%.3g C", qRef), pofs, 0.05)
}

// flowFingerprint is the hashable identity of a sweep: every FlowConfig
// field that influences the numerical result, with defaults resolved, plus
// the voltage list. Observability and checkpoint wiring are deliberately
// excluded — they do not change the numbers.
type flowFingerprint struct {
	Tech             Technology
	Rows, Cols       int
	Vdds             []float64
	ProcessVariation bool
	Samples          int
	ItersPerBin      int
	// FITRelErr selects the adaptive FIT mode and its tolerance; it decides
	// which batches each bin consumes, so it is result-determining.
	FITRelErr   float64
	AlphaRate   float64
	ProtonScale float64
	AlphaBins   int
	ProtonBins  int
	Pattern     DataPattern
	Seed        uint64
	// Physics is core.PhysicsRevision: a checkpoint written before a
	// change to the strike physics is refused rather than resumed.
	Physics int
}

// FlowFingerprint returns the hex digest identifying the result-
// determining subset of cfg (defaults resolved) and the voltage list — the
// identity CreateCheckpoint stamps into checkpoint files. cfg.Vdd itself
// is ignored (the list is authoritative). Like RunVddSweepCtx, it
// validates cfg at every voltage of the list, so an empty list or an
// invalid voltage has no fingerprint: the latter is a *SweepError naming
// it. Serving layers use it to key per-job checkpoint files, so a
// resubmitted identical job finds (and resumes) its predecessor's partial
// work.
func FlowFingerprint(cfg FlowConfig, vdds []float64) (string, error) {
	cfgs, err := sweepConfigs(cfg, vdds)
	if err != nil {
		return "", err
	}
	c := cfgs[0] // the configs differ only in Vdd, which the list carries
	return checkpoint.Fingerprint(flowFingerprint{
		Tech:             c.Tech,
		Rows:             c.Rows,
		Cols:             c.Cols,
		Vdds:             vdds,
		ProcessVariation: c.ProcessVariation,
		Samples:          c.Samples,
		ItersPerBin:      c.ItersPerBin,
		FITRelErr:        c.FITRelErr,
		AlphaRate:        c.AlphaRate,
		ProtonScale:      c.ProtonScale,
		AlphaBins:        c.AlphaBins,
		ProtonBins:       c.ProtonBins,
		Pattern:          c.Pattern,
		Seed:             c.Seed,
		Physics:          core.PhysicsRevision,
	})
}

// CreateCheckpoint starts a fresh checkpoint file at path for the given
// sweep configuration, overwriting any existing file. Assign the returned
// store to FlowConfig.Checkpoint before running.
func CreateCheckpoint(path string, cfg FlowConfig, vdds []float64) (*CheckpointStore, error) {
	hash, err := FlowFingerprint(cfg, vdds)
	if err != nil {
		return nil, err
	}
	return checkpoint.Create(path, hash)
}

// ResumeCheckpoint opens the checkpoint file of an interrupted sweep. It
// rejects a file written under a different configuration (different
// physics, budgets, seed, or voltage list), since resuming such a run could
// silently mix incompatible Monte-Carlo data. The worker count may differ.
func ResumeCheckpoint(path string, cfg FlowConfig, vdds []float64) (*CheckpointStore, error) {
	hash, err := FlowFingerprint(cfg, vdds)
	if err != nil {
		return nil, err
	}
	return checkpoint.Resume(path, hash)
}
