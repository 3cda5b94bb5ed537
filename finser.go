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
	"finser/internal/transport"
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
	// TransportConfig controls device-level physics fidelity.
	TransportConfig = transport.Config
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
	// BinEvent reports one completed FIT energy bin to FlowConfig.BinDone
	// (and EngineConfig.OnBinDone): the 1-based bin index, the bin's POF
	// point, and the Eq. 8 partial FIT sum so far.
	BinEvent = core.BinEvent
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

// NewMetrics returns an empty metrics registry for FlowConfig.Obs (and for
// the layer-level Metrics fields in CharConfig / EngineConfig /
// TransportConfig, via the internal constructors RunFlowCtx wires up).
func NewMetrics() *Metrics { return obs.NewRegistry() }

// Layer-level metric bundles, for callers that assemble CharConfig or
// EngineConfig directly instead of going through RunFlowCtx.
type (
	// EngineMetrics is the array engine's counter bundle (EngineConfig.Metrics).
	EngineMetrics = core.Metrics
	// CharMetrics is the characterization's counter bundle (CharConfig.Metrics).
	CharMetrics = sram.Metrics
	// TransportMetrics is the transport layer's counter bundle
	// (TransportConfig.Metrics).
	TransportMetrics = transport.Metrics
)

// NewEngineMetrics registers array-engine counters on r. Nil r → nil (no-op).
func NewEngineMetrics(r *Metrics) *EngineMetrics { return core.NewMetrics(r) }

// NewCharMetrics registers characterization and solver counters on r.
// Nil r → nil (no-op).
func NewCharMetrics(r *Metrics) *CharMetrics { return sram.NewMetrics(r) }

// NewTransportMetrics registers transport counters on r. Nil r → nil (no-op).
func NewTransportMetrics(r *Metrics) *TransportMetrics { return transport.NewMetrics(r) }

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

// DefaultTransport returns the default device-level physics configuration.
func DefaultTransport() TransportConfig { return transport.DefaultConfig() }

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
type FlowConfig struct {
	// Tech is the technology card; zero value selects Default14nmSOI.
	Tech Technology
	// Rows, Cols are the array dimensions; zero selects the paper's 9×9.
	Rows, Cols int
	// Vdd is the supply voltage (required).
	Vdd float64
	// ProcessVariation toggles the Vth Monte Carlo in characterization.
	ProcessVariation bool
	// Samples is the PV sample count (paper: 1000). Zero selects 1000.
	Samples int
	// ItersPerBin is the array-MC particle count per energy bin.
	// Zero selects 50000.
	ItersPerBin int
	// FITRelErr, when > 0, switches both species' FIT integrations to
	// confidence-driven adaptive sampling: each energy bin streams its
	// particles in batches of ItersPerBin/10 and stops as soon as its POF
	// confidence interval is inside this relative tolerance (scaled by the
	// bin's flux weight in the FIT integral), up to a hard per-bin cap of 4×
	// the flat budget. ItersPerBin becomes the flat reference budget. Valid
	// values are in (0, 0.5]; the tolerance is result-determining and part
	// of the flow fingerprint. Zero (the default) keeps the exact
	// flat-budget integration.
	FITRelErr float64
	// AlphaRate is the alpha emission rate in α/(cm²·h); zero selects the
	// paper's 0.001.
	AlphaRate float64
	// ProtonScale multiplies the sea-level proton flux; zero selects 1.
	ProtonScale float64
	// AlphaBins/ProtonBins are the energy discretizations; zero selects
	// 12 and 16.
	AlphaBins, ProtonBins int
	// Pattern is the stored data pattern.
	Pattern DataPattern
	// Seed makes the whole flow deterministic.
	Seed uint64
	// Workers bounds parallelism (0 = GOMAXPROCS). It is a speed setting
	// only: no result depends on it.
	Workers int
	// Obs, when non-nil, collects cross-layer metrics and stage spans for
	// the whole flow (circuit Newton work, transport rays, characterization
	// samples, array-MC hit statistics, per-stage wall times). Nil — the
	// default — keeps every layer on its zero-cost uninstrumented path.
	Obs *Metrics
	// Progress, when non-nil, receives throttled done/total/ETA reports
	// from the characterization and FIT stages.
	Progress ProgressFunc
	// Checkpoint, when non-nil, persists every completed FIT energy bin so
	// an interrupted run resumes bit-identically from the last completed
	// bin. Build it with CreateCheckpoint (fresh run) or ResumeCheckpoint
	// (continue an interrupted one); the store rejects resuming under a
	// different configuration.
	Checkpoint *CheckpointStore
	// Faults, when non-nil, injects deterministic failures into the worker
	// loops — robustness tests only. Nil (the default) is zero-cost.
	Faults *FaultHooks
	// Guard selects the physics-invariant enforcement mode for the whole
	// flow: GuardOff (default, zero cost), GuardWarn (count violations on
	// Obs and keep going), or GuardStrict (fail the stage with a typed
	// *InvariantError). Guard mode never changes the numbers a healthy run
	// produces, so it is excluded from checkpoint fingerprints.
	Guard GuardMode
	// GuardLog, when non-nil, receives warn-mode violation logs (throttled
	// to one line per invariant and stage). log.Printf fits.
	GuardLog GuardLogf
	// BinDone, when non-nil, receives one event per completed FIT energy bin
	// (per species, including bins restored from a checkpoint) with the
	// bin's POF point and the FIT accumulated so far — the hook a live
	// telemetry stream taps. It fires on the integration goroutine; keep it
	// non-blocking. Like Obs and Checkpoint, it never changes the numbers
	// and is excluded from checkpoint fingerprints.
	BinDone BinDoneFunc
	// GuardEvent, when non-nil, receives every guard violation (warn and
	// strict modes) as it is recorded, in addition to the Obs counters and
	// GuardLog lines. Same non-blocking and fingerprint-exclusion rules as
	// BinDone.
	GuardEvent GuardEventFunc
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

// Validate resolves defaults and reports the first invalid field as a
// *ConfigError — the admission-time check a serving layer runs before
// queueing hours of work.
func (c FlowConfig) Validate() error {
	_, err := c.withDefaults()
	return err
}

func (c FlowConfig) withDefaults() (FlowConfig, error) {
	if c.Vdd <= 0 {
		return c, &ConfigError{Field: "Vdd", Reason: "must be positive"}
	}
	// Negative budgets and dimensions are always mistakes; fail here with
	// the field name instead of a confusing error (or hang) layers deeper.
	for _, f := range []struct {
		name string
		v    int
	}{
		{"Samples", c.Samples},
		{"ItersPerBin", c.ItersPerBin},
		{"Rows", c.Rows},
		{"Cols", c.Cols},
		{"AlphaBins", c.AlphaBins},
		{"ProtonBins", c.ProtonBins},
	} {
		if f.v < 0 {
			return c, &ConfigError{Field: f.name, Reason: fmt.Sprintf("must not be negative, got %d", f.v)}
		}
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
// and proton environments. Cancellation is threaded through every
// long-running stage: a cancelled or expired context stops the
// characterization and FIT worker loops within milliseconds, and the
// returned error wraps ctx.Err() with the identity of the stage that was
// interrupted. With cfg.Checkpoint set, completed FIT bins survive the
// interruption and a rerun resumes from them.
func RunFlowCtx(ctx context.Context, cfg FlowConfig) (*FlowResult, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	flow := cfg.Obs.StartSpan("flow")
	defer flow.End()
	char, err := characterize(ctx, cfg, flow)
	if err != nil {
		return nil, err
	}
	return runFlowWithChar(ctx, cfg, char, flow)
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
		Metrics:          sram.NewMetrics(cfg.Obs),
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
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	flow := cfg.Obs.StartSpan("flow")
	defer flow.End()
	return runFlowWithChar(ctx, cfg, char, flow)
}

// runFlowWithChar runs the environment half of the flow under the given
// (possibly nil) flow span; cfg must already carry defaults.
func runFlowWithChar(ctx context.Context, cfg FlowConfig, char *Characterization, flow *obs.Span) (*FlowResult, error) {
	eng, err := buildFlowEngine(cfg, char, flow)
	if err != nil {
		return nil, err
	}
	res := &FlowResult{Vdd: cfg.Vdd, Char: char}
	res.Alpha, err = fitSpecies(ctx, cfg, eng, flow, Alpha)
	if err != nil {
		return nil, err
	}
	res.Proton, err = fitSpecies(ctx, cfg, eng, flow, Proton)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// buildFlowEngine assembles the array engine exactly as RunFlowCtx does; cfg
// must already carry defaults.
func buildFlowEngine(cfg FlowConfig, char *Characterization, flow *obs.Span) (*Engine, error) {
	transportCfg := DefaultTransport()
	transportCfg.Metrics = transport.NewMetrics(cfg.Obs)
	buildSpan := flow.Child("engine-build")
	engCfg := EngineConfig{
		Tech:      cfg.Tech,
		Rows:      cfg.Rows,
		Cols:      cfg.Cols,
		Char:      char,
		Transport: transportCfg,
		Pattern:   cfg.Pattern,
		Workers:   cfg.Workers,
		FITRelErr: cfg.FITRelErr,
		Metrics:   core.NewMetrics(cfg.Obs),
		Progress:  cfg.Progress,
		OnBinDone: cfg.BinDone,
		Faults:    cfg.Faults,
		Guard:     cfg.newGuard(),
	}
	if cfg.Checkpoint != nil {
		// Guarded assignment: a typed-nil *CheckpointStore must not become
		// a non-nil interface inside the engine.
		engCfg.Checkpoint = cfg.Checkpoint
		engCfg.CheckpointPrefix = fmt.Sprintf("vdd%g/", cfg.Vdd)
	}
	eng, err := NewEngine(engCfg)
	buildSpan.End()
	if err != nil {
		return nil, fmt.Errorf("finser: engine: %w", err)
	}
	return eng, nil
}

// speciesEnv resolves one species' environment exactly as RunFlowCtx
// integrates it: the spectrum, its Eq. 8 energy-bin discretization, and the
// per-species seed offset (alpha: Seed+1, proton: Seed+2) matching the
// RunFlowCtx stream split. cfg must already carry defaults. Every FIT surface
// — single-node, staged, and distributed shards — plans through this one
// function, so they all agree on the bins and seed schedule to the bit.
func speciesEnv(cfg FlowConfig, sp Species) (spec Spectrum, bins []EnergyBin, seed uint64, err error) {
	var (
		name   string
		lo, hi float64
		nBins  int
	)
	switch sp {
	case Alpha:
		spec, err = NewAlphaSpectrum(cfg.AlphaRate)
		name, lo, hi, nBins, seed = "alpha", 0.5, 10, cfg.AlphaBins, cfg.Seed+1
	case Proton:
		spec, err = NewProtonSpectrum(cfg.ProtonScale)
		name, lo, hi, nBins, seed = "proton", 0.1, 100, cfg.ProtonBins, cfg.Seed+2
	default:
		return nil, nil, 0, fmt.Errorf("finser: species FIT: unsupported species %v", sp)
	}
	if err != nil {
		return nil, nil, 0, err
	}
	bins, err = Bins(spec, lo, hi, nBins)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("finser: %s bins: %w", name, err)
	}
	return spec, bins, seed, nil
}

// fitSpecies runs one species' environment stage — spectrum, Eq. 8 bins,
// FIT integration — on an already-built engine. cfg must already carry
// defaults.
func fitSpecies(ctx context.Context, cfg FlowConfig, eng *Engine, flow *obs.Span, sp Species) (FITResult, error) {
	binSpan := flow.Child("bins-" + speciesName(sp))
	spec, bins, seed, err := speciesEnv(cfg, sp)
	binSpan.End()
	if err != nil {
		return FITResult{}, err
	}
	fitSpan := flow.Child("fit-" + speciesName(sp))
	res, err := eng.FITCtx(ctx, spec, bins, cfg.ItersPerBin, seed)
	fitSpan.End()
	if err != nil {
		return FITResult{}, fmt.Errorf("finser: %s FIT: %w", speciesName(sp), err)
	}
	return res, nil
}

// speciesName is the stable lowercase stage name of a species.
func speciesName(sp Species) string {
	if sp == Alpha {
		return "alpha"
	}
	return "proton"
}

// CharacterizeFlowCtx runs only the characterization stage of the flow,
// with the exact configuration mapping RunFlowCtx uses — how a distributed
// coordinator builds a job's cell model once and ships it to every shard.
func CharacterizeFlowCtx(ctx context.Context, cfg FlowConfig) (*Characterization, error) {
	cfg, err := cfg.withDefaults()
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
// uninterrupted run; each call builds its own engine.
func SpeciesFITCtx(ctx context.Context, cfg FlowConfig, char *Characterization, sp Species) (FITResult, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return FITResult{}, err
	}
	flow := cfg.Obs.StartSpan("flow")
	defer flow.End()
	eng, err := buildFlowEngine(cfg, char, flow)
	if err != nil {
		return FITResult{}, err
	}
	return fitSpecies(ctx, cfg, eng, flow, sp)
}

// NeutronFITCtx runs the neutron (indirect-ionization) stage with a
// pre-built characterization, on the engine SpeciesFITCtx would build — same
// workers, guard, adaptive tolerance, checkpoint store, and telemetry hooks.
// The plan is fixed: the sea-level neutron spectrum over 10 bins from 2 to
// 1000 MeV, seeded Seed+3, checkpointed as stage "vdd<V>/fit/neutron". It
// depends only on fields the flow fingerprint already covers, so a
// checkpointed sweep resumes its neutron stage like any other.
func NeutronFITCtx(ctx context.Context, cfg FlowConfig, char *Characterization) (FITResult, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return FITResult{}, err
	}
	flow := cfg.Obs.StartSpan("flow")
	defer flow.End()
	eng, err := buildFlowEngine(cfg, char, flow)
	if err != nil {
		return FITResult{}, err
	}
	spec, err := NewNeutronSpectrum(1)
	if err != nil {
		return FITResult{}, err
	}
	bins, err := Bins(spec, 2, 1000, 10)
	if err != nil {
		return FITResult{}, fmt.Errorf("finser: neutron bins: %w", err)
	}
	fitSpan := flow.Child("fit-neutron")
	res, err := eng.NeutronFITCtx(ctx, spec, NewNeutronReactions(), bins, cfg.ItersPerBin, cfg.Seed+3)
	fitSpan.End()
	if err != nil {
		return FITResult{}, fmt.Errorf("finser: neutron FIT: %w", err)
	}
	return res, nil
}

// SpeciesBins returns the Eq. 8 energy-bin discretization one species' FIT
// stage integrates over, with cfg defaults resolved — the shard axis of a
// distributed run. The bins are a pure function of the configuration, so a
// coordinator and its workers independently derive identical plans.
func SpeciesBins(cfg FlowConfig, sp Species) ([]EnergyBin, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	_, bins, _, err := speciesEnv(cfg, sp)
	return bins, err
}

// SpeciesSeedSchedule returns the pre-drawn per-bin seed schedule of one
// species' FIT stage (aligned with SpeciesBins): bin k's Monte-Carlo
// substream is a pure function of (cfg.Seed, species, k), which is what
// lets an energy-bin shard run on any machine and still reproduce the
// single-node integration bit-identically.
func SpeciesSeedSchedule(cfg FlowConfig, sp Species) ([]uint64, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	_, bins, seed, err := speciesEnv(cfg, sp)
	if err != nil {
		return nil, err
	}
	return core.FITSeedSchedule(seed, len(bins)), nil
}

// SpeciesShardPOFConvCtx computes the POF points of one species' energy
// bins [from,to) with a pre-built characterization — the unit of work a
// distributed worker serd executes. The engine construction, bin plan, and
// per-bin seeds are exactly those of SpeciesFITCtx, so the returned points
// are bit-identical to the slice the single-node integration would produce
// for the same bins; a coordinator merges complete shard sets with
// AssembleSpeciesFIT. The per-bin convergence records come alongside when
// cfg.FITRelErr > 0 (nil under the flat budget), so the coordinator can
// carry each bin's convergence state through the merge.
func SpeciesShardPOFConvCtx(ctx context.Context, cfg FlowConfig, char *Characterization, sp Species, from, to int) ([]POFPoint, []BinConv, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	flow := cfg.Obs.StartSpan("flow")
	defer flow.End()
	// Shards never checkpoint worker-side: the coordinator owns shard-level
	// checkpoints, and a worker-local store would fracture the fingerprint
	// namespace.
	cfg.Checkpoint = nil
	eng, err := buildFlowEngine(cfg, char, flow)
	if err != nil {
		return nil, nil, err
	}
	_, bins, seed, err := speciesEnv(cfg, sp)
	if err != nil {
		return nil, nil, err
	}
	shardSpan := flow.Child(fmt.Sprintf("shard-%s-%d-%d", speciesName(sp), from, to))
	pts, conv, err := eng.POFBinsConvCtx(ctx, sp, bins, cfg.ItersPerBin, core.FITSeedSchedule(seed, len(bins)), from, to)
	shardSpan.End()
	if err != nil {
		return nil, nil, fmt.Errorf("finser: %s shard [%d,%d): %w", speciesName(sp), from, to, err)
	}
	return pts, conv, nil
}

// AssembleSpeciesFIT folds per-bin POF points into one species' FIT result
// without running any Monte Carlo — the distributed coordinator's merge
// step. binIdx names the energy bin of each point (nil means all bins, in
// order). With the complete bin set the accumulation runs the same float
// operations in the same order as the single-node FITCtx, so the merged
// FITResult is bit-identical to SpeciesFITCtx's; with a subset it is the
// partial FIT sum over just those bins (what a *dist.PartialError reports).
func AssembleSpeciesFIT(cfg FlowConfig, sp Species, binIdx []int, points []POFPoint) (FITResult, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return FITResult{}, err
	}
	_, bins, _, err := speciesEnv(cfg, sp)
	if err != nil {
		return FITResult{}, err
	}
	if binIdx == nil {
		binIdx = make([]int, len(bins))
		for i := range binIdx {
			binIdx[i] = i
		}
	}
	if len(binIdx) != len(points) {
		return FITResult{}, fmt.Errorf("finser: assemble %s FIT: %d bin indices for %d points", speciesName(sp), len(binIdx), len(points))
	}
	sel := make([]EnergyBin, len(binIdx))
	for k, i := range binIdx {
		if i < 0 || i >= len(bins) {
			return FITResult{}, fmt.Errorf("finser: assemble %s FIT: bin index %d outside %d-bin plan", speciesName(sp), i, len(bins))
		}
		if k > 0 && i <= binIdx[k-1] {
			return FITResult{}, fmt.Errorf("finser: assemble %s FIT: bin indices must be strictly increasing", speciesName(sp))
		}
		sel[k] = bins[i]
	}
	area, err := core.ArrayAreaCm2(cfg.Tech, cfg.Rows, cfg.Cols)
	if err != nil {
		return FITResult{}, fmt.Errorf("finser: assemble %s FIT: %w", speciesName(sp), err)
	}
	return core.AssembleFIT(sp, cfg.Vdd, sel, points, area), nil
}

// SweepError reports the voltage at which a Vdd sweep failed. RunVddSweepCtx
// returns it alongside the results of every voltage completed before the
// failure, so hours of finished characterization and FIT work survive a
// late fault. Unwrap exposes the underlying stage error (including
// context.Canceled for interrupted sweeps).
type SweepError struct {
	// Vdd is the supply voltage whose flow failed.
	Vdd float64
	// Completed is the number of voltages that finished before the failure.
	Completed int
	// Err is the underlying failure.
	Err error
}

func (e *SweepError) Error() string {
	return fmt.Sprintf("finser: vdd %g (after %d completed): %v", e.Vdd, e.Completed, e.Err)
}

func (e *SweepError) Unwrap() error { return e.Err }

// RunVddSweepCtx runs the flow across supply voltages (the Figs. 9–11
// sweep). Each voltage gets its own cell characterization. On failure —
// including cancellation — it returns the results of every completed
// voltage together with a *SweepError naming the voltage that failed, so
// partial work is never discarded.
func RunVddSweepCtx(ctx context.Context, cfg FlowConfig, vdds []float64) ([]*FlowResult, error) {
	if len(vdds) == 0 {
		return nil, errors.New("finser: empty vdd sweep")
	}
	out := make([]*FlowResult, 0, len(vdds))
	for _, v := range vdds {
		c := cfg
		c.Vdd = v
		r, err := RunFlowCtx(ctx, c)
		if err != nil {
			return out, &SweepError{Vdd: v, Completed: len(out), Err: err}
		}
		out = append(out, r)
	}
	if err := checkSweepMonotonicity(cfg, out); err != nil {
		return out, err
	}
	return out, nil
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

// fingerprint hashes the result-determining subset of cfg and the voltage
// list. cfg.Vdd itself is ignored (the list is authoritative).
func flowConfigFingerprint(cfg FlowConfig, vdds []float64) (string, error) {
	c := cfg
	c.Vdd = 1 // withDefaults requires a positive Vdd; the value is not hashed
	c, err := c.withDefaults()
	if err != nil {
		return "", err
	}
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

// FlowFingerprint returns the hex digest identifying the result-
// determining configuration of a sweep — the same identity CreateCheckpoint
// stamps into checkpoint files. Serving layers use it to key per-job
// checkpoint files, so a resubmitted identical job finds (and resumes) its
// predecessor's partial work.
func FlowFingerprint(cfg FlowConfig, vdds []float64) (string, error) {
	return flowConfigFingerprint(cfg, vdds)
}

// CreateCheckpoint starts a fresh checkpoint file at path for the given
// sweep configuration, overwriting any existing file. Assign the returned
// store to FlowConfig.Checkpoint before running.
func CreateCheckpoint(path string, cfg FlowConfig, vdds []float64) (*CheckpointStore, error) {
	hash, err := flowConfigFingerprint(cfg, vdds)
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
	hash, err := flowConfigFingerprint(cfg, vdds)
	if err != nil {
		return nil, err
	}
	return checkpoint.Resume(path, hash)
}
