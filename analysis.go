package finser

import (
	"context"
	"errors"
	"fmt"

	"finser/internal/geom"
	"finser/internal/lut"
	"finser/internal/rng"
	"finser/internal/transport"
)

// YieldPoint is one point of the single-fin electron-yield curve (the
// paper's Fig. 4).
type YieldPoint struct {
	EnergyMeV float64
	MeanPairs float64
	StdPairs  float64
}

// FinYieldCurveCtx runs the device-level Monte Carlo (the paper's Geant4
// stage) for one fin of the technology: for each energy it samples iters
// flux-uniform secants through the fin and records the electron–hole yield
// statistics. It is cancellable inside every energy point.
func FinYieldCurveCtx(ctx context.Context, tech Technology, sp Species, energiesMeV []float64, iters int, seed uint64) ([]YieldPoint, error) {
	if len(energiesMeV) == 0 {
		return nil, errors.New("finser: FinYieldCurveCtx needs energies")
	}
	if iters <= 0 {
		return nil, errors.New("finser: FinYieldCurveCtx needs positive iters")
	}
	fin := geom.BoxAt(geom.V(0, 0, 0),
		geom.V(tech.FinWidthNm, tech.GateLengthNm, tech.FinHeightNm))
	cfg := transport.DefaultConfig()
	src := rng.New(seed)
	out := make([]YieldPoint, 0, len(energiesMeV))
	for _, e := range energiesMeV {
		ys, err := transport.FinYieldCtx(ctx, cfg, sp, e, fin, iters, src)
		if err != nil {
			return nil, fmt.Errorf("finser: fin yield @%g MeV: %w", e, err)
		}
		out = append(out, YieldPoint{EnergyMeV: e, MeanPairs: ys.MeanPairs, StdPairs: ys.StdPairs})
	}
	return out, nil
}

// POFCurveCtx estimates the array POF in cell model m at each energy (the
// paper's Fig. 8 series): the probability of at least one bit flip given a
// particle of that energy striking the array footprint. It is cancellable
// between (and inside) energy points; a worker panic fails the curve with a
// stack-carrying error instead of crashing the process.
func POFCurveCtx(ctx context.Context, e *Engine, m POFProvider, sp Species, energiesMeV []float64, itersPerEnergy int, seed uint64) ([]POFPoint, error) {
	if len(energiesMeV) == 0 {
		return nil, errors.New("finser: POFCurveCtx needs energies")
	}
	if itersPerEnergy <= 0 {
		return nil, errors.New("finser: POFCurveCtx needs positive iterations")
	}
	src := rng.New(seed)
	out := make([]POFPoint, 0, len(energiesMeV))
	for _, en := range energiesMeV {
		pt, err := e.POFAtEnergyCtx(ctx, m, sp, en, itersPerEnergy, src.Uint64())
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// SpectrumPoint is one point of a differential flux curve (Fig. 2).
type SpectrumPoint struct {
	EnergyMeV float64
	// Flux is the differential flux in particles/(cm²·s·MeV).
	Flux float64
}

// SpectrumCurve samples a spectrum's differential flux at n log-spaced
// energies across its domain.
func SpectrumCurve(s Spectrum, n int) ([]SpectrumPoint, error) {
	if n < 2 {
		return nil, errors.New("finser: SpectrumCurve needs n >= 2")
	}
	lo, hi := s.Domain()
	out := make([]SpectrumPoint, 0, n)
	for _, e := range lut.LogSpace(lo, hi, n) {
		out = append(out, SpectrumPoint{EnergyMeV: e, Flux: s.DifferentialFlux(e)})
	}
	return out, nil
}

// LogSpace re-exports geometric grids for sweep construction.
func LogSpace(lo, hi float64, n int) []float64 { return lut.LogSpace(lo, hi, n) }
