package core

import "finser/internal/obs"

// Metrics is the array engine's counter bundle: per-particle statistics
// (hit/miss, struck-cell multiplicity) and per-worker busy time. New
// builds it from Config.Metrics, and NewMetrics on the same registry hands
// back the same counters. Leave Config.Metrics nil (the default) for the
// zero-cost uninstrumented engine; the hot strike loop performs a single
// nil check.
type Metrics struct {
	// Particles counts Monte-Carlo particles generated.
	Particles *obs.Counter
	// Hits counts particles that charged ≥ 1 sensitive transistor; Misses
	// counts the rest. Hits + Misses == Particles on a completed run.
	Hits   *obs.Counter
	Misses *obs.Counter
	// StruckCellMultiplicity is the histogram of cells charged per hitting
	// particle (buckets 1..8, overflow beyond) — Gomi-style event-wise
	// multiplicity statistics.
	StruckCellMultiplicity *obs.Histogram
	// WorkerBusyNs accumulates per-worker busy wall time; WallNs
	// accumulates (wall time × workers) per parallel region. Their ratio
	// is the fleet utilization, published in WorkerUtilization after every
	// Monte-Carlo estimate.
	WorkerBusyNs      *obs.Counter
	WallNs            *obs.Counter
	WorkerUtilization *obs.Gauge
	// AdaptiveEarlyStops counts FIT bins the adaptive mode (BinPlan.RelErr)
	// terminated before consuming their flat budget; AdaptiveStrikesSaved and
	// AdaptiveStrikesOverrun accumulate the particles saved under — and spent
	// beyond — the flat per-bin budget, so saved − overrun is the net win
	// versus a flat run.
	AdaptiveEarlyStops     *obs.Counter
	AdaptiveStrikesSaved   *obs.Counter
	AdaptiveStrikesOverrun *obs.Counter
}

// NewMetrics registers the engine counters on r under the "core." prefix.
// Returns nil when r is nil, preserving the no-op path.
func NewMetrics(r *obs.Registry) *Metrics {
	if r == nil {
		return nil
	}
	return &Metrics{
		Particles:              r.Counter("core.particles_generated"),
		Hits:                   r.Counter("core.hits"),
		Misses:                 r.Counter("core.misses"),
		StruckCellMultiplicity: r.Histogram("core.struck_cell_multiplicity", obs.LinearBuckets(1, 1, 8)),
		WorkerBusyNs:           r.Counter("core.worker_busy_ns"),
		WallNs:                 r.Counter("core.wall_ns"),
		WorkerUtilization:      r.Gauge("core.worker_utilization"),
		AdaptiveEarlyStops:     r.Counter("core/adaptive/early_stops"),
		AdaptiveStrikesSaved:   r.Counter("core/adaptive/strikes_saved"),
		AdaptiveStrikesOverrun: r.Counter("core/adaptive/strikes_overrun"),
	}
}

// HitRate returns hits/(hits+misses) — the MC hit rate so far (0 when no
// particles have run). Nil-safe.
func (m *Metrics) HitRate() float64 {
	if m == nil {
		return 0
	}
	h := m.Hits.Value()
	n := h + m.Misses.Value()
	if n == 0 {
		return 0
	}
	return float64(h) / float64(n)
}
