package circuit

import "finser/internal/obs"

// Metrics is the solver's observability hook. Attach one to Circuit.Metrics
// to count Newton work across every solve the circuit performs; leave it
// nil (the default) for a zero-cost uninstrumented solver — the obs
// counters are nil-receiver no-ops, so a nil *Metrics simply skips the
// field loads.
type Metrics struct {
	// NewtonIters counts Newton–Raphson iterations across all solves.
	NewtonIters *obs.Counter
	// TransientSteps counts accepted transient time steps.
	TransientSteps *obs.Counter
	// StepHalvings counts timestep halvings after Newton failures.
	StepHalvings *obs.Counter
	// FailedSolves counts Newton solves that did not converge.
	FailedSolves *obs.Counter
}

// NewMetrics registers the solver counters on r under the "circuit." prefix.
// Returns nil when r is nil, preserving the no-op path.
func NewMetrics(r *obs.Registry) *Metrics {
	if r == nil {
		return nil
	}
	return &Metrics{
		NewtonIters:    r.Counter("circuit.newton_iters"),
		TransientSteps: r.Counter("circuit.transient_steps"),
		StepHalvings:   r.Counter("circuit.step_halvings"),
		FailedSolves:   r.Counter("circuit.failed_solves"),
	}
}
