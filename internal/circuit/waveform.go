package circuit

import "math"

// Waveform is a time-dependent source value (volts or amperes).
type Waveform interface {
	// Value returns the source value at time t (seconds).
	Value(t float64) float64
	// AppendBreakpoints appends to dst the times at which the waveform has
	// corners the integrator should not step across, and returns it. It
	// may append none.
	AppendBreakpoints(dst []float64) []float64
}

// DC is a constant waveform.
type DC float64

// Value implements Waveform.
func (d DC) Value(float64) float64 { return float64(d) }

// AppendBreakpoints implements Waveform: a constant has no corners.
func (DC) AppendBreakpoints(dst []float64) []float64 { return dst }

// RectPulse is the paper's radiation current model (§3.3): a rectangular
// pulse of amplitude Amp starting at T0 with width Width, carrying charge
// Amp·Width.
type RectPulse struct {
	T0    float64 // pulse start, s
	Width float64 // pulse width τ, s
	Amp   float64 // amplitude I = Q/τ, A
}

// Value implements Waveform.
func (p RectPulse) Value(t float64) float64 {
	if t >= p.T0 && t < p.T0+p.Width {
		return p.Amp
	}
	return 0
}

// AppendBreakpoints implements Waveform.
func (p RectPulse) AppendBreakpoints(dst []float64) []float64 {
	return append(dst, p.T0, p.T0+p.Width)
}

// Charge returns the total injected charge in coulombs.
func (p RectPulse) Charge() float64 { return p.Amp * p.Width }

// TriPulse is a symmetric triangular pulse used by the paper's pulse-shape
// sensitivity study: rises linearly from T0 to the apex at T0+Width/2, then
// falls back to zero at T0+Width. Total charge is Amp·Width/2.
type TriPulse struct {
	T0    float64
	Width float64
	Amp   float64 // apex amplitude
}

// Value implements Waveform.
func (p TriPulse) Value(t float64) float64 {
	x := t - p.T0
	if x < 0 || x >= p.Width {
		return 0
	}
	half := p.Width / 2
	if x < half {
		return p.Amp * x / half
	}
	return p.Amp * (p.Width - x) / half
}

// AppendBreakpoints implements Waveform.
func (p TriPulse) AppendBreakpoints(dst []float64) []float64 {
	return append(dst, p.T0, p.T0+p.Width/2, p.T0+p.Width)
}

// Charge returns the total injected charge in coulombs.
func (p TriPulse) Charge() float64 { return p.Amp * p.Width / 2 }

// DoubleExp is the classic double-exponential single-event current model
// (Baumann [17] in the paper): I(t) = I0·(exp(-(t-T0)/TauFall) -
// exp(-(t-T0)/TauRise)) for t ≥ T0. It is the baseline the literature uses
// where this paper argues a rectangular pulse of equal charge suffices.
type DoubleExp struct {
	T0      float64
	TauRise float64 // fast time constant, s
	TauFall float64 // slow time constant, s
	I0      float64 // scale, A
}

// Value implements Waveform.
func (p DoubleExp) Value(t float64) float64 {
	x := t - p.T0
	if x < 0 {
		return 0
	}
	return p.I0 * (math.Exp(-x/p.TauFall) - math.Exp(-x/p.TauRise))
}

// AppendBreakpoints implements Waveform.
func (p DoubleExp) AppendBreakpoints(dst []float64) []float64 {
	return append(dst, p.T0, p.T0+p.TauRise, p.T0+5*p.TauFall)
}

// Charge returns the total injected charge ∫I dt = I0·(TauFall-TauRise).
func (p DoubleExp) Charge() float64 { return p.I0 * (p.TauFall - p.TauRise) }

// DoubleExpWithCharge builds a DoubleExp carrying the given charge with the
// given time constants.
func DoubleExpWithCharge(t0, tauRise, tauFall, charge float64) DoubleExp {
	return DoubleExp{T0: t0, TauRise: tauRise, TauFall: tauFall, I0: charge / (tauFall - tauRise)}
}

// PWL is a piecewise-linear waveform defined by (time, value) corners.
// Before the first corner it holds the first value; after the last, the
// last value.
type PWL struct {
	Times  []float64
	Values []float64
}

// Value implements Waveform.
func (p PWL) Value(t float64) float64 {
	n := len(p.Times)
	if n == 0 {
		return 0
	}
	if t <= p.Times[0] {
		return p.Values[0]
	}
	if t >= p.Times[n-1] {
		return p.Values[n-1]
	}
	for i := 1; i < n; i++ {
		if t < p.Times[i] {
			f := (t - p.Times[i-1]) / (p.Times[i] - p.Times[i-1])
			return p.Values[i-1] + f*(p.Values[i]-p.Values[i-1])
		}
	}
	return p.Values[n-1]
}

// AppendBreakpoints implements Waveform.
func (p PWL) AppendBreakpoints(dst []float64) []float64 { return append(dst, p.Times...) }
