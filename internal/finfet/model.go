package finfet

import (
	"math"

	"finser/internal/circuit"
)

// Polarity distinguishes n- and p-channel devices.
type Polarity int

const (
	// NChannel is an NMOS FinFET.
	NChannel Polarity = iota
	// PChannel is a PMOS FinFET.
	PChannel
)

// String implements fmt.Stringer.
func (p Polarity) String() string {
	if p == NChannel {
		return "nfet"
	}
	return "pfet"
}

// Params are the compact-model parameters of one transistor instance.
// Vth carries any process-variation shift already applied.
type Params struct {
	Polarity Polarity
	Vth      float64 // threshold voltage magnitude, V
	Ispec    float64 // specific current per fin, A
	N        float64 // subthreshold slope factor
	Lambda   float64 // channel-length modulation, 1/V
	NFins    int
	// Phit is the thermal voltage kT/q; zero selects the 300 K value.
	Phit float64
}

// thermalVoltage returns the effective kT/q for the instance.
func (p Params) thermalVoltage() float64 {
	if p.Phit > 0 {
		return p.Phit
	}
	return ThermalVoltage
}

// ParamsFor builds nominal instance parameters from a technology card,
// including its junction temperature.
func ParamsFor(t Technology, pol Polarity, nFins int) Params {
	p := Params{Polarity: pol, N: t.SlopeN, Lambda: t.Lambda, NFins: nFins,
		Phit: t.ThermalVoltageAt()}
	if pol == NChannel {
		p.Vth, p.Ispec = t.VthN, t.IspecN
	} else {
		p.Vth, p.Ispec = t.VthP, t.IspecP
	}
	return p
}

// ekvF is the EKV interpolation function F(u) = ln²(1+e^(u/2)), smooth from
// weak to strong inversion, and its derivative F′(u) = l·e/(1+e) with
// e = e^(u/2) and l = ln(1+e): one exp and one log1p give both.
func ekvF(u float64) (f, df float64) {
	// Guard the exponential for large |u|.
	if u > 80 {
		return u * u / 4, u / 2
	}
	e := math.Exp(u / 2)
	l := math.Log1p(e)
	return l * l, l * e / (1 + e)
}

// DrainCurrent returns the drain current of the device for terminal
// voltages (gate, drain, source) referenced to ground. Positive current
// flows drain→source for NMOS and source→drain for PMOS (i.e. the sign
// convention is "current into the drain terminal" for NMOS and out of it
// for PMOS).
func DrainCurrent(p Params, vg, vd, vs float64) float64 {
	id, _, _, _ := evaluate(p, vg, vd, vs)
	return id
}

// evaluate is the one model evaluation behind DrainCurrent and
// Transistor.Stamp: the drain current and its partial derivatives in the
// gate, drain and source voltages, in closed form.
func evaluate(p Params, vg, vd, vs float64) (id, gg, gd, gs float64) {
	sign := 1.0
	if p.Polarity == PChannel {
		// Mirror: a PMOS with voltages v behaves as an NMOS at -v. The
		// current changes sign and so does each voltage, so the partials
		// keep theirs.
		vg, vd, vs = -vg, -vd, -vs
		sign = -1
	}
	// Source-referenced symmetric handling: the lower terminal is the
	// effective source.
	swap := false
	if vd < vs {
		vd, vs = vs, vd
		swap = true
	}
	vgs := vg - vs
	vds := vd - vs
	nphi := p.N * p.thermalVoltage()
	uf := (vgs - p.Vth) / nphi
	ur := (vgs - p.Vth - p.N*vds) / nphi
	ff, dff := ekvF(uf)
	fr, dfr := ekvF(ur)
	k := p.Ispec * float64(max(p.NFins, 1))
	clm := 1 + p.Lambda*vds
	id = k * (ff - fr) * clm
	gm := k * (dff - dfr) * clm / nphi
	gds := k*p.N*dfr*clm/nphi + k*(ff-fr)*p.Lambda
	gg, gd, gs = gm, gds, -gm-gds
	if swap {
		// The terminals' roles trade places and the current reverses.
		id, gg, gd, gs = -id, -gm, gm+gds, -gds
	}
	return sign * id, gg, gd, gs
}

// Transistor is a three-terminal FinFET circuit device (SOI: no body
// terminal; the body floats on the BOX).
type Transistor struct {
	name    string
	D, G, S circuit.Node
	P       Params
}

// NewTransistor builds a FinFET instance for the circuit solver.
func NewTransistor(name string, p Params, d, g, s circuit.Node) *Transistor {
	return &Transistor{name: name, D: d, G: g, S: s, P: p}
}

// Name implements circuit.Device.
func (t *Transistor) Name() string { return t.name }

// Stamp implements circuit.Device: it evaluates the drain current and its
// partial derivatives at the current Newton iterate and stamps the
// linearized companion.
func (t *Transistor) Stamp(s *circuit.Stamper) {
	id, gg, gd, gs := evaluate(t.P, s.V(t.G), s.V(t.D), s.V(t.S))
	// Positive id means conventional current flows from drain terminal to
	// source terminal through the channel (for PMOS the model returns
	// negative id in conduction, which reverses the flow direction here).
	s.AddNonlinearCurrent(t.D, t.S, id,
		[]circuit.Node{t.G, t.D, t.S}, []float64{gg, gd, gs})
}
