// Package logic extends the single-event analysis from storage cells to
// combinational logic — the other circuit class the paper's related work
// ([14], [15]) characterizes. A particle strike on a logic gate produces a
// single-event transient (SET) that only matters if it propagates to a
// latch; on the way it is attenuated by each gate's electrical inertia
// ("electrical masking"). The package builds FinFET inverter chains on the
// circuit solver, injects drift-current pulses at the first stage, and
// measures the surviving transient at depth — yielding the propagation
// threshold charge and the per-stage attenuation the masking models need.
package logic

import (
	"errors"
	"fmt"
	"math"

	"finser/internal/circuit"
	"finser/internal/finfet"
)

// Chain is an N-stage FinFET inverter chain ready for SET injection.
type Chain struct {
	Tech   finfet.Technology
	Vdd    float64
	Stages int

	ckt    *circuit.Circuit
	nodes  []circuit.Node // stage outputs, nodes[0] is the struck gate's output
	strike *strikeSource
	init   circuit.Solution
}

type strikeSource struct{ w circuit.Waveform }

func (s *strikeSource) Value(t float64) float64 {
	if s.w == nil {
		return 0
	}
	return s.w.Value(t)
}

func (s *strikeSource) AppendBreakpoints(dst []float64) []float64 {
	if s.w == nil {
		return dst
	}
	return s.w.AppendBreakpoints(dst)
}

// NewChain builds an inverter chain with the given depth (≥ 2). The input
// is tied low, so every odd stage output rests high and every even output
// low; the strike pulls the first stage's output (resting high) down — the
// worst-case SET at a logic node, mirroring the paper's OFF-transistor
// collection argument.
func NewChain(tech finfet.Technology, vdd float64, stages int) (*Chain, error) {
	if vdd <= 0 {
		return nil, fmt.Errorf("logic: non-positive vdd %g", vdd)
	}
	if stages < 2 {
		return nil, errors.New("logic: chain needs at least 2 stages")
	}
	c := circuit.New()
	ch := &Chain{Tech: tech, Vdd: vdd, Stages: stages, ckt: c}

	vddN := c.Node("vdd")
	in := c.Node("in")
	c.AddVSource("vdd", vddN, circuit.Ground, circuit.DC(vdd))
	c.AddVSource("vin", in, circuit.Ground, circuit.DC(0))

	prev := in
	for i := 0; i < stages; i++ {
		out := c.Node(fmt.Sprintf("n%d", i))
		ch.nodes = append(ch.nodes, out)
		pu := finfet.ParamsFor(tech, finfet.PChannel, 1)
		pd := finfet.ParamsFor(tech, finfet.NChannel, 1)
		c.AddDevice(finfet.NewTransistor(fmt.Sprintf("pu%d", i), pu, out, prev, vddN))
		c.AddDevice(finfet.NewTransistor(fmt.Sprintf("pd%d", i), pd, out, prev, circuit.Ground))
		c.AddCapacitor(fmt.Sprintf("c%d", i), out, circuit.Ground, tech.NodeCapF)
		prev = out
	}

	// Strike: the first stage's output rests HIGH (input low); the hit OFF
	// transistor is its pull-down, so the radiation current discharges the
	// node toward ground.
	ch.strike = &strikeSource{}
	c.AddISource("iset", ch.nodes[0], circuit.Ground, ch.strike)

	nodeset := map[circuit.Node]float64{vddN: vdd}
	for i, n := range ch.nodes {
		if i%2 == 0 {
			nodeset[n] = vdd
		} else {
			nodeset[n] = 0
		}
	}
	sol, err := c.OperatingPoint(nodeset)
	if err != nil {
		return nil, fmt.Errorf("logic: chain DC failed: %w", err)
	}
	if sol[ch.nodes[0]] < 0.9*vdd {
		return nil, fmt.Errorf("logic: first stage not resting high: %g", sol[ch.nodes[0]])
	}
	ch.init = sol
	return ch, nil
}

// SETResult reports one injected transient.
type SETResult struct {
	// Swing[i] is the peak departure of stage i's output from its resting
	// level, in volts.
	Swing []float64
	// Propagated reports whether the final stage swung past Vdd/2 — the
	// transient survived to the chain output.
	Propagated bool
}

// Inject drives a rectangular drift-current pulse carrying the given charge
// into the first stage and measures the transient at every stage.
func (ch *Chain) Inject(charge float64) (SETResult, error) {
	if charge < 0 {
		return SETResult{}, errors.New("logic: negative charge")
	}
	tau := ch.Tech.TransitTime(ch.Vdd)
	if charge > 0 {
		ch.strike.w = circuit.RectPulse{T0: 1e-12, Width: tau, Amp: charge / tau}
	}
	defer func() { ch.strike.w = nil }()

	out := SETResult{Swing: make([]float64, ch.Stages)}
	_, err := ch.ckt.Transient(circuit.State{X: ch.init, Step: tau / 8}, circuit.TransientSpec{
		TStop:    100e-12,
		InitStep: tau / 8,
		MaxStep:  2e-12,
		OnStep: func(_ float64, x circuit.Solution) bool {
			for i, n := range ch.nodes {
				if d := math.Abs(x[n] - ch.init[n]); d > out.Swing[i] {
					out.Swing[i] = d
				}
			}
			return false
		},
	})
	if err != nil {
		return SETResult{}, fmt.Errorf("logic: SET transient: %w", err)
	}
	out.Propagated = out.Swing[ch.Stages-1] > ch.Vdd/2
	return out, nil
}

// PropagationThreshold bisects the charge above which the transient
// reaches the chain output (the logic-path critical charge). Returns +Inf
// when even hi fails to propagate.
func (ch *Chain) PropagationThreshold(lo, hi float64) (float64, error) {
	if lo <= 0 || hi <= lo {
		return 0, fmt.Errorf("logic: need 0 < lo < hi")
	}
	at := func(q float64) (bool, error) {
		r, err := ch.Inject(q)
		return r.Propagated, err
	}
	okHi, err := at(hi)
	if err != nil {
		return 0, err
	}
	if !okHi {
		return math.Inf(1), nil
	}
	okLo, err := at(lo)
	if err != nil {
		return 0, err
	}
	if okLo {
		return lo, nil
	}
	for math.Log(hi/lo) > 0.02 {
		mid := math.Sqrt(lo * hi)
		ok, err := at(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	return math.Sqrt(lo * hi), nil
}
