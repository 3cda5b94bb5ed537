package circuit

// Resistor is a linear two-terminal resistor.
type Resistor struct {
	name string
	A, B Node
	G    float64 // conductance, S
}

// AddResistor adds a resistor of the given resistance (ohms).
func (c *Circuit) AddResistor(name string, a, b Node, ohms float64) *Resistor {
	if ohms <= 0 {
		panic("circuit: resistor needs positive resistance")
	}
	r := &Resistor{name: name, A: a, B: b, G: 1 / ohms}
	c.AddDevice(r)
	return r
}

// Name implements Device.
func (r *Resistor) Name() string { return r.name }

// Stamp implements Device.
func (r *Resistor) Stamp(s *Stamper) { s.AddConductance(r.A, r.B, r.G) }

// Capacitor is a linear two-terminal capacitor, open in DC and integrated
// with its backward-Euler companion in transient.
type Capacitor struct {
	name string
	A, B Node
	C    float64 // farads
}

// AddCapacitor adds a capacitor of the given capacitance (farads).
func (c *Circuit) AddCapacitor(name string, a, b Node, farads float64) *Capacitor {
	if farads <= 0 {
		panic("circuit: capacitor needs positive capacitance")
	}
	cap := &Capacitor{name: name, A: a, B: b, C: farads}
	c.AddDevice(cap)
	return cap
}

// Name implements Device.
func (cp *Capacitor) Name() string { return cp.name }

// Stamp implements Device with the backward-Euler companion:
// i = (C/h)(v − v₀) → Geq = C/h, Ieq = (C/h)·v₀.
func (cp *Capacitor) Stamp(s *Stamper) {
	if s.DC() {
		return // open circuit at DC
	}
	vPrev := s.VPrev(cp.A) - s.VPrev(cp.B)
	geq := cp.C / s.Dt()
	s.AddConductance(cp.A, cp.B, geq)
	s.AddCurrent(cp.B, cp.A, geq*vPrev)
}

// VSource is an independent voltage source; it takes a branch-current
// unknown (row `branch`). Current through the source flows from + (A)
// through the source to - (B).
type VSource struct {
	name   string
	A, B   Node // + and - terminals
	W      Waveform
	branch int
}

// AddVSource adds an independent voltage source with the given waveform
// between nodes a (+) and b (-).
func (c *Circuit) AddVSource(name string, a, b Node, w Waveform) *VSource {
	v := &VSource{name: name, A: a, B: b, W: w}
	c.AddDevice(v)
	return v
}

// Name implements Device.
func (v *VSource) Name() string { return v.name }

func (v *VSource) setBranch(row int) { v.branch = row }

// Stamp implements Device.
func (v *VSource) Stamp(s *Stamper) {
	k := v.branch
	if v.A != Ground {
		s.a[v.A][k] += 1
		s.a[k][v.A] += 1
	}
	if v.B != Ground {
		s.a[v.B][k] -= 1
		s.a[k][v.B] -= 1
	}
	s.b[k] += v.W.Value(s.Time())
}

// Branch returns the branch row index (valid after analysis starts);
// the solution vector holds the source current there.
func (v *VSource) Branch() int { return v.branch }

// ISource is an independent current source pushing current from node A to
// node B (conventional current out of A, into B... in SPICE convention a
// positive source value drives current from + terminal through the source
// to - terminal; here positive Value pushes current INTO node B).
type ISource struct {
	name string
	A, B Node
	W    Waveform
}

// AddISource adds an independent current source. A positive waveform value
// drives conventional current from node a, through the source, into node b
// (raising b's potential against a load).
func (c *Circuit) AddISource(name string, a, b Node, w Waveform) *ISource {
	i := &ISource{name: name, A: a, B: b, W: w}
	c.AddDevice(i)
	return i
}

// Name implements Device.
func (i *ISource) Name() string { return i.name }

// Stamp implements Device. The waveform is sampled at the step midpoint so
// pulse charge integrates exactly; see Stamper.SourceTime.
func (i *ISource) Stamp(s *Stamper) {
	s.AddCurrent(i.A, i.B, i.W.Value(s.SourceTime()))
}
