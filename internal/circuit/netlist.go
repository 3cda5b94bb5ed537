// Package circuit is the library's SPICE substitute: a Modified Nodal
// Analysis (MNA) engine with damped Newton–Raphson for nonlinear devices,
// backward-Euler transient integration with breakpoint-aware time stepping,
// and the source waveforms used in single-event analysis. It supports
// resistors, capacitors, independent voltage/current sources, and arbitrary
// nonlinear devices (the FinFET compact model plugs in through the Device
// interface). It is small — SRAM cells are ~10 unknowns — but it is a real
// nonlinear transient solver, not a behavioural shortcut: cell flips emerge
// from the regenerative feedback dynamics exactly as they do in SPICE.
package circuit

import (
	"fmt"

	"finser/internal/guard"
)

// Node identifies a circuit node. Ground is the reference node.
type Node int

// Ground is the reference node (0 V).
const Ground Node = -1

// Stamper is the assembly context handed to devices each Newton iteration.
// Devices add their linearized companion models through its methods; the
// index bookkeeping (ground elision, branch rows) stays in one place.
type Stamper struct {
	a     [][]float64
	b     []float64
	x     []float64 // current Newton iterate (node voltages + branch currents)
	xPrev []float64 // solution at the previous accepted timestep
	time  float64   // time being solved for
	dt    float64   // timestep; 0 during DC analysis
}

// DC reports whether the current solve is a DC operating point.
func (s *Stamper) DC() bool { return s.dt == 0 }

// Time returns the time being solved for.
func (s *Stamper) Time() float64 { return s.time }

// SourceTime returns the time at which current-source waveforms are
// sampled: the midpoint of the current step. Backward Euler applies one
// source value across the whole step, so midpoint sampling makes the
// injected charge of a pulse exact when steps land on its corners (the
// stepper guarantees that via breakpoints).
func (s *Stamper) SourceTime() float64 {
	if s.dt == 0 {
		return s.time
	}
	return s.time - s.dt/2
}

// Dt returns the current timestep (0 in DC).
func (s *Stamper) Dt() float64 { return s.dt }

// V returns the node voltage in the current Newton iterate.
func (s *Stamper) V(n Node) float64 {
	if n == Ground {
		return 0
	}
	return s.x[n]
}

// VPrev returns the node voltage at the previous accepted timestep.
func (s *Stamper) VPrev(n Node) float64 {
	if n == Ground {
		return 0
	}
	return s.xPrev[n]
}

// AddConductance stamps a conductance g between nodes i and j.
func (s *Stamper) AddConductance(i, j Node, g float64) {
	if i != Ground {
		s.a[i][i] += g
		if j != Ground {
			s.a[i][j] -= g
		}
	}
	if j != Ground {
		s.a[j][j] += g
		if i != Ground {
			s.a[j][i] -= g
		}
	}
}

// AddCurrent stamps a current source of value cur flowing from node i into
// node j (conventional current leaves i, enters j).
func (s *Stamper) AddCurrent(i, j Node, cur float64) {
	if i != Ground {
		s.b[i] -= cur
	}
	if j != Ground {
		s.b[j] += cur
	}
}

// AddNonlinearCurrent stamps the Newton companion of a nonlinear current of
// value id flowing from node `from` to node `to`, whose partial derivatives
// with respect to the node voltages in deps are g. This is the single entry
// point nonlinear devices (the FinFET model) need.
func (s *Stamper) AddNonlinearCurrent(from, to Node, id float64, deps []Node, g []float64) {
	lin := id
	for k, n := range deps {
		lin -= g[k] * s.V(n)
		if n == Ground {
			continue
		}
		if from != Ground {
			s.a[from][n] += g[k]
		}
		if to != Ground {
			s.a[to][n] -= g[k]
		}
	}
	s.AddCurrent(from, to, lin)
}

// Device is a circuit element that can stamp its (linearized) companion
// model into the MNA system.
type Device interface {
	// Stamp adds the device's contribution for the given assembly context.
	Stamp(s *Stamper)
	// Name returns the instance name for diagnostics.
	Name() string
}

// BranchDevice is a device that needs a branch-current unknown
// (voltage sources). The circuit assigns the branch row.
type BranchDevice interface {
	Device
	setBranch(row int)
}

// Circuit is a netlist under construction and the analyses over it.
type Circuit struct {
	names   []string
	nodeIdx map[string]Node
	devices []Device
	nBranch int

	// Gmin is a conductance from every node to ground added for numerical
	// conditioning (SPICE's gmin). Defaults to 1e-12 S.
	Gmin float64
	// MaxNewtonIter bounds Newton iterations per solve point. Default 200.
	MaxNewtonIter int
	// VStep caps the per-iteration voltage update (Newton damping), in
	// volts. Default 0.3.
	VStep float64
	// AbsTol and RelTol define Newton convergence on the update norm.
	AbsTol, RelTol float64
	// Metrics, when non-nil, receives solver counters (Newton iterations,
	// transient steps, step halvings, failed solves). Nil costs nothing.
	Metrics *Metrics
	// Guard, when non-nil, checks that accepted transient solutions stay
	// finite — a NaN node voltage is counted (warn) or fails the simulation
	// with a typed error (strict). Nil costs one pointer check per step.
	Guard *guard.Guard

	// ws is the reusable solver workspace: the MNA matrix, RHS, stamper,
	// transient ping-pong buffers and breakpoint list are allocated once
	// and reused across Newton iterations, timesteps, and whole analyses,
	// which is why a Circuit must not run concurrent analyses.
	ws workspace
}

// New returns an empty circuit with default solver settings.
func New() *Circuit {
	return &Circuit{
		nodeIdx:       make(map[string]Node),
		Gmin:          1e-12,
		MaxNewtonIter: 200,
		VStep:         0.3,
		AbsTol:        1e-9,
		RelTol:        1e-6,
	}
}

// Node returns the node with the given name, creating it on first use.
// The name "0" and "gnd" map to Ground.
func (c *Circuit) Node(name string) Node {
	if name == "0" || name == "gnd" {
		return Ground
	}
	if n, ok := c.nodeIdx[name]; ok {
		return n
	}
	n := Node(len(c.names))
	c.nodeIdx[name] = n
	c.names = append(c.names, name)
	return n
}

// NodeName returns the name of node n.
func (c *Circuit) NodeName(n Node) string {
	if n == Ground {
		return "0"
	}
	return c.names[n]
}

// NumNodes returns the number of non-ground nodes.
func (c *Circuit) NumNodes() int { return len(c.names) }

// AddDevice appends a device to the netlist. Branch devices get their
// branch row assigned here.
func (c *Circuit) AddDevice(d Device) {
	if bd, ok := d.(BranchDevice); ok {
		bd.setBranch(len(c.names) + c.nBranch) // provisional; fixed in assemble
		c.nBranch++
	}
	c.devices = append(c.devices, d)
}

// unknowns returns the size of the MNA system.
func (c *Circuit) unknowns() int { return len(c.names) + c.nBranch }

// assignBranches renumbers branch rows after all nodes are known.
func (c *Circuit) assignBranches() {
	row := len(c.names)
	for _, d := range c.devices {
		if bd, ok := d.(BranchDevice); ok {
			bd.setBranch(row)
			row++
		}
	}
}

func (c *Circuit) String() string {
	return fmt.Sprintf("circuit{%d nodes, %d devices, %d branches}",
		len(c.names), len(c.devices), c.nBranch)
}
