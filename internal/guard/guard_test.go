package guard

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"finser/internal/obs"
)

func TestParseMode(t *testing.T) {
	cases := []struct {
		in   string
		want Mode
		ok   bool
	}{
		{"off", Off, true},
		{"", Off, true},
		{"warn", Warn, true},
		{"strict", Strict, true},
		{"STRICT", Off, false},
		{"paranoid", Off, false},
	}
	for _, c := range cases {
		got, err := ParseMode(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseMode(%q) err = %v, want ok=%v", c.in, err, c.ok)
		}
		if err == nil && got != c.want {
			t.Errorf("ParseMode(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, m := range []Mode{Off, Warn, Strict} {
		rt, err := ParseMode(m.String())
		if err != nil || rt != m {
			t.Errorf("round trip %v: got %v, %v", m, rt, err)
		}
	}
}

func TestNilAndOffAreNoOps(t *testing.T) {
	var g *Guard
	if g.Enabled() {
		t.Fatal("nil guard reports enabled")
	}
	if g.Mode() != Off {
		t.Fatalf("nil guard mode = %v", g.Mode())
	}
	if err := g.Probability("s", "p", math.NaN()); err != nil {
		t.Fatalf("nil guard returned %v", err)
	}
	if off := New(Off, obs.NewRegistry(), nil); off != nil {
		t.Fatal("New(Off) should return nil")
	}
}

func TestStrictReturnsTypedError(t *testing.T) {
	reg := obs.NewRegistry()
	g := New(Strict, reg, nil)
	cases := []struct {
		name      string
		err       error
		invariant string
	}{
		{"nan pof", g.Probability("core.strike", "cell POF", math.NaN()), "pof-range"},
		{"pof above one", g.Probability("core.strike", "cell POF", 1.5), "pof-range"},
		{"negative pof", g.Probability("core.strike", "cell POF", -0.1), "pof-range"},
		{"inf voltage", g.Finite("circuit.transient", "node v", math.Inf(1)), "finite"},
		{"nan voltage", g.Finite("circuit.transient", "node v", math.NaN()), "finite"},
		{"negative fit", g.NonNegativeFinite("fit/alpha", "TotalFIT", -3), "nonneg-finite"},
		{"nan fit", g.NonNegativeFinite("fit/alpha", "TotalFIT", math.NaN()), "nonneg-finite"},
		{"lost charge", g.Conserved("core.strike", "injected charge", 0.5, 1.0, 1e-9, 0), "charge-conservation"},
		{"nan conserved", g.Conserved("core.strike", "injected charge", math.NaN(), 1.0, 1e-9, 0), "charge-conservation"},
		{"pof grows with vdd", g.MonotoneNonIncreasing("sweep", "pof(vdd)", []float64{0.9, 0.95}, 0.01), "pof-vdd-monotone"},
		{"pof nan mid-sweep", g.MonotoneNonIncreasing("sweep", "pof(vdd)", []float64{1, math.NaN(), 0}, 0), "pof-vdd-monotone"},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Errorf("%s: expected violation", c.name)
			continue
		}
		var inv *InvariantError
		if !errors.As(c.err, &inv) {
			t.Errorf("%s: error %T is not *InvariantError", c.name, c.err)
			continue
		}
		if inv.Invariant != c.invariant {
			t.Errorf("%s: invariant = %q, want %q", c.name, inv.Invariant, c.invariant)
		}
		if inv.Stage == "" || !strings.Contains(c.err.Error(), inv.Stage) {
			t.Errorf("%s: error %q does not name the stage", c.name, c.err)
		}
		if !strings.Contains(c.err.Error(), inv.Invariant) {
			t.Errorf("%s: error %q does not name the invariant", c.name, c.err)
		}
	}
	if got := reg.Counter("guard/violations").Value(); got != int64(len(cases)) {
		t.Errorf("total violations = %d, want %d", got, len(cases))
	}
	if got := g.Violations(); got != int64(len(cases)) {
		t.Errorf("Violations() = %d, want %d", got, len(cases))
	}
}

func TestValidValuesPass(t *testing.T) {
	g := New(Strict, nil, nil)
	checks := []error{
		g.Probability("s", "p", 0),
		g.Probability("s", "p", 1),
		g.Probability("s", "p", 0.37),
		g.Finite("s", "v", -12.5),
		g.NonNegativeFinite("s", "fit", 0),
		g.NonNegativeFinite("s", "fit", 4.2e3),
		g.Conserved("s", "q", 1.0000000001e-15, 1e-15, 1e-9, 0),
		g.Conserved("s", "q", 0, 0, 1e-9, 1e-30),
		g.MonotoneNonIncreasing("s", "pof", []float64{0.9, 0.5, 0.5, 0.1}, 0),
		g.MonotoneNonIncreasing("s", "pof", []float64{0.5, 0.52}, 0.05), // within tolerance
	}
	for i, err := range checks {
		if err != nil {
			t.Errorf("check %d: unexpected violation %v", i, err)
		}
	}
}

func TestWarnCountsAndContinues(t *testing.T) {
	reg := obs.NewRegistry()
	var lines []string
	g := New(Warn, reg, func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	})
	for i := 0; i < 5; i++ {
		if err := g.Probability("core.strike", "cell POF", math.NaN()); err != nil {
			t.Fatalf("warn mode returned error: %v", err)
		}
	}
	if err := g.Finite("circuit.transient", "node v", math.Inf(-1)); err != nil {
		t.Fatalf("warn mode returned error: %v", err)
	}
	if got := reg.Counter("guard/violations").Value(); got != 6 {
		t.Errorf("violations = %d, want 6", got)
	}
	if got := reg.Counter("guard/violations/pof-range").Value(); got != 5 {
		t.Errorf("pof-range violations = %d, want 5", got)
	}
	if got := reg.Counter("guard/violations/finite").Value(); got != 1 {
		t.Errorf("finite violations = %d, want 1", got)
	}
	// Log throttling: one line per (invariant, stage) pair.
	if len(lines) != 2 {
		t.Errorf("logged %d lines, want 2 (throttled): %q", len(lines), lines)
	}
}

func TestGuardConcurrentUse(t *testing.T) {
	g := New(Warn, obs.NewRegistry(), func(string, ...any) {})
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				g.Probability("s", "p", math.NaN())
				g.Finite("s", "v", 1)
			}
		}()
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	if got := g.Violations(); got != 8000 {
		t.Errorf("violations = %d, want 8000", got)
	}
}
