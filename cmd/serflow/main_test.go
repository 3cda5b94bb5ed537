package main

import (
	"strings"
	"testing"

	"finser"
)

func TestParseVdds(t *testing.T) {
	got, err := parseVdds("0.7, 0.8,1.1")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.7, 0.8, 1.1}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if _, err := parseVdds("0.7,abc"); err == nil {
		t.Error("bad vdd accepted")
	}
	if _, err := parseVdds(""); err == nil {
		t.Error("empty vdd list accepted")
	}
	// A non-finite voltage fails up front, naming the flag, not after the
	// voltages before it have run.
	for _, bad := range []string{"0.8,inf", "0.8,+Inf", "nan", "0.8,-1"} {
		if _, err := parseVdds(bad); err == nil || !strings.Contains(err.Error(), "-vdd") {
			t.Errorf("parseVdds(%q): err = %v, want an error naming -vdd", bad, err)
		}
	}
}

// pattern builds a config from default flags with the given -pattern.
func pattern(s string) (finser.DataPattern, error) {
	cfg, _, err := buildConfig("0.8", 9, 9, false, 10, 100, 0, s, 1)
	return cfg.Pattern, err
}

func TestParsePattern(t *testing.T) {
	cases := map[string]finser.DataPattern{
		"zeros":        finser.PatternZeros,
		"ones":         finser.PatternOnes,
		"checkerboard": finser.PatternCheckerboard,
	}
	for s, want := range cases {
		got, err := pattern(s)
		if err != nil {
			t.Errorf("%s: %v", s, err)
		}
		if got != want {
			t.Errorf("%s → %v, want %v", s, got, want)
		}
	}
	if _, err := pattern("stripes"); err == nil {
		t.Error("unknown pattern accepted")
	}
}
