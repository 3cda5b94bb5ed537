// Package ecc evaluates how well word-level error correction survives the
// MBU statistics the array engine produces — the system-level question that
// motivates the paper's SEU/MBU split. A SEC-DED (single-error-correct,
// double-error-detect) code fixes any single bit flip per word, so SEUs and
// MBUs whose bits land in different words are benign; an MBU that puts two
// or more bits into one word defeats it. Memories therefore interleave
// adjacent physical columns across different logical words: with D-way
// interleaving, physical columns c and c' belong to the same word only if
// c ≡ c' (mod D), pushing same-word bits D columns apart — farther than
// most MBU clusters reach.
package ecc

import (
	"errors"

	"finser/internal/core"
)

// Scheme describes the word organization of the array.
type Scheme struct {
	// Interleave is the column-interleaving factor D: adjacent physical
	// columns belong to D different logical words. 1 means no interleaving.
	Interleave int
	// SameRowOnly restricts words to a single physical row (the usual
	// organization: one word line activates one row).
	SameRowOnly bool
}

// Validate checks the scheme.
func (s Scheme) Validate() error {
	if s.Interleave < 1 {
		return errors.New("ecc: interleave factor must be ≥ 1")
	}
	return nil
}

// SameWord reports whether two upset cells separated by (dRow, dCol) can
// share a logical word under the scheme.
func (s Scheme) SameWord(dRow, dCol int) bool {
	if s.SameRowOnly && dRow != 0 {
		return false
	}
	if dCol < 0 {
		dCol = -dCol
	}
	return dCol%s.Interleave == 0
}

// Analysis is the outcome of applying a scheme to an MBU report.
type Analysis struct {
	Scheme Scheme
	// TotalPairWeight is the expected same-event upset pairs per strike.
	TotalPairWeight float64
	// SameWordPairWeight is the subset landing in one logical word —
	// the SEC-DED-uncorrectable events.
	SameWordPairWeight float64
	// UncorrectableShare = SameWordPairWeight / TotalPairWeight (0 when no
	// pairs occurred).
	UncorrectableShare float64
}

// Analyze classifies an MBU report's pair statistics under the scheme,
// summing the weights in the report's PairKeys order.
func Analyze(rep core.MBUReport, s Scheme) (Analysis, error) {
	if err := s.Validate(); err != nil {
		return Analysis{}, err
	}
	a := Analysis{Scheme: s}
	for _, key := range rep.PairKeys() {
		w := rep.PairWeights[key]
		a.TotalPairWeight += w
		if s.SameWord(key.DRow, key.DCol) {
			a.SameWordPairWeight += w
		}
	}
	if a.TotalPairWeight > 0 {
		a.UncorrectableShare = a.SameWordPairWeight / a.TotalPairWeight
	}
	return a, nil
}

// ResidualMBUFIT estimates the post-ECC failure rate contributed by MBUs:
// the raw MBU FIT scaled by the share of upset pairs that defeat the code.
// (First-order: events with three or more same-word bits are far rarer than
// doubles and are conservatively covered by the pair accounting.)
func ResidualMBUFIT(mbuFIT float64, a Analysis) float64 {
	return mbuFIT * a.UncorrectableShare
}

// InterleaveSweep analyzes a report across interleave factors, returning
// the uncorrectable share per factor — the curve a designer uses to pick
// the cheapest interleaving that meets a FIT budget.
func InterleaveSweep(rep core.MBUReport, factors []int, sameRowOnly bool) ([]Analysis, error) {
	out := make([]Analysis, 0, len(factors))
	for _, d := range factors {
		a, err := Analyze(rep, Scheme{Interleave: d, SameRowOnly: sameRowOnly})
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}
