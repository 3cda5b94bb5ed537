package sram

import (
	"context"
	"testing"

	"finser/internal/finfet"
)

// BenchmarkStrikeTransient times one full strike simulation — the unit of
// work behind every characterization sample.
func BenchmarkStrikeTransient(b *testing.B) {
	cell, err := NewCell(finfet.Default14nmSOI(), 0.8, VthShifts{})
	if err != nil {
		b.Fatal(err)
	}
	var charges [NumAxes]float64
	charges[AxisI1] = 1e-16
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cell.SimulateStrike(charges, ShapeRect); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCriticalChargeBisection times one Qcrit extraction.
func BenchmarkCriticalChargeBisection(b *testing.B) {
	cell, err := NewCell(finfet.Default14nmSOI(), 0.8, VthShifts{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cell.CriticalCharge(AxisI1, 1e-18, 5e-14, ShapeRect); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPOFEvaluation times the hot array-MC path: POF lookup for a
// single-axis strike against a 1000-sample characterization.
func BenchmarkPOFEvaluation(b *testing.B) {
	ch, err := CharacterizeCtx(context.Background(), CharConfig{
		Tech: finfet.Default14nmSOI(), Vdd: 0.8,
		ProcessVariation: true, Samples: 100, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	med := ch.QcritQuantile(AxisI1, 0.5)
	var q [NumAxes]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q[AxisI1] = med * (0.5 + float64(i%100)/100)
		_ = ch.POF(q)
	}
}

// BenchmarkPOFMultiAxis times the linear flip-surface path.
func BenchmarkPOFMultiAxis(b *testing.B) {
	ch, err := CharacterizeCtx(context.Background(), CharConfig{
		Tech: finfet.Default14nmSOI(), Vdd: 0.8,
		ProcessVariation: true, Samples: 100, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	med := ch.QcritQuantile(AxisI1, 0.5)
	q := [NumAxes]float64{med / 2, med / 2, med / 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ch.POF(q)
	}
}
