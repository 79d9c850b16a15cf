package ml

import (
	"math"
	"testing"
)

func TestScalerStandardises(t *testing.T) {
	x, _ := FromRows([][]float64{{1, 100}, {2, 200}, {3, 300}, {4, 400}})
	s, err := FitScaler(x)
	if err != nil {
		t.Fatal(err)
	}
	xt := s.Transform(x)
	for j := 0; j < 2; j++ {
		mean, sq := 0.0, 0.0
		for i := 0; i < 4; i++ {
			mean += xt.Row(i)[j]
		}
		mean /= 4
		for i := 0; i < 4; i++ {
			d := xt.Row(i)[j] - mean
			sq += d * d
		}
		std := math.Sqrt(sq / 4)
		if math.Abs(mean) > 1e-9 || math.Abs(std-1) > 1e-9 {
			t.Errorf("column %d: mean %v std %v", j, mean, std)
		}
	}
	// Original untouched.
	if x.Row(0)[0] != 1 {
		t.Error("Transform mutated input")
	}
}

func TestScalerConstantColumn(t *testing.T) {
	x, _ := FromRows([][]float64{{5, 1}, {5, 2}, {5, 3}})
	s, err := FitScaler(x)
	if err != nil {
		t.Fatal(err)
	}
	xt := s.Transform(x)
	for i := 0; i < 3; i++ {
		if xt.Row(i)[0] != 0 {
			t.Errorf("constant column row %d = %v, want 0", i, xt.Row(i)[0])
		}
	}
}

func TestScalerTransformRowConsistent(t *testing.T) {
	x, _ := FromRows([][]float64{{1, 10}, {3, 30}})
	s, _ := FitScaler(x)
	xt := s.Transform(x)
	row := append([]float64(nil), 1.0, 10.0)
	s.TransformRow(row)
	if row[0] != xt.Row(0)[0] || row[1] != xt.Row(0)[1] {
		t.Errorf("TransformRow %v != Transform row %v", row, xt.Row(0))
	}
}

func TestScalerEmptyErrors(t *testing.T) {
	if _, err := FitScaler(NewMatrix(0, 3)); err == nil {
		t.Error("empty matrix should error")
	}
}
