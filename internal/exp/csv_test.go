package exp

import (
	"bytes"
	"encoding/csv"
	"slices"
	"testing"
)

func TestQualityCSV(t *testing.T) {
	rows := []QualityRow{{
		Category:     "[1, 5)",
		Queries:      12,
		ImprovedFrac: []float64{0.5, 0.25, 0.4, 0.5},
		WorseFrac:    []float64{0.25, 0, 0.1, 0.25},
		Improvement:  []float64{3.2, 1.1, 2.0, 3.0},
		MeanBaseProb: 0.6,
		MeanPBRProb:  0.66,
	}}
	var buf bytes.Buffer
	if err := QualityCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	if len(recs[0]) != len(recs[1]) {
		t.Errorf("header/row width mismatch: %d vs %d", len(recs[0]), len(recs[1]))
	}
	if recs[1][0] != "[1, 5)" || recs[1][1] != "12" {
		t.Errorf("row = %v", recs[1])
	}
	if i := slices.Index(recs[0], "worse_frac_pinf"); i < 0 || recs[1][i] != "0.25" {
		t.Errorf("worse_frac_pinf: column %d of header %v, row %v", i, recs[0], recs[1])
	}
}

func TestOtherCSVEmitters(t *testing.T) {
	emit := []func(w *bytes.Buffer) error{
		func(w *bytes.Buffer) error {
			return EfficiencyCSV(w, []EfficiencyRow{{Category: "[0, 1)", Queries: 3, MeanSeconds: 0.01}})
		},
		func(w *bytes.Buffer) error {
			return AblationCSV(w, []AblationRow{{Variant: "full", Queries: 3}})
		},
		func(w *bytes.Buffer) error {
			return AnytimeCSV(w, []AnytimePoint{{Expansions: 100, MeanProb: 0.5}})
		},
	}
	for i, fn := range emit {
		var buf bytes.Buffer
		if err := fn(&buf); err != nil {
			t.Fatalf("emitter %d: %v", i, err)
		}
		recs, err := csv.NewReader(&buf).ReadAll()
		if err != nil {
			t.Fatalf("emitter %d parse: %v", i, err)
		}
		if len(recs) != 2 {
			t.Errorf("emitter %d: got %d records, want header + row", i, len(recs))
		}
	}
}
