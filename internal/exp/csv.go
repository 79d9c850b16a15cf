package exp

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// CSV emitters so downstream tooling can regenerate the paper's plots
// from cmd/experiments output without scraping the text tables.

// QualityCSV writes E5 rows as CSV.
func QualityCSV(w io.Writer, rows []QualityRow) error {
	cw := csv.NewWriter(w)
	header := []string{"dist_km", "queries", "base_p", "pbr_p",
		"improved_frac_pinf", "improved_frac_p1", "improved_frac_p5", "improved_frac_p10",
		"worse_frac_pinf", "worse_frac_p1", "worse_frac_p5", "worse_frac_p10",
		"mean_pp_pinf", "mean_pp_p1", "mean_pp_p5", "mean_pp_p10"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			r.Category,
			strconv.Itoa(r.Queries),
			f(r.MeanBaseProb), f(r.MeanPBRProb),
		}
		for _, v := range r.ImprovedFrac {
			rec = append(rec, f(v))
		}
		for _, v := range r.WorseFrac {
			rec = append(rec, f(v))
		}
		for _, v := range r.Improvement {
			rec = append(rec, f(v))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// EfficiencyCSV writes E6 rows as CSV.
func EfficiencyCSV(w io.Writer, rows []EfficiencyRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"dist_km", "queries", "mean_sec", "mean_expansions", "mean_labels"}); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write([]string{
			r.Category, strconv.Itoa(r.Queries),
			f(r.MeanSeconds), f(r.MeanExpansions), f(r.MeanLabels),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// AblationCSV writes E7 rows as CSV.
func AblationCSV(w io.Writer, rows []AblationRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"variant", "queries", "mean_expansions", "mean_labels", "mean_sec", "mean_true_p"}); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write([]string{
			r.Variant, strconv.Itoa(r.Queries),
			f(r.MeanExpansions), f(r.MeanLabels), f(r.MeanSeconds), f(r.MeanProb),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// AnytimeCSV writes E8 points as CSV.
func AnytimeCSV(w io.Writer, points []AnytimePoint) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"expansions", "mean_true_p", "mean_sec", "complete_frac"}); err != nil {
		return err
	}
	for _, p := range points {
		if err := cw.Write([]string{
			strconv.Itoa(p.Expansions), f(p.MeanProb), f(p.MeanRuntime), f(p.CompleteFrac),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func f(v float64) string { return fmt.Sprintf("%.6g", v) }
