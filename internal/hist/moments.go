package hist

// InterquantileRange returns Quantile(hi) - Quantile(lo), a robust
// spread measure.
func (h *Hist) InterquantileRange(lo, hi float64) float64 {
	return h.Quantile(hi) - h.Quantile(lo)
}
