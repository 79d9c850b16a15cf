package hist

import "testing"

func TestInterquantileRange(t *testing.T) {
	h := New(0, 1, []float64{0.25, 0.25, 0.25, 0.25})
	if r := h.InterquantileRange(0.25, 0.75); r < 0 {
		t.Errorf("IQR = %v", r)
	}
	if r := Delta(5, 1).InterquantileRange(0.1, 0.9); r != 0 {
		t.Errorf("delta IQR = %v", r)
	}
}
