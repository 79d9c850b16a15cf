package hybrid

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"stochroute/internal/hist"
	"stochroute/internal/israce"
	"stochroute/internal/traj"
)

// refEvaluate is Evaluate as it was before it ran on one scratch: the
// model's Mode flipped around two PairSumEstimate calls, a fresh
// convolution and a fresh truth histogram per pair. It is the reference
// TestEvaluateMatchesReference holds Evaluate to; its KL is hist.KL,
// which TestDivergencesMatchAlignedReference holds to the copied-array
// formula.
func refEvaluate(model *Model, obs *traj.ObservationStore, oracle Oracle, testPairs []traj.PairKey) (*EvalReport, error) {
	kb := model.KB
	report := &EvalReport{TestPairs: len(testPairs)}
	var sumH, sumC, sumE float64
	var sumHDep, sumCDep, sumHInd, sumCInd float64
	var nDep, nInd int
	const eps = 1e-6
	for _, k := range testPairs {
		var truth *hist.Hist
		var err error
		if oracle != nil {
			truth = new(hist.Hist)
			err = oracle.PairTruthInto(truth, k)
		} else {
			truth, err = obs.PairSumHist(k)
		}
		if err != nil {
			return nil, err
		}
		conv := hist.MustConvolve(kb.Edge(k.First).Marginal, kb.Edge(k.Second).Marginal)
		prevMode := model.Mode
		model.Mode = Auto
		hyb, err := model.PairSumEstimate(k.First, k.Second)
		if err != nil {
			return nil, err
		}
		model.Mode = AlwaysEstimate
		estOnly, err := model.PairSumEstimate(k.First, k.Second)
		if err != nil {
			return nil, err
		}
		model.Mode = prevMode
		klH, _ := hist.KL(truth, hyb, eps)
		klC, _ := hist.KL(truth, conv, eps)
		klE, _ := hist.KL(truth, estOnly, eps)
		sumH += klH
		sumC += klC
		sumE += klE
		if pairLabel(kb, oracle, k) {
			nDep++
			sumHDep += klH
			sumCDep += klC
		} else {
			nInd++
			sumHInd += klH
			sumCInd += klC
		}
	}
	n := float64(len(testPairs))
	report.MeanKLHybrid = sumH / n
	report.MeanKLConv = sumC / n
	report.MeanKLEstimate = sumE / n
	report.DependentFrac = float64(nDep) / n
	if nDep > 0 {
		report.MeanKLHybridDep = sumHDep / float64(nDep)
		report.MeanKLConvDep = sumCDep / float64(nDep)
	}
	if nInd > 0 {
		report.MeanKLHybridInd = sumHInd / float64(nInd)
		report.MeanKLConvInd = sumCInd / float64(nInd)
	}
	return report, nil
}

// reportsBitEqual fails t unless every field of a and b is equal, the
// float64 fields bit for bit.
func reportsBitEqual(t *testing.T, label string, a, b *EvalReport) {
	t.Helper()
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := range va.NumField() {
		fa, fb := va.Field(i), vb.Field(i)
		name := va.Type().Field(i).Name
		if fa.Kind() == reflect.Float64 {
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				t.Errorf("%s: %s = %v, reference %v", label, name, fa.Float(), fb.Float())
			}
		} else if !reflect.DeepEqual(fa.Interface(), fb.Interface()) {
			t.Errorf("%s: %s = %v, reference %v", label, name, fa.Interface(), fb.Interface())
		}
	}
}

// TestEvaluateMatchesReference: every EvalReport field of Evaluate is
// bit-equal to the heap reference's, judged by the world's truth and by
// the empirical pair sums, over pairs the classifier splits both ways.
func TestEvaluateMatchesReference(t *testing.T) {
	m, _ := getModel(t)
	e := getEnv(t)
	pairs := e.obs.PairsWithSupport(12)
	if len(pairs) < 300 {
		t.Fatalf("%d pairs with support, want at least 300", len(pairs))
	}
	estimated := 0
	for _, k := range pairs {
		if m.ShouldEstimate(k.First, k.Second) {
			estimated++
		}
	}
	if estimated == 0 || estimated == len(pairs) {
		t.Fatalf("the classifier estimates %d of %d pairs: the fixture no longer covers both decisions", estimated, len(pairs))
	}
	for _, tc := range []struct {
		name   string
		oracle Oracle
	}{{"world oracle", WorldOracle{World: e.world}}, {"empirical", nil}} {
		ref := *m
		want, err := refEvaluate(&ref, e.obs, tc.oracle, pairs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Evaluate(m, e.obs, tc.oracle, pairs)
		if err != nil {
			t.Fatal(err)
		}
		reportsBitEqual(t, tc.name, got, want)
	}
}

// TestEvaluateAllocationCeiling: Evaluate allocates only while its
// buffers grow, so the count does not grow with the number of test
// pairs: one ceiling holds at 50 pairs and at 300, judged by the
// held-out observations (no oracle, as every /ingest rebuild runs it)
// and by the world's analytic truth (WorldOracle, as BuildEngine runs
// it), whose pair sums fill the one truth histogram in place.
func TestEvaluateAllocationCeiling(t *testing.T) {
	if israce.Enabled {
		t.Skip("under the race detector sync.Pool drops Puts at random")
	}
	m, _ := getModel(t)
	e := getEnv(t)
	pairs := e.obs.PairsWithSupport(12)
	const ceiling = 32
	for _, tc := range []struct {
		name   string
		oracle Oracle
	}{{"without an oracle", nil}, {"with the world oracle", WorldOracle{World: e.world}}} {
		for _, n := range []int{50, 300} {
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := Evaluate(m, e.obs, tc.oracle, pairs[:n]); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("Evaluate %s over %d test pairs: %.0f allocs per call", tc.name, n, allocs)
			if allocs > ceiling {
				t.Errorf("Evaluate %s over %d test pairs allocates %.0f times, want at most %d", tc.name, n, allocs, ceiling)
			}
		}
	}
}

// TestEvaluateLeavesTheModelAlone: Evaluate only reads the model, so it
// may judge a published model while searches extend on it. Concurrent
// ExtendInto calls on the same *Model keep answering in its own mode,
// bit for bit, and its Mode is unchanged afterwards; under -race the
// detector sees every access.
func TestEvaluateLeavesTheModelAlone(t *testing.T) {
	trained, _ := getModel(t)
	e := getEnv(t)
	m := *trained // the shared model stays out of reach of this test's searches
	pairs := e.obs.PairsWithSupport(12)[:100]
	var convolved []traj.PairKey
	for _, k := range pairs {
		if !m.ShouldEstimate(k.First, k.Second) {
			convolved = append(convolved, k)
		}
	}
	if len(convolved) == 0 {
		t.Fatal("the classifier estimates every pair: nothing would show a flipped Mode")
	}
	want := make([]*hist.Hist, len(convolved))
	for i, k := range convolved {
		var err error
		if want[i], err = m.PairSumEstimate(k.First, k.Second); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mismatches [2]int
	for w := range mismatches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s Scratch
			for i := 0; ; i = (i + 1) % len(convolved) {
				select {
				case <-stop:
					return
				default:
				}
				k := convolved[i]
				first := m.InitialHistInto(&s, k.First)
				got := m.ExtendInto(&s, first, k.First, k.Second)
				if !sameBits(got, want[i]) {
					mismatches[w]++
				}
				s.Reset()
			}
		}()
	}
	for range 3 {
		if _, err := Evaluate(&m, e.obs, nil, pairs); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if m.Mode != Auto {
		t.Errorf("Mode after Evaluate = %v, want Auto", m.Mode)
	}
	if n := mismatches[0] + mismatches[1]; n > 0 {
		t.Errorf("%d concurrent extensions answered in another mode while Evaluate ran", n)
	}
}
