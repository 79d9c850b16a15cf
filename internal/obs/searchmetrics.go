package obs

import "strconv"

// sliceLabels pre-renders the slice="i" label for each of n slices, so
// per-slice children can be registered once and indexed by slice on the
// hot path.
func sliceLabels(n int) []Label {
	if n < 1 {
		n = 1
	}
	out := make([]Label, n)
	for i := range out {
		out[i] = L("slice", strconv.Itoa(i))
	}
	return out
}

// SearchSample is the per-query search telemetry the engine records at
// route time — the routing.Result counters plus the hybrid model's
// decision split and the search arena footprint. Passed by value so
// recording never allocates.
type SearchSample struct {
	// Slice is the time-of-day slice that served the query (the
	// departure slice for time-expanded queries).
	Slice int
	// TimeExpanded marks a query routed across slice boundaries.
	TimeExpanded bool
	// Expansions and GeneratedLabels are the search's work counters.
	Expansions, GeneratedLabels int
	// PrunedPotential, PrunedPivot and PrunedDominance are the three
	// pruning rules' kill counts.
	PrunedPotential, PrunedPivot, PrunedDominance int
	// Convolved and Estimated split the per-query cost-model decisions.
	Convolved, Estimated int
	// ArenaBytes is the retained byte footprint of the search's arena.
	ArenaBytes int64
}

// SearchMetrics holds the engine's per-slice search telemetry
// histograms. Children are registered up front and held in arrays
// indexed by slice, so Observe is pure atomics — zero allocations
// (TestHotPathZeroAllocs proves it).
//
// A nil *SearchMetrics records nothing, so the engine can be run
// uninstrumented.
type SearchMetrics struct {
	expansions []*Histogram
	generated  []*Histogram
	prunedPot  []*Histogram
	prunedPiv  []*Histogram
	prunedDom  []*Histogram
	convolved  []*Histogram
	estimated  []*Histogram
	arenaBytes []*Histogram

	timeExpanded *Counter
}

// NewSearchMetrics registers the engine's search telemetry families on
// r for slices time-of-day slices and returns the recorder.
func NewSearchMetrics(r *Registry, slices int) *SearchMetrics {
	labels := sliceLabels(slices)
	counts := ExponentialBuckets(1, 4, 10)   // 1 .. ~260k
	bytes := ExponentialBuckets(4096, 4, 10) // 4KiB .. ~1GiB
	m := &SearchMetrics{
		timeExpanded: r.Counter("search_time_expanded_total",
			"Queries routed in time-expanded mode (across slice boundaries)."),
	}
	reg := func(name, help string, bounds []float64) []*Histogram {
		hs := make([]*Histogram, len(labels))
		for i, l := range labels {
			hs[i] = r.Histogram(name, help, bounds, l)
		}
		return hs
	}
	m.expansions = reg("search_expansions",
		"Label expansions per routing query.", counts)
	m.generated = reg("search_generated_labels",
		"Labels generated per routing query.", counts)
	m.prunedPot = reg("search_pruned_potential",
		"Labels pruned by the potential rule per routing query.", counts)
	m.prunedPiv = reg("search_pruned_pivot",
		"Labels pruned by the pivot/cost-shifting rule per routing query.", counts)
	m.prunedDom = reg("search_pruned_dominance",
		"Labels pruned by the dominance rule per routing query.", counts)
	m.convolved = reg("search_convolved",
		"Exact convolutions chosen by the hybrid model per routing query.", counts)
	m.estimated = reg("search_estimated",
		"Estimator invocations chosen by the hybrid model per routing query.", counts)
	m.arenaBytes = reg("search_arena_bytes",
		"Retained search-arena bytes per routing query.", bytes)
	return m
}

// Observe records one query's search telemetry into the slice's
// histograms. Out-of-range slices clamp to the edge (defensive: the
// engine always passes a valid slice).
func (m *SearchMetrics) Observe(s SearchSample) {
	if m == nil {
		return
	}
	i := s.Slice
	if i < 0 {
		i = 0
	}
	if i >= len(m.expansions) {
		i = len(m.expansions) - 1
	}
	m.expansions[i].Observe(float64(s.Expansions))
	m.generated[i].Observe(float64(s.GeneratedLabels))
	m.prunedPot[i].Observe(float64(s.PrunedPotential))
	m.prunedPiv[i].Observe(float64(s.PrunedPivot))
	m.prunedDom[i].Observe(float64(s.PrunedDominance))
	m.convolved[i].Observe(float64(s.Convolved))
	m.estimated[i].Observe(float64(s.Estimated))
	m.arenaBytes[i].Observe(float64(s.ArenaBytes))
	if s.TimeExpanded {
		m.timeExpanded.Inc()
	}
}
