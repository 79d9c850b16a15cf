package ingest

import (
	"stochroute/internal/hist"
	"stochroute/internal/hybrid"
	"stochroute/internal/traj"
)

// DriftConfig tunes when the ingestor decides the serving model has
// gone stale. The zero value means "defaults"; a negative Window
// disables drift detection entirely (trajectory-count rebuilds still
// apply when RebuildEvery is set).
type DriftConfig struct {
	// Window is the number of accepted trajectories per drift
	// evaluation window (default 400, negative disables detection).
	Window int
	// MinEdgeObs is the number of fresh samples an edge needs within
	// the window before its histogram is compared (default 8).
	MinEdgeObs int
	// EdgeThreshold is the Jensen–Shannon divergence (nats, max ln 2)
	// between an edge's fresh histogram and its serving marginal above
	// which the edge counts as drifted (default 0.12).
	EdgeThreshold float64
	// DriftedFrac is the fraction of comparable edges that must drift
	// for the window to fire (default 0.25).
	DriftedFrac float64
	// RebuildEvery unconditionally triggers a rebuild after this many
	// accepted trajectories since the last one, regardless of drift
	// (default 0 = disabled).
	RebuildEvery int
}

// minDriftEdges is the number of comparable edges a window needs before
// a drift score may fire a rebuild — a handful of busy edges must not
// retrain the whole network.
const minDriftEdges = 5

func (c DriftConfig) withDefaults() DriftConfig {
	if c.Window == 0 {
		c.Window = 400
	}
	if c.MinEdgeObs <= 0 {
		c.MinEdgeObs = 8
	}
	if c.EdgeThreshold == 0 {
		c.EdgeThreshold = 0.12
	}
	if c.DriftedFrac == 0 {
		c.DriftedFrac = 0.25
	}
	return c
}

// DriftReport is the outcome of evaluating one drift window.
type DriftReport struct {
	// Checked is the number of edges with enough fresh samples to
	// compare; Drifted of them exceeded EdgeThreshold.
	Checked int
	Drifted int
	// Score is Drifted/Checked (0 when nothing was comparable).
	Score float64
	// MaxDivergence and MeanDivergence summarise the per-edge JS
	// divergences of the checked edges.
	MaxDivergence  float64
	MeanDivergence float64
	// Fired reports whether the window met the rebuild criteria.
	Fired bool
}

// DriftMonitor keeps the window of accepted trajectories and scores it
// against the serving model's marginals once it is full. It is not safe
// for concurrent use; the Ingestor serialises access under its mutex.
type DriftMonitor struct {
	cfg    DriftConfig
	width  float64
	window []traj.Trajectory
}

// NewDriftMonitor returns a monitor on the given histogram grid width
// (which must match the serving knowledge base's width).
func NewDriftMonitor(cfg DriftConfig, width float64) *DriftMonitor {
	return &DriftMonitor{cfg: cfg.withDefaults(), width: width}
}

// Enabled reports whether drift detection is on.
func (m *DriftMonitor) Enabled() bool { return m.cfg.Window > 0 }

// Observe adds one accepted trajectory to the current window.
func (m *DriftMonitor) Observe(tr *traj.Trajectory) {
	if m.Enabled() {
		m.window = append(m.window, *tr)
	}
}

// Ready reports whether the window is full and should be evaluated.
func (m *DriftMonitor) Ready() bool { return m.Enabled() && len(m.window) >= m.cfg.Window }

// Evaluate collects the window into an observation store, scores it
// against kb's per-edge marginals edge by edge in ID order — so one
// window always gets one report — and resets the window. Edges with
// fewer than MinEdgeObs traversals, or whose histogram cannot be
// compared (grid mismatch), are skipped. Each edge's counts are read
// into one reused histogram.
func (m *DriftMonitor) Evaluate(kb *hybrid.KnowledgeBase) DriftReport {
	fresh := traj.NewObservationStore(kb.Graph(), m.width)
	fresh.Collect(m.window)
	m.window = nil
	var rep DriftReport
	var h hist.Hist
	sum := 0.0
	for e, counts := range fresh.Edges() {
		if counts.Total() < m.cfg.MinEdgeObs {
			continue
		}
		counts.HistInto(&h, m.width)
		js, err := hist.JS(&h, kb.Edge(e).Marginal)
		if err != nil {
			continue
		}
		rep.Checked++
		sum += js
		if js > rep.MaxDivergence {
			rep.MaxDivergence = js
		}
		if js > m.cfg.EdgeThreshold {
			rep.Drifted++
		}
	}
	if rep.Checked > 0 {
		rep.Score = float64(rep.Drifted) / float64(rep.Checked)
		rep.MeanDivergence = sum / float64(rep.Checked)
	}
	rep.Fired = rep.Checked >= minDriftEdges && rep.Score >= m.cfg.DriftedFrac
	return rep
}
