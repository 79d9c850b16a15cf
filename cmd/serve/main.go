// Command serve runs the concurrent routing service: an HTTP/JSON API
// (see internal/server) answering Probabilistic Budget Routing queries
// over a loaded network and trained hybrid model.
//
// Serve either loads the artifacts produced by cmd/gennet, cmd/gentraj
// and cmd/train:
//
//	serve -net net.srg -traj trips.srt -model model.srhm -addr :8080
//
// or, for a self-contained demo, generates a synthetic city and trains
// a model in-process:
//
//	serve -synthetic -rows 20 -cols 20 -addr :8080
//
// In artifact mode the grid width and the pair threshold the knowledge
// bases are rebuilt with come from the model file's training recipe.
//
// Unless -ingest=false, the service also accepts live trajectories on
// POST /ingest (stream them with cmd/replay), monitors them for
// distribution drift against the serving model, and retrains +
// hot-swaps the model in the background when drift fires (or every
// -rebuild-every trajectories). A rebuild trains on the serving set's
// recipe: the model file's, or the synthetic build's. /stats reports
// the model epoch and the write path's counters.
//
// Observability: GET /metrics serves the Prometheus text exposition
// (disable with -metrics=false); -slow-query-ms logs a structured
// slow_query line for every route request over the threshold. The line
// carries the request's X-Request-ID, which the server echoes to the
// client, so logs join to responses exactly.
//
// With -span-sample N the service records a phase-level span tree for
// 1 in N requests (and for every request arriving with a sampled W3C
// traceparent header) — the query, the slice and epoch that served it,
// the cache outcome and the search counters ride on the spans —
// retains the most recent -trace-store of them, those over
// -slow-query-ms and error traces preferentially, and serves them as
// JSON on GET /debug/traces. Background rebuilds are always traced.
// Scrapers that Accept application/openmetrics-text get latency
// histogram buckets annotated with exemplar trace IDs that resolve in
// /debug/traces?trace_id=....
//
// With -pprof 127.0.0.1:6060 the process additionally serves
// net/http/pprof on that separate loopback listener, so CPU and
// allocation profiles of the serving kernel can be captured in
// production without exposing profiling through the public API
// address.
//
// SIGINT/SIGTERM shut the server down gracefully, draining in-flight
// requests.
package main

import (
	"context"
	"flag"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"stochroute"
	"stochroute/internal/ingest"
	"stochroute/internal/obs"
	"stochroute/internal/server"
	"stochroute/internal/traj"
)

// The engine is the server's backend and the ingestor's swap target;
// keep both contracts checked here, where the three meet.
var (
	_ server.Backend = (*stochroute.Engine)(nil)
	_ ingest.Target  = (*stochroute.Engine)(nil)
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("serve: ")

	addr := flag.String("addr", ":8080", "listen address")
	netPath := flag.String("net", "net.srg", "network file (SRG1)")
	trajPath := flag.String("traj", "trips.srt", "trajectory file (SRT2), used to rebuild edge statistics")
	modelPath := flag.String("model", "model.srhm", "trained model file (SRH3; its recipe sets the grid width, the pair threshold and how a rebuild trains)")
	landmarks := flag.Int("landmarks", 0, "ALT landmarks: precompute this many landmark distance tables per model generation so queries skip the per-query backward Dijkstra (0 disables; 16 is a good OSM-scale default)")

	synthetic := flag.Bool("synthetic", false, "generate a synthetic city and train in-process instead of loading artifacts")
	rows := flag.Int("rows", 20, "synthetic grid rows")
	cols := flag.Int("cols", 20, "synthetic grid columns")
	trajs := flag.Int("trajs", 3000, "synthetic training trajectories")
	slices := flag.Int("slices", 1, "synthetic mode: time-of-day slices to partition the cost model into (artifact mode takes the slice count from the model file)")
	peak := flag.Int("peak", -1, "synthetic mode: slice to synthesise as a rush hour (-1 = none)")
	peakShift := flag.Float64("peak-shift", 0.35, "synthetic mode: mode-prior mass shifted onto the congested mode in the -peak slice")

	timeout := flag.Duration("timeout", 10*time.Second, "per-request search timeout")
	routeCache := flag.Int("route-cache", 4096, "route cache entries (negative disables)")
	bucket := flag.Float64("budget-bucket", 15, "route cache budget bucket in seconds (0 = exact budgets)")

	ingestOn := flag.Bool("ingest", true, "enable POST /ingest with drift-triggered background retraining")
	driftWindow := flag.Int("drift-window", 400, "trajectories per drift evaluation window (negative disables drift detection)")
	driftThreshold := flag.Float64("drift-threshold", 0.12, "per-edge JS divergence counting as drifted")
	driftFrac := flag.Float64("drift-frac", 0.25, "fraction of drifted edges that triggers a rebuild")
	rebuildEvery := flag.Int("rebuild-every", 0, "unconditionally rebuild after this many ingested trajectories (0 = drift only)")
	maxTrajectories := flag.Int("max-trajectories", 50000, "per-slice aggregate bound in trajectories: past half of it a second count store starts, and past all of it that store takes over, so the older half ages out (negative = unbounded)")
	maxIngestBytes := flag.Int64("max-ingest-bytes", 8<<20, "largest accepted /ingest body")
	maxBatch := flag.Int("max-batch", 256, "largest accepted /route/batch query count (negative disables the endpoint)")
	batchWorkers := flag.Int("batch-workers", 0, "worker pool per /route/batch request (0 = GOMAXPROCS)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this separate loopback address (e.g. 127.0.0.1:6060); empty disables")
	metricsOn := flag.Bool("metrics", true, "serve the Prometheus text exposition on GET /metrics")
	slowQueryMS := flag.Int("slow-query-ms", 0, "log a structured slow_query line for route requests over this latency (0 disables)")
	spanSample := flag.Int("span-sample", 0, "record a span tree for 1 in N requests on GET /debug/traces (0 disables span tracing; sampled traceparent headers always trace)")
	traceStore := flag.Int("trace-store", 256, "completed traces retained for /debug/traces (plus a slow/error annex)")
	replicaID := flag.String("replica-id", "", "fleet identity: stamp every response with this X-Replica header and report it in /healthz, so cmd/gateway can attribute and verify this replica (empty = standalone)")
	flag.Parse()

	if *pprofAddr != "" {
		startPprof(*pprofAddr)
	}

	var (
		eng       *stochroute.Engine
		seedTrajs []traj.Trajectory
		err       error
	)
	if *synthetic {
		cfg := stochroute.DefaultConfig()
		cfg.Network.Rows, cfg.Network.Cols = *rows, *cols
		cfg.Walk.NumTrajectories = *trajs
		cfg.Walk.Slices = *slices
		cfg.Hybrid.Slices = *slices
		if *slices > 1 && *peak >= 0 {
			priors, perr := traj.PeakedSlicePriors(cfg.World.ModePrior, *slices, *peak, *peakShift)
			if perr != nil {
				log.Fatal(perr)
			}
			cfg.World.SlicePriors = priors
		}
		log.Printf("building synthetic %dx%d engine with %d time slice(s) (this trains %d model(s); use artifact flags in production)",
			*rows, *cols, traj.NumSlices(*slices), traj.NumSlices(*slices))
		eng, err = stochroute.BuildEngine(cfg, os.Stderr)
	} else {
		eng, seedTrajs, err = stochroute.OpenEngine(*netPath, *trajPath, *modelPath)
	}
	if err != nil {
		log.Fatal(err)
	}
	g := eng.Graph()
	log.Printf("engine ready: %d vertices, %d edges (model epoch %d, %d time slice(s))",
		g.NumVertices(), g.NumEdges(), eng.ModelEpoch(), eng.NumSlices())

	if *landmarks > 0 {
		t0 := time.Now()
		if err := eng.SetLandmarks(*landmarks); err != nil {
			log.Fatal(err)
		}
		log.Printf("alt: %d landmark tables built in %v; swaps rebuild them before publishing", eng.Landmarks(), time.Since(t0).Round(time.Millisecond))
	}

	// One registry spans all three layers: the engine's per-slice search
	// telemetry, the ingestor's drift/swap series and the server's
	// request metrics land in a single /metrics exposition.
	reg := obs.NewRegistry()
	eng.SetSearchMetrics(obs.NewSearchMetrics(reg, eng.NumSlices()))

	// One tracer spans the read and write paths too: request span trees
	// and background rebuild traces land in the same store, so
	// /debug/traces shows both sides of a hot swap.
	var tracer *obs.Tracer
	if *spanSample > 0 {
		tracer = obs.NewTracer(
			obs.NewSpanStore(*traceStore, time.Duration(*slowQueryMS)*time.Millisecond),
			*spanSample)
	}

	var ing *ingest.Ingestor
	if *ingestOn {
		// A rebuild trains the way the serving set was trained: on the
		// recipe it carries (the synthetic build's config, or the one
		// the model file records).
		recipe, err := eng.ModelSet().Recipe()
		if err != nil {
			log.Fatal(err)
		}
		ing = ingest.New(eng, ingest.Config{
			Hybrid: recipe,
			Drift: ingest.DriftConfig{
				Window:        *driftWindow,
				EdgeThreshold: *driftThreshold,
				DriftedFrac:   *driftFrac,
				RebuildEvery:  *rebuildEvery,
			},
			MaxTrajectories: *maxTrajectories,
			Metrics:         reg,
			Tracer:          tracer,
		}, os.Stderr)
		if len(seedTrajs) > 0 {
			accepted, rejected := ing.Seed(seedTrajs)
			log.Printf("ingest: seeded aggregate with %d baseline trajectories (%d rejected)", accepted, rejected)
		}
		log.Print("ingest: POST /ingest enabled (stream trajectories with cmd/replay)")
	}

	srv := server.New(eng, server.Config{
		RequestTimeout:      *timeout,
		RouteCache:          *routeCache,
		BudgetBucketSeconds: *bucket,
		MaxBatch:            *maxBatch,
		BatchWorkers:        *batchWorkers,
		Ingestor:            ing,
		MaxIngestBytes:      *maxIngestBytes,
		Metrics:             reg,
		DisableMetrics:      !*metricsOn,
		SlowQueryThreshold:  time.Duration(*slowQueryMS) * time.Millisecond,
		TraceLogger:         slog.New(slog.NewJSONHandler(os.Stderr, nil)),
		Tracer:              tracer,
		ReplicaID:           *replicaID,
	})
	if *replicaID != "" {
		log.Printf("fleet: serving as replica %q (X-Replica stamped, /healthz reports identity)", *replicaID)
	}
	if *metricsOn {
		log.Print("metrics: GET /metrics enabled (Prometheus text exposition)")
	}
	if *slowQueryMS > 0 {
		log.Printf("slow queries: route requests of %dms or more log a structured slow_query line on stderr", *slowQueryMS)
	}
	if tracer.Enabled() {
		log.Printf("spans: GET /debug/traces enabled (sampling 1/%d requests, retaining %d traces)",
			*spanSample, *traceStore)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Printf("listening on %s", *addr)
	if err := srv.Serve(ctx, *addr); err != nil {
		log.Fatal(err)
	}
	log.Print("shut down cleanly")
}

// startPprof exposes net/http/pprof on its own listener, kept apart
// from the public API mux so profiling is never reachable through the
// serving address. The operator points it at loopback
// (127.0.0.1:6060); binding a non-loopback address draws a warning,
// since profiles can leak heap contents. Profiling is how the
// allocation-free kernel's wins stay measurable in production:
//
//	go tool pprof http://127.0.0.1:6060/debug/pprof/allocs
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=30
func startPprof(addr string) {
	if host, _, err := net.SplitHostPort(addr); err != nil {
		log.Fatalf("pprof: invalid address %q: %v", addr, err)
	} else if ip := net.ParseIP(host); host != "localhost" && (ip == nil || !ip.IsLoopback()) {
		log.Printf("WARNING: pprof listening on non-loopback %s; profiles expose process internals", addr)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("pprof: %v", err)
	}
	log.Printf("pprof listening on http://%s/debug/pprof/", ln.Addr())
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			log.Printf("pprof server: %v", err)
		}
	}()
}
