package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"

	"stochroute"
	"stochroute/internal/graph"
	"stochroute/internal/hist"
	"stochroute/internal/netgen"
	"stochroute/internal/rng"
	"stochroute/internal/routing"
	"stochroute/internal/traj"
)

// budgetFactor scales a query's optimistic travel time into its budget:
// tight enough that the search has to weigh risky against reliable
// routes, loose enough that every sampled query is answerable.
const budgetFactor = 1.25

// klSmoothing is the additive smoothing of the KL evaluation, the value
// cmd/experiments uses.
const klSmoothing = 1e-6

// fixedPoolSeed seeds the candidate pools of the search workloads. The
// pool is part of the fixture; the run's -seed decides which members are
// sent and in what order.
const fixedPoolSeed = 20200420

// query is one routing question, in the terms every layer understands.
type query struct {
	src, dst graph.VertexID
	budget   float64
	depart   float64
	expanded bool
}

func (q query) options() routing.Options {
	return routing.Options{Budget: q.budget, Departure: q.depart, TimeExpanded: q.expanded}
}

// refAnswer is what the engine itself answers for a query, asked
// directly with no HTTP in between: the reference every gateway answer
// of the same model epoch must equal bit for bit.
type refAnswer struct {
	digest   uint64
	dist     *hist.Hist
	path     []graph.EdgeID
	counters [3]int // expansions, convolved, estimated
}

// request is one HTTP exchange of a block.
type request struct {
	post   bool
	target string // path and query string
	body   []byte
	items  []int // indices into plan.queries, one per answer expected
}

// plan is a workload's generated input: the distinct queries, their
// reference answers, and the request list every block replays.
type plan struct {
	queries  []query
	refs     []refAnswer
	requests []request
	perBlock int // queries answered per block
	// kl is the mean divergence of the reference answers' distributions
	// from the world's oracle, over the whole candidate pool so that it
	// does not depend on which members the seed picked.
	kl float64
	// ingestBodies are the pre-encoded /ingest rounds and driftSample the
	// first round's trajectories (ingest_swap only).
	ingestBodies [][]byte
	driftSample  []traj.Trajectory
}

// warmup is the request list that touches every distinct query once:
// the batches themselves, or one GET per query (the hit workload's block
// repeats its keys thousands of times).
func (p *plan) warmup() []request {
	if p.requests[0].post {
		return p.requests
	}
	out := make([]request, len(p.queries))
	for qi, q := range p.queries {
		out[qi] = request{target: routeTarget(q), items: []int{qi}}
	}
	return out
}

type workloadDef struct {
	name    string
	fixture func(*scale) *fixtureSpec
	fleet   func(*scale) fleetOptions
	clients int
	plan    func(sc *scale, fx *fixture, seed uint64) (*plan, error)
}

func workloads() []*workloadDef {
	city := func(sc *scale) *fixtureSpec { return &sc.city }
	metro := func(sc *scale) *fixtureSpec { return &sc.metro }
	return []*workloadDef{
		{
			name:    "city_search",
			fixture: city,
			fleet:   func(*scale) fleetOptions { return fleetOptions{replicas: 2, routeCache: -1} },
			clients: 2,
			plan:    planSearch,
		},
		{
			name:    "city_hot",
			fixture: city,
			fleet:   func(*scale) fleetOptions { return fleetOptions{replicas: 2} },
			clients: 2,
			plan:    planHot,
		},
		{
			name:    "metro_expanded_batch",
			fixture: metro,
			fleet:   func(*scale) fleetOptions { return fleetOptions{replicas: 1, routeCache: -1} },
			clients: 1,
			plan:    planMetroBatch,
		},
		{
			name:    "ingest_swap",
			fixture: city,
			fleet: func(sc *scale) fleetOptions {
				return fleetOptions{replicas: 1, routeCache: -1, ingestBatch: sc.ingestBatch}
			},
			clients: 1,
			plan:    planIngestSwap,
		},
	}
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// sampleQueries draws n candidate queries in a distance band and prices
// their budgets off the engine's optimistic travel time.
func sampleQueries(fx *fixture, loKm, hiKm float64, n int, seed uint64, depart float64, expanded bool) ([]query, error) {
	gen := netgen.NewWorkloadGen(fx.g, seed)
	sampled, err := gen.SampleCategory(netgen.DistanceCategory{LoKm: loKm, HiKm: hiKm}, n)
	if err != nil {
		return nil, err
	}
	seen := make(map[[2]graph.VertexID]bool, n)
	out := make([]query, 0, n)
	for _, s := range sampled {
		key := [2]graph.VertexID{s.Source, s.Dest}
		if seen[key] {
			continue
		}
		seen[key] = true
		opt, err := fx.eng.OptimisticTime(s.Source, s.Dest)
		if err != nil {
			continue
		}
		out = append(out, query{src: s.Source, dst: s.Dest, budget: budgetFactor * opt, depart: depart, expanded: expanded})
	}
	return out, nil
}

// reference answers the queries on the engine directly (both cores) and
// keeps the ones answered to proven optimality — the workloads contain
// no query that can fail.
func reference(eng *stochroute.Engine, qs []query) ([]query, []refAnswer) {
	bq := make([]routing.BatchQuery, len(qs))
	for i, q := range qs {
		bq[i] = routing.BatchQuery{Source: q.src, Dest: q.dst, Opts: q.options()}
	}
	items := eng.RouteBatch(context.Background(), bq, 0)
	keptQ := qs[:0:0]
	var keptR []refAnswer
	for i, it := range items {
		if it.Err != nil || !it.Result.Found || !it.Result.Complete {
			continue
		}
		r := it.Result
		keptQ = append(keptQ, qs[i])
		keptR = append(keptR, refAnswer{
			digest:   answerDigest(r.Path, r.Prob, r.Dist.Mean()),
			dist:     r.Dist,
			path:     r.Path,
			counters: [3]int{r.Expansions, r.NumConvolved, r.NumEstimated},
		})
	}
	return keptQ, keptR
}

// meanKL is the answer-quality metric, the paper's: the divergence of the
// travel-time distribution the hybrid model attaches to a path from the
// world's exact one, averaged over the paths the engine chose. The
// model's untruncated path distribution is used — a search's own result
// distribution is cut off above its budget horizon, which KL would read
// as the model being wrong about the tail.
func meanKL(fx *fixture, qs []query, refs []refAnswer) (float64, error) {
	sum := 0.0
	for i, r := range refs {
		var truth, model *hist.Hist
		var err error
		if qs[i].expanded {
			if truth, _, err = fx.world.PathTruthExpanded(qs[i].depart, r.path); err == nil {
				model, _, err = fx.eng.PathDistributionExpanded(qs[i].depart, r.path)
			}
		} else {
			if truth, err = fx.world.PathTruthAt(r.path, fx.eng.SliceOf(qs[i].depart)); err == nil {
				model, err = fx.eng.PathDistributionAt(qs[i].depart, r.path)
			}
		}
		if err != nil {
			return 0, err
		}
		kl, err := hist.KL(truth, model, klSmoothing)
		if err != nil {
			return 0, err
		}
		sum += kl
	}
	return sum / float64(len(refs)), nil
}

// pickStratified chooses n of 2n candidates so that every seed sends
// different queries of the same total cost: candidates are ranked by
// the number of cost-model extensions their search performs (a count,
// exact for a given build), adjacent ranks are paired, and the seed
// picks one of each pair. Query cost here is heavy-tailed — a plain
// random sample of this size moves throughput by ±15% from seed to seed,
// which would drown every change the benchmark is meant to show.
//
// The picks come back cheapest first.
func pickStratified(refs []refAnswer, n int, r *rng.RNG) ([]int, error) {
	if len(refs) < 2*n {
		return nil, fmt.Errorf("candidate pool has %d answerable queries, need %d", len(refs), 2*n)
	}
	order := make([]int, len(refs))
	for i := range order {
		order[i] = i
	}
	cost := func(i int) int { return refs[i].counters[1] + refs[i].counters[2] }
	sort.SliceStable(order, func(a, b int) bool { return cost(order[a]) < cost(order[b]) })
	// A pool with spare members keeps its pairs spread over the whole
	// cost range.
	picked := make([]int, 0, n)
	for k := 0; k < n; k++ {
		lo := 2 * k * len(order) / (2 * n)
		pair := [2]int{order[lo], order[lo+1]}
		picked = append(picked, pair[r.Intn(2)])
	}
	return picked, nil
}

func routeTarget(q query) string {
	return "/route?source=" + strconv.Itoa(int(q.src)) + "&dest=" + strconv.Itoa(int(q.dst)) +
		"&budget=" + strconv.FormatFloat(q.budget, 'f', -1, 64)
}

// searchPlan is the shared body of the search workloads: a fixed
// candidate pool and a cost-stratified, seed-dependent pick of n of its
// members, cheapest first. The caller turns them into requests.
func searchPlan(fx *fixture, pool []query, n int, seed uint64) (*plan, error) {
	pool, refs := reference(fx.eng, pool)
	picked, err := pickStratified(refs, n, rng.New(seed).Split("pick"))
	if err != nil {
		return nil, err
	}
	kl, err := meanKL(fx, pool, refs)
	if err != nil {
		return nil, err
	}
	p := &plan{kl: kl, perBlock: n}
	for _, i := range picked {
		p.queries = append(p.queries, pool[i])
		p.refs = append(p.refs, refs[i])
	}
	return p, nil
}

func planSearch(sc *scale, fx *fixture, seed uint64) (*plan, error) {
	pool, err := sampleQueries(fx, sc.searchLoKm, sc.searchHiKm, 2*sc.searchBlock+sc.searchBlock/4, fixedPoolSeed, 0, false)
	if err != nil {
		return nil, err
	}
	p, err := searchPlan(fx, pool, sc.searchBlock, seed)
	if err != nil {
		return nil, err
	}
	// Sent in seed-shuffled order: which queries the two clients have in
	// flight together is part of the input.
	for _, qi := range rng.New(seed).Split("order").Perm(len(p.queries)) {
		p.requests = append(p.requests, request{target: routeTarget(p.queries[qi]), items: []int{qi}})
	}
	return p, nil
}

// batchItemJSON is one query of a POST /route/batch body.
type batchItemJSON struct {
	Source       int     `json:"source"`
	Dest         int     `json:"dest"`
	Budget       float64 `json:"budget_s"`
	Depart       float64 `json:"depart_s"`
	TimeExpanded bool    `json:"time_expanded"`
}

func planMetroBatch(sc *scale, fx *fixture, seed uint64) (*plan, error) {
	// Trips leave two minutes before the off-peak -> peak boundary, so
	// the time-expanded search really does change cost model mid-trip.
	k := fx.eng.NumSlices()
	depart := traj.SliceStart(1%k, k) - 120
	if depart < 0 {
		depart += traj.DaySeconds
	}
	pool, err := sampleQueries(fx, sc.metroLoKm, sc.metroHiKm, 2*sc.metroItems+sc.metroItems/4, fixedPoolSeed, depart, true)
	if err != nil {
		return nil, err
	}
	p, err := searchPlan(fx, pool, sc.metroItems, seed)
	if err != nil {
		return nil, err
	}
	// Batches are dealt like cards from the cost-ranked picks, dearest
	// first: every batch gets the same cost profile, dearest item first,
	// so how well a batch packs onto the engine's workers — which decides
	// its latency — is the same whatever the seed picked.
	batches := (len(p.queries) + sc.batchSize - 1) / sc.batchSize
	for b := 0; b < batches; b++ {
		var body struct {
			Queries []batchItemJSON `json:"queries"`
		}
		var items []int
		for qi := len(p.queries) - 1 - b; qi >= 0; qi -= batches {
			q := p.queries[qi]
			items = append(items, qi)
			body.Queries = append(body.Queries, batchItemJSON{
				Source: int(q.src), Dest: int(q.dst), Budget: q.budget, Depart: q.depart, TimeExpanded: true,
			})
		}
		raw, err := json.Marshal(&body)
		if err != nil {
			return nil, err
		}
		p.requests = append(p.requests, request{post: true, target: "/route/batch", body: raw, items: items})
	}
	return p, nil
}

// planHot picks its keys from a fixed pool too, but plainly: a cache hit
// costs the same whichever key it is, so there is no heavy tail to
// stratify. The seed decides which half of the pool is hot, which key
// has which Zipf rank, and the request sequence.
func planHot(sc *scale, fx *fixture, seed uint64) (*plan, error) {
	pool, err := sampleQueries(fx, 0.3, sc.searchHiKm, 2*sc.hotKeys+sc.hotKeys/4, fixedPoolSeed, 0, false)
	if err != nil {
		return nil, err
	}
	pool, refs := reference(fx.eng, pool)
	if len(pool) < 2*sc.hotKeys {
		return nil, fmt.Errorf("only %d of %d hot-key candidates are answerable", len(pool), 2*sc.hotKeys)
	}
	kl, err := meanKL(fx, pool, refs)
	if err != nil {
		return nil, err
	}
	r := rng.New(seed)
	p := &plan{kl: kl, perBlock: sc.hotBlock}
	targets := make([]string, sc.hotKeys)
	for rank, i := range r.Split("keys").Perm(len(pool))[:sc.hotKeys] {
		p.queries = append(p.queries, pool[i])
		p.refs = append(p.refs, refs[i])
		targets[rank] = routeTarget(pool[i])
	}
	// Zipf(1.1) over the keys: rank k is drawn with weight k^-1.1.
	cum := make([]float64, sc.hotKeys)
	total := 0.0
	for k := range cum {
		total += math.Pow(float64(k+1), -1.1)
		cum[k] = total
	}
	zr := r.Split("zipf")
	for i := 0; i < sc.hotBlock; i++ {
		qi := min(sort.SearchFloat64s(cum, zr.Float64()*total), sc.hotKeys-1)
		p.requests = append(p.requests, request{target: targets[qi], items: []int{qi}})
	}
	return p, nil
}

// ingestTrajJSON is one trip of a POST /ingest body.
type ingestTrajJSON struct {
	Edges  []graph.EdgeID `json:"edges"`
	Times  []float64      `json:"times"`
	Depart float64        `json:"depart"`
}

func planIngestSwap(sc *scale, fx *fixture, seed uint64) (*plan, error) {
	p, err := planSearch(sc, fx, seed)
	if err != nil {
		return nil, err
	}
	// The drifted world: same graph, same dependence structure, every
	// congestion multiplier 30% up — what the retrains have to learn.
	wcfg := fx.spec.cfg.World
	wcfg.ModeFactors = scaled(wcfg.ModeFactors, 1.3)
	cat := make(map[graph.RoadCategory][]float64, len(wcfg.CategoryFactors))
	for c, f := range wcfg.CategoryFactors {
		cat[c] = scaled(f, 1.3)
	}
	wcfg.CategoryFactors = cat
	drifted, err := traj.NewWorld(fx.g, wcfg)
	if err != nil {
		return nil, err
	}
	walk := fx.spec.cfg.Walk
	walk.NumTrajectories = sc.ingestBatch * sc.ingestPool
	walk.NumRoutes = 300
	walk.Seed = rng.New(seed).Split("drift").Uint64()
	trajs, err := traj.GenerateTrajectories(drifted, walk)
	if err != nil {
		return nil, err
	}
	if len(trajs) != sc.ingestBatch*sc.ingestPool {
		return nil, errors.New("drift generator returned a short batch")
	}
	p.driftSample = trajs[:sc.ingestBatch]
	for b := 0; b < sc.ingestPool; b++ {
		var body struct {
			Trajectories []ingestTrajJSON `json:"trajectories"`
		}
		for _, t := range trajs[b*sc.ingestBatch : (b+1)*sc.ingestBatch] {
			body.Trajectories = append(body.Trajectories, ingestTrajJSON{Edges: t.Edges, Times: t.Times, Depart: t.Departure})
		}
		raw, err := json.Marshal(&body)
		if err != nil {
			return nil, err
		}
		p.ingestBodies = append(p.ingestBodies, raw)
	}
	return p, nil
}

func scaled(f []float64, by float64) []float64 {
	out := make([]float64, len(f))
	for i, x := range f {
		out[i] = x * by
	}
	return out
}

// answerDigest folds what a caller acts on — the path, the on-time
// probability and the mean of the distribution — into 64 bits (FNV-1a).
func answerDigest(path []graph.EdgeID, prob, mean float64) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mix(uint64(len(path)))
	for _, e := range path {
		mix(uint64(e))
	}
	mix(math.Float64bits(prob))
	mix(math.Float64bits(mean))
	return h
}
