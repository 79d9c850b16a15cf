// Command loadgen replays a routing workload against a running serve
// instance and reports throughput and latency percentiles — the
// serving-path measurement tool.
//
// Queries are drawn from the server's own workload generator
// (/sample), so loadgen needs no local copy of the network; each
// query's budget is the budget_s /sample answers with it, the 0.8
// quantile of the mean-cost route's travel time under the
// independence model — the paper's query protocol.
//
// Usage:
//
//	loadgen -addr http://localhost:8080 -n 2000 -c 16 \
//	        -queries 64 -lo-km 0.5 -hi-km 2
//
// With -batch k > 0 each request POSTs k randomly drawn queries to
// /route/batch instead of issuing single GET /route calls; n then
// counts batch requests, throughput is reported in both requests/s and
// queries/s, and the hit rate is per item.
//
// With -departs "t0,t1,..." (seconds since midnight) loadgen runs a
// departure sweep: requests cycle round-robin over the listed
// departures, every request carries its depart parameter, and the
// report breaks latency (p50/p99) and cache hit rate down per
// departure — the per-time-of-day-slice view of a temporally sliced
// server. Works in both single and batch mode (a batch shares one
// departure).
//
// When the server exposes /metrics, loadgen scrapes it before and
// after the run and reports the server-observed route latency
// quantiles of exactly this run (the route_latency_seconds histogram
// delta) next to the client-observed ones — the gap between the two is
// network and HTTP overhead. Every request also carries a unique
// X-Request-ID (loadgen-<i>), so a slow request in the client report
// joins to the server's slow-query log line exactly.
//
// The scrape target is -addr by default, which assumes the address
// being load-tested is the one carrying the route_latency_seconds
// histogram — true for a single serve instance, false behind
// cmd/gateway (the gateway's exposition has per-replica dispatch
// series, not the replicas' route histograms). Use -scrape-url to
// point the scrape elsewhere, e.g. at one replica:
//
//	loadgen -addr http://gateway:8080 -scrape-url http://replica1:8081
//
// When responses carry replica attribution (the X-Replica header a
// serve -replica-id instance stamps and cmd/gateway relays, or the
// per-item "replica" field in gateway batch answers), the report adds
// a per-replica split of where the requests landed — the consistent-
// hash balance over this run's key set.
//
// With -expand every request (single or batch item) asks for
// time-expanded routing (time_expanded=true): the server re-selects
// the slice model per edge from departure + accumulated mean cost.
// Time-expanded answers are never served from the route cache, so this
// mode measures raw search throughput; combine with -departs to sweep
// boundary-crossing departures.
//
// Every request carries a W3C traceparent header minted by loadgen, so
// when the server samples a request its span tree joins this client's
// trace ID. With -traces N loadgen additionally FORCES tracing of 1 in
// N requests (sampled flag set) and, after the run, fetches
// /debug/traces and prints the slowest span trees plus an aggregate
// per-phase time breakdown — where the tail latency actually went,
// phase by phase, next to the latency quantiles above it. Requires the
// server to run with -span-sample > 0. -addr may be a gateway: the
// gateway and its replicas serve the same /debug/traces shape
// (internal/httpsvc), the gateway's trees show the proxy hop with the
// replica it dispatched to, and a replica's tree for the same request
// carries the same trace_id — fetch it from that replica's
// /debug/traces?trace_id=... for the search phases.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"stochroute/internal/httpsvc"
	"stochroute/internal/obs"
	"stochroute/internal/par"
	"stochroute/internal/rng"
)

type sampleQuery struct {
	Source  int     `json:"source"`
	Dest    int     `json:"dest"`
	BudgetS float64 `json:"budget_s"`
}

type sampleResponse struct {
	Queries []sampleQuery `json:"queries"`
}

// outcome is one request's measurement. In batch mode a request
// carries several queries; items/itemHits count them. departIdx
// indexes the -departs sweep entry the request used (-1 = no sweep).
type outcome struct {
	latency   time.Duration
	hit       bool
	items     int
	itemHits  int
	departIdx int
	// replicas counts this request's items by answering replica
	// (X-Replica header, or the per-item attribution in gateway batch
	// answers); empty when the backend reports no identity.
	replicas map[string]int
	err      error
}

// parseDeparts parses the -departs sweep list.
func parseDeparts(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("departure %q: want a non-negative number of seconds", p)
		}
		out[i] = v
	}
	return out, nil
}

func firstError(results []outcome) error {
	for _, r := range results {
		if r.err != nil {
			return r.err
		}
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	if err := run(os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run replays the workload the arguments describe and prints the report.
func run(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	addr := fs.String("addr", "http://localhost:8080", "server base URL")
	scrapeURL := fs.String("scrape-url", "", "base URL for the before/after /metrics scrape (default -addr); behind cmd/gateway point this at one replica, whose exposition carries route_latency_seconds")
	n := fs.Int("n", 1000, "total requests to send")
	c := fs.Int("c", 16, "concurrent workers")
	numQueries := fs.Int("queries", 64, "distinct queries to sample (reuse drives cache hits)")
	loKm := fs.Float64("lo-km", 0.5, "minimum query distance, km")
	hiKm := fs.Float64("hi-km", 2.0, "maximum query distance, km")
	anytimeMS := fs.Int("anytime-ms", 0, "use /route/anytime with this wall-clock limit (0 = full /route)")
	batch := fs.Int("batch", 0, "POST this many queries per request to /route/batch (0 = single GET /route calls)")
	departsFlag := fs.String("departs", "", "comma-separated departure sweep (seconds since midnight); reports per-departure p50/p99 and hit rate")
	expand := fs.Bool("expand", false, "request time-expanded routing (per-edge slice selection; bypasses the route cache)")
	traces := fs.Int("traces", 0, "force-trace 1 in N requests (sampled traceparent) and print the slowest span trees from /debug/traces after the run (0 disables); against a gateway the trees show the proxy hop, and each replica's tree for the same request shares its trace_id")
	seed := fs.Int64("seed", 1, "workload seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n <= 0 || *c <= 0 || *numQueries <= 0 {
		return errors.New("-n, -c and -queries must be positive")
	}
	if *batch > 0 && *anytimeMS > 0 {
		return errors.New("-batch and -anytime-ms are mutually exclusive")
	}
	departs, err := parseDeparts(*departsFlag)
	if err != nil {
		return fmt.Errorf("-departs: %w", err)
	}

	// One query list per departure: a query's budget_s is its deadline
	// at that departure, so a request departing at d draws from d's list.
	client := &http.Client{Timeout: 60 * time.Second}
	queries, err := fetchQueries(client, *addr, *numQueries, *loKm, *hiKm, *seed, departs)
	if err != nil {
		return err
	}
	if *batch > 0 {
		log.Printf("replaying %d batch requests x %d queries over %d distinct queries with %d workers",
			*n, *batch, len(queries[0]), *c)
	} else {
		log.Printf("replaying %d requests over %d distinct queries with %d workers", *n, len(queries[0]), *c)
	}

	// Scrape the server's own latency histogram around the run: the
	// delta isolates exactly this run's requests, so the report can put
	// server-observed quantiles (handler wall clock, no network) next to
	// the client-observed ones. A failed scrape (e.g. -metrics=false)
	// just drops that section.
	scrapeBase := *scrapeURL
	if scrapeBase == "" {
		scrapeBase = *addr
	}
	before, scrapeErr := scrapeMetrics(client, scrapeBase)

	// Request i draws its queries from its own stream, so what is sent
	// does not depend on which worker sends it.
	results := make([]outcome, *n)
	start := time.Now()
	_ = par.For(*n, *c, func(i int) error {
		src := rng.New(uint64(*seed + int64(i)))
		// Departure sweep: requests cycle round-robin over the
		// listed departures so every slice sees equal load.
		departIdx := -1
		depart := 0.0
		pool := queries[0]
		if len(departs) > 0 {
			departIdx = i % len(departs)
			depart, pool = departs[departIdx], queries[departIdx]
		}
		// Every request carries a unique X-Request-ID, echoed by
		// the server and stamped on its slow-query log lines, so a
		// slow request seen here joins to the server's trace. It
		// also carries a client-minted traceparent; the sampled
		// flag on 1 in -traces requests forces a server span tree.
		rid := fmt.Sprintf("loadgen-%d", i)
		sampled := *traces > 0 && i%*traces == 0
		tp := obs.FormatTraceparent(obs.NewTraceID(), fmt.Sprintf("%016x", uint64(i)+1), sampled)
		if *batch > 0 {
			t0 := time.Now()
			items, itemHits, reps, err := fireBatch(client, *addr, pool, src, *batch, depart, *expand, rid, tp)
			results[i] = outcome{latency: time.Since(t0), items: items, itemHits: itemHits, departIdx: departIdx, replicas: reps, err: err}
			return nil
		}
		q := pool[src.Intn(len(pool))]
		url := fmt.Sprintf("%s/route?source=%d&dest=%d&budget=%.3f", *addr, q.Source, q.Dest, q.BudgetS)
		if *anytimeMS > 0 {
			url = fmt.Sprintf("%s/route/anytime?source=%d&dest=%d&budget=%.3f&limit_ms=%d",
				*addr, q.Source, q.Dest, q.BudgetS, *anytimeMS)
		}
		if departIdx >= 0 {
			url += fmt.Sprintf("&depart=%.0f", depart)
		}
		if *expand {
			url += "&time_expanded=true"
		}
		t0 := time.Now()
		hit, replica, err := fire(client, url, rid, tp)
		var reps map[string]int
		if replica != "" {
			reps = map[string]int{replica: 1}
		}
		results[i] = outcome{latency: time.Since(t0), hit: hit, items: 1, departIdx: departIdx, replicas: reps, err: err}
		return nil
	})
	elapsed := time.Since(start)

	var latencies []time.Duration
	hits, itemHits, items, errs := 0, 0, 0, 0
	for _, r := range results {
		if r.err != nil {
			errs++
			continue
		}
		latencies = append(latencies, r.latency)
		items += r.items
		itemHits += r.itemHits
		if r.hit {
			hits++
		}
	}
	if len(latencies) == 0 {
		return fmt.Errorf("all %d requests failed; first error: %w", errs, firstError(results))
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })

	ok := len(latencies)
	fmt.Printf("requests     %d ok, %d failed in %v\n", ok, errs, elapsed.Round(time.Millisecond))
	if *batch > 0 {
		fmt.Printf("throughput   %.1f req/s, %.1f queries/s\n",
			float64(ok)/elapsed.Seconds(), float64(items)/elapsed.Seconds())
		fmt.Printf("cache hits   %d of %d queries (%.1f%%)\n",
			itemHits, items, 100*float64(itemHits)/float64(items))
	} else {
		fmt.Printf("throughput   %.1f req/s\n", float64(ok)/elapsed.Seconds())
		fmt.Printf("cache hits   %d (%.1f%%)\n", hits, 100*float64(hits)/float64(ok))
	}
	fmt.Printf("latency      p50=%v p90=%v p99=%v max=%v\n",
		percentile(latencies, 0.50).Round(time.Microsecond),
		percentile(latencies, 0.90).Round(time.Microsecond),
		percentile(latencies, 0.99).Round(time.Microsecond),
		latencies[ok-1].Round(time.Microsecond))
	reportReplicaSplit(results)
	reportServerLatency(client, scrapeBase, before, scrapeErr)
	if len(departs) > 0 {
		reportDepartSweep(departs, results)
	}
	if *traces > 0 {
		reportTraces(client, *addr)
	}
	if errs > 0 {
		log.Printf("first error: %v", firstError(results))
	}
	return nil
}

// reportTraces fetches the span trees the server recorded for this run
// and prints (a) an aggregate per-phase breakdown — total and mean time
// per span name across every retained trace, the "where does a request
// spend its time" table — and (b) the slowest individual trees as
// waterfalls. Requires serve (or gateway) -span-sample; a 404 just
// notes that.
func reportTraces(client *http.Client, addr string) {
	resp, err := client.Get(addr + "/debug/traces?n=256")
	if err != nil {
		log.Printf("span trees unavailable (/debug/traces: %v)", err)
		return
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Printf("span trees unavailable (/debug/traces: %v)", err)
		return
	}
	if resp.StatusCode != http.StatusOK {
		log.Printf("span trees unavailable (/debug/traces: %s; run serve / gateway with -span-sample > 0)", resp.Status)
		return
	}
	var tr httpsvc.TracesResponse
	if err := json.Unmarshal(payload, &tr); err != nil {
		log.Printf("span trees unavailable (/debug/traces: %v)", err)
		return
	}
	if len(tr.Traces) == 0 {
		log.Print("span trees unavailable (server retained no traces)")
		return
	}

	// Phase breakdown: flatten every tree, accumulate per span name.
	type phase struct {
		count int
		total float64
	}
	phases := map[string]*phase{}
	var walk func(s *httpsvc.TraceSpan)
	walk = func(s *httpsvc.TraceSpan) {
		if s == nil {
			return
		}
		p := phases[s.Name]
		if p == nil {
			p = &phase{}
			phases[s.Name] = p
		}
		p.count++
		p.total += s.DurationMS
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, t := range tr.Traces {
		walk(t.Root)
	}
	names := make([]string, 0, len(phases))
	for n := range phases {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return phases[names[i]].total > phases[names[j]].total })
	fmt.Printf("phase breakdown over %d sampled traces:\n", len(tr.Traces))
	for _, n := range names {
		p := phases[n]
		fmt.Printf("  %-14s %6d spans  total %9.3fms  mean %8.3fms\n",
			n, p.count, p.total, p.total/float64(p.count))
	}
	// The potentials phase is the per-query preprocessing ALT landmark
	// tables amortise away (serve -landmarks); its share of search time
	// is the headroom that switch would reclaim.
	if pot, ok := phases["potentials"]; ok {
		if search, ok := phases["search"]; ok && search.total > 0 {
			fmt.Printf("  potentials phase: %.1f%% of search time (serve -landmarks trades it for precomputed ALT tables)\n",
				100*pot.total/search.total)
		}
	}

	sort.Slice(tr.Traces, func(i, j int) bool { return tr.Traces[i].DurationMS > tr.Traces[j].DurationMS })
	top := 3
	if len(tr.Traces) < top {
		top = len(tr.Traces)
	}
	fmt.Printf("slowest traces:\n")
	for _, t := range tr.Traces[:top] {
		fmt.Printf("  %s %.3fms (request %s, trace %s)\n",
			t.Endpoint, t.DurationMS, t.RequestID, t.TraceID)
		printSpanTree(t.Root, "    ")
	}
}

// printSpanTree renders one span subtree as an indented waterfall.
func printSpanTree(s *httpsvc.TraceSpan, indent string) {
	if s == nil {
		return
	}
	line := fmt.Sprintf("%s%-14s +%.3fms %.3fms", indent, s.Name, s.StartMS, s.DurationMS)
	if rep, ok := s.Attrs["replica"]; ok { // a gateway proxy hop
		line += fmt.Sprintf(" replica=%v", rep)
	}
	if s.Error != "" {
		line += " ERROR: " + s.Error
	}
	fmt.Println(line)
	for _, c := range s.Children {
		printSpanTree(c, indent+"  ")
	}
}

// reportReplicaSplit prints where this run's queries landed, by
// replica identity, when the backend attributed its answers — the
// observed consistent-hash balance behind cmd/gateway, or a single
// line for a lone serve -replica-id instance. Silent when no response
// carried an identity.
func reportReplicaSplit(results []outcome) {
	split := map[string]int{}
	total := 0
	for _, r := range results {
		if r.err != nil {
			continue
		}
		for id, n := range r.replicas {
			split[id] += n
			total += n
		}
	}
	if total == 0 {
		return
	}
	ids := make([]string, 0, len(split))
	for id := range split {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf("%s=%d (%.1f%%)", id, split[id], 100*float64(split[id])/float64(total))
	}
	fmt.Printf("replica split %s over %d attributed queries\n", strings.Join(parts, ", "), total)
}

// reportDepartSweep prints the per-departure breakdown: p50/p99
// latency and cache hit rate per swept departure — one line per
// time-of-day slice the server partitions the day into.
func reportDepartSweep(departs []float64, results []outcome) {
	fmt.Printf("departure sweep:\n")
	for d, depart := range departs {
		var lat []time.Duration
		items, hits := 0, 0
		for _, r := range results {
			if r.err != nil || r.departIdx != d {
				continue
			}
			lat = append(lat, r.latency)
			items += r.items
			hits += r.itemHits
			if r.hit {
				hits++
			}
		}
		if len(lat) == 0 {
			fmt.Printf("  depart %6.0fs: no successful requests\n", depart)
			continue
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		fmt.Printf("  depart %6.0fs: %5d req  p50=%v p99=%v  hits %d/%d (%.1f%%)\n",
			depart, len(lat),
			percentile(lat, 0.50).Round(time.Microsecond),
			percentile(lat, 0.99).Round(time.Microsecond),
			hits, items, 100*float64(hits)/float64(items))
	}
}

// scrapeMetrics fetches and parses one /metrics exposition.
func scrapeMetrics(client *http.Client, addr string) ([]obs.Sample, error) {
	resp, err := client.Get(addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	return obs.ParseText(resp.Body)
}

// reportServerLatency scrapes /metrics again and prints the
// server-observed route latency quantiles of exactly this run (the
// route_latency_seconds delta across the two scrapes), beside the
// client-observed numbers above it. The gap between the two is
// network + HTTP overhead; a large gap with healthy server quantiles
// points the investigation away from the routing kernel.
func reportServerLatency(client *http.Client, addr string, before []obs.Sample, scrapeErr error) {
	if scrapeErr != nil {
		log.Printf("server-side latency unavailable (pre-run scrape: %v)", scrapeErr)
		return
	}
	after, err := scrapeMetrics(client, addr)
	if err != nil {
		log.Printf("server-side latency unavailable (post-run scrape: %v)", err)
		return
	}
	bounds, cum, total := obs.HistogramDelta(before, after, "route_latency_seconds")
	if total == 0 {
		log.Print("server-side latency unavailable (no route_latency_seconds movement)")
		return
	}
	toDur := func(q float64) time.Duration {
		return time.Duration(obs.Quantile(bounds, cum, q) * float64(time.Second))
	}
	fmt.Printf("server-side  p50=%v p90=%v p99=%v over %d route requests (/metrics delta)\n",
		toDur(0.50).Round(time.Microsecond),
		toDur(0.90).Round(time.Microsecond),
		toDur(0.99).Round(time.Microsecond),
		total)
}

// batchQuery is one item of a /route/batch request body, mirroring the
// server's schema.
type batchQuery struct {
	Source       int     `json:"source"`
	Dest         int     `json:"dest"`
	Budget       float64 `json:"budget_s"`
	Depart       float64 `json:"depart_s,omitempty"`
	TimeExpanded bool    `json:"time_expanded,omitempty"`
}

// fireBatch POSTs k randomly drawn queries to /route/batch (all
// departing at depart, time-expanded when expand is set) and reports
// the item count, per-item cache hits and the per-replica attribution
// of the items (gateway answers carry it; a plain serve instance's
// items have none).
func fireBatch(client *http.Client, addr string, queries []sampleQuery, src *rng.RNG, k int, depart float64, expand bool, rid, tp string) (items, itemHits int, replicas map[string]int, err error) {
	req := struct {
		Queries []batchQuery `json:"queries"`
	}{Queries: make([]batchQuery, k)}
	for i := range req.Queries {
		q := queries[src.Intn(len(queries))]
		req.Queries[i] = batchQuery{Source: q.Source, Dest: q.Dest, Budget: q.BudgetS, Depart: depart, TimeExpanded: expand}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return 0, 0, nil, err
	}
	httpReq, err := http.NewRequest(http.MethodPost, addr+"/route/batch", bytes.NewReader(body))
	if err != nil {
		return 0, 0, nil, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	httpReq.Header.Set("X-Request-ID", rid)
	httpReq.Header.Set("traceparent", tp)
	resp, err := client.Do(httpReq)
	if err != nil {
		return 0, 0, nil, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, 0, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, 0, nil, fmt.Errorf("/route/batch: %s: %s", resp.Status, payload)
	}
	var br struct {
		Results []struct {
			Replica string `json:"replica"`
		} `json:"results"`
		CacheHits int `json:"cache_hits"`
	}
	if err := json.Unmarshal(payload, &br); err != nil {
		return 0, 0, nil, fmt.Errorf("/route/batch: %w", err)
	}
	for _, r := range br.Results {
		if r.Replica == "" {
			continue
		}
		if replicas == nil {
			replicas = make(map[string]int)
		}
		replicas[r.Replica]++
	}
	return len(br.Results), br.CacheHits, replicas, nil
}

// fetchQueries asks /sample for n queries once per departure (0 when
// there is no sweep), so each list carries that departure's budget_s.
func fetchQueries(client *http.Client, addr string, n int, loKm, hiKm float64, seed int64, departs []float64) ([][]sampleQuery, error) {
	if len(departs) == 0 {
		departs = []float64{0}
	}
	lists := make([][]sampleQuery, len(departs))
	for i, d := range departs {
		resp, err := client.Get(fmt.Sprintf("%s/sample?n=%d&lo_km=%g&hi_km=%g&seed=%d&depart=%g", addr, n, loKm, hiKm, seed, d))
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("sample: %s: %s", resp.Status, body)
		}
		var sr sampleResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			return nil, fmt.Errorf("sample: %w", err)
		}
		if len(sr.Queries) == 0 {
			return nil, errors.New("server returned no usable queries")
		}
		lists[i] = sr.Queries
	}
	return lists, nil
}

// fire issues one request, fully draining the body so connections are
// reused, and reports whether the answer came from the server cache
// and which replica answered (empty without fleet identity).
func fire(client *http.Client, url, rid, tp string) (hit bool, replica string, err error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return false, "", err
	}
	req.Header.Set("X-Request-ID", rid)
	req.Header.Set("traceparent", tp)
	resp, err := client.Do(req)
	if err != nil {
		return false, "", err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return false, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return false, "", fmt.Errorf("%s: %s", url, resp.Status)
	}
	return resp.Header.Get("X-Cache") == "hit", resp.Header.Get("X-Replica"), nil
}

func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
