// Command route answers a single Probabilistic Budget Routing query on a
// trained model: given a source, destination and time budget, it prints
// the path maximising the probability of on-time arrival, alongside the
// mean-cost baseline for contrast.
//
// Usage:
//
//	route -net net.srg -traj trips.srt -model model.srhm \
//	      -from 57.01,9.92 -to 57.05,9.97 -budget 600 -limit 2s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"stochroute"
	"stochroute/internal/geo"
	"stochroute/internal/routing"
)

// summariseSlices compresses a per-edge slice sequence into run-length
// form ("slice 2 x14 -> slice 3 x9") for display.
func summariseSlices(seq []int) string {
	var b strings.Builder
	for i := 0; i < len(seq); {
		j := i
		for j < len(seq) && seq[j] == seq[i] {
			j++
		}
		if b.Len() > 0 {
			b.WriteString(" -> ")
		}
		fmt.Fprintf(&b, "slice %d x%d", seq[i], j-i)
		i = j
	}
	return b.String()
}

func parseLatLon(s string) (geo.Point, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return geo.Point{}, fmt.Errorf("want lat,lon, got %q", s)
	}
	lat, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	if err != nil {
		return geo.Point{}, err
	}
	lon, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		return geo.Point{}, err
	}
	p := geo.Point{Lat: lat, Lon: lon}
	if !p.Valid() {
		return geo.Point{}, fmt.Errorf("invalid coordinate %v", p)
	}
	return p, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("route: ")
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run answers the query the arguments describe and prints the answer to
// stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("route", flag.ContinueOnError)
	netPath := fs.String("net", "net.srg", "network file (SRG1)")
	trajPath := fs.String("traj", "trips.srt", "trajectory file (SRT2), used to rebuild edge statistics")
	modelPath := fs.String("model", "model.srhm", "trained model file (SRH2)")
	from := fs.String("from", "", "source as lat,lon")
	to := fs.String("to", "", "destination as lat,lon")
	budget := fs.Float64("budget", 600, "time budget in seconds")
	depart := fs.Float64("depart", 0, "departure time in seconds since midnight (selects the time-of-day slice of a sliced model)")
	expand := fs.Bool("expand", false, "time-expanded routing: re-select the slice model per edge from departure + accumulated mean cost (long trips cross slice boundaries mid-search)")
	limit := fs.Duration("limit", 0, "anytime wall-clock limit (0 = run to optimality)")
	width := fs.Float64("width", 2, "histogram grid width in seconds")
	minObs := fs.Int("min-obs", 20, "minimum pair observations")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *from == "" || *to == "" {
		return errors.New("both -from and -to are required (lat,lon)")
	}
	src, err := parseLatLon(*from)
	if err != nil {
		return fmt.Errorf("-from: %w", err)
	}
	dst, err := parseLatLon(*to)
	if err != nil {
		return fmt.Errorf("-to: %w", err)
	}

	eng, _, err := stochroute.OpenEngine(*netPath, *trajPath, *modelPath, *width, *minObs)
	if err != nil {
		return err
	}
	g := eng.Graph()
	slice := eng.SliceOf(*depart)
	if eng.NumSlices() > 1 {
		fmt.Fprintf(stdout, "departure %.0fs -> time slice %d of %d\n", *depart, slice, eng.NumSlices())
	}
	s := eng.NearestVertex(src.Lat, src.Lon)
	d := eng.NearestVertex(dst.Lat, dst.Lon)
	fmt.Fprintf(stdout, "source %v -> vertex %d %v\n", src, s, g.Point(s))
	fmt.Fprintf(stdout, "dest   %v -> vertex %d %v\n", dst, d, g.Point(d))

	res, err := eng.RouteCtx(context.Background(), s, d, stochroute.RouteOptions{
		Budget:       *budget,
		Departure:    *depart,
		TimeExpanded: *expand,
		MaxDuration:  *limit,
	})
	if err != nil {
		return err
	}
	if !res.Found {
		return errors.New("no path found within the budget")
	}
	fmt.Fprintf(stdout, "\nbudget routing (t = %.0fs):\n", *budget)
	fmt.Fprintf(stdout, "  P(on time) = %.3f   edges = %d   mean = %.0fs\n",
		res.Prob, len(res.Path), res.Dist.Mean())
	fmt.Fprintf(stdout, "  expansions = %d, labels = %d, runtime = %v, complete = %v\n",
		res.Expansions, res.GeneratedLabels, res.Runtime.Round(time.Millisecond), res.Complete)
	if len(res.SliceSeq) > 0 {
		fmt.Fprintf(stdout, "  slice sequence = %v\n", summariseSlices(res.SliceSeq))
	}

	// The baseline is the departure slice's: its mean-cost path, costed
	// by its model.
	basePath, baseMean, err := routing.MeanCostPath(g, eng.SliceKnowledgeBase(slice), s, d)
	if err == nil {
		baseDist, err := eng.PathDistributionAt(*depart, basePath)
		if err == nil {
			fmt.Fprintf(stdout, "\nmean-cost baseline:\n")
			fmt.Fprintf(stdout, "  P(on time) = %.3f   edges = %d   mean = %.0fs\n",
				baseDist.ProbWithinBudget(*budget), len(basePath), baseMean)
		}
	}
	return nil
}
