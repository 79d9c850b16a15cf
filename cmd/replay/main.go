// Command replay streams an SRT2 trajectory file into a running
// routing service's POST /ingest endpoint at a configurable rate — the
// way a fleet's map-matched GPS feed would arrive in production. It is
// the client half of the online-learning loop: stream enough shifted
// trajectories and the service's drift monitor fires, a background
// rebuild retrains the model, and the model epoch reported in the
// acknowledgements (and in /stats) advances.
//
//	replay -traj drifted.srt -addr http://127.0.0.1:8080 -rate 200 -batch 64
//
// Generate input with cmd/gentraj, or record and re-stream production
// trajectories. The exit status is non-zero if the stream aborts.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"stochroute/internal/replay"
	"stochroute/internal/traj"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("replay: ")

	addr := flag.String("addr", "http://127.0.0.1:8080", "base URL of the routing service")
	trajPath := flag.String("traj", "trips.srt", "trajectory file (SRT2) to stream")
	rate := flag.Float64("rate", 100, "trajectories per second (0 = as fast as possible)")
	batch := flag.Int("batch", 64, "trajectories per POST /ingest request")
	loops := flag.Int("loops", 1, "times to stream the whole file")
	flag.Parse()

	f, err := os.Open(*trajPath)
	if err != nil {
		log.Fatal(err)
	}
	// Edge IDs and contiguity are validated server-side against the
	// serving graph, so no local graph is needed.
	trs, err := traj.ReadTrajectoryStream(f, nil)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("loaded %d trajectories from %s", len(trs), *trajPath)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	for i := 0; i < *loops; i++ {
		rep, err := replay.Stream(ctx, trs, replay.Options{
			BaseURL: *addr,
			Rate:    *rate,
			Batch:   *batch,
			LogW:    os.Stderr,
		})
		if err != nil {
			log.Fatalf("stream aborted after %d/%d trajectories: %v", rep.Sent, len(trs), err)
		}
		fmt.Printf("loop %d: sent=%d accepted=%d rejected=%d batches=%d elapsed=%s epoch %d -> %d\n",
			i+1, rep.Sent, rep.Accepted, rep.Rejected, rep.Batches,
			rep.Elapsed.Round(1e6), rep.FirstEpoch, rep.LastEpoch)
	}
}
