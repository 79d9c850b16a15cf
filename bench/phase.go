package main

import (
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// roundLog is one ingest round: a batch posted, delivered, retrained on
// and swapped in.
type roundLog struct {
	delivered time.Duration // POST sent -> every trajectory folded in by the replica
	rebuilt   time.Duration // POST sent -> rebuilt model serving
}

// phaseResult is one measured phase: what the clients saw plus what the
// process spent while they ran.
type phaseResult struct {
	logs     []*clientLog
	rounds   []roundLog
	wall     time.Duration
	cpu      time.Duration // user+sys of the whole process
	gcCPU    time.Duration
	mallocs  uint64
	gcCycles uint32
	heapSys  uint64 // bytes of heap obtained from the OS by the end: the high-water mark
	// intervals slice the phase at the first client's block boundaries:
	// process CPU spent and queries answered (by all clients) in each.
	intervals []cpuInterval
	err       error // harness-level failure (ingest round lost, timeout)
}

type cpuInterval struct {
	cpu     time.Duration
	queries int64
}

// processCPU is the user+sys CPU time the process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// resources is a snapshot of the process-wide meters a phase is charged
// for by difference.
type resources struct {
	cpu     time.Duration
	gcCPU   time.Duration
	mallocs uint64
	numGC   uint32
	heapSys uint64
}

func snapshotResources() resources {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sample)
	gc := 0.0
	if sample[0].Value.Kind() == metrics.KindFloat64 {
		gc = sample[0].Value.Float64()
	}
	return resources{
		cpu:     processCPU(),
		gcCPU:   time.Duration(gc * float64(time.Second)),
		mallocs: ms.Mallocs,
		numGC:   ms.NumGC,
		heapSys: ms.HeapSys,
	}
}

// runPhase replays the plan's block w.blocks times from every client at
// once; with ingest bodies in the plan, a writer streams w.rounds rounds
// beside the readers. The phase is a fixed amount of work: every run of
// one workload at one run length answers the same number of queries.
func runPhase(f *fleet, p *plan, clients []*client, w work) *phaseResult {
	res := &phaseResult{}
	runtime.GC()
	before := snapshotResources()
	start := time.Now()
	blocksDone := func(done int) bool { return done >= w.blocks }
	var writerDone atomic.Bool

	var answered atomic.Int64
	lastCPU, lastAnswered := before.cpu, int64(0)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			var blockDone func()
			if i == 0 {
				blockDone = func() {
					cpu, n := processCPU(), answered.Load()
					// An interval the writer did not work through to the
					// end is not the workload: only the reader ran.
					if !writerDone.Load() {
						res.intervals = append(res.intervals, cpuInterval{cpu: cpu - lastCPU, queries: n - lastAnswered})
					}
					lastCPU, lastAnswered = cpu, n
				}
			}
			// Clients start evenly spaced around the request list, so at
			// any moment they are on different keys yet every block is the
			// same work.
			c.replay(f.gwts.URL, i*len(p.requests)/len(clients), blocksDone, &answered, blockDone)
		}(i, c)
	}
	if len(p.ingestBodies) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.rounds, res.err = ingestRounds(f, p, func(done int) bool { return done >= w.rounds })
			writerDone.Store(true)
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	after := snapshotResources()
	res.cpu = after.cpu - before.cpu
	res.gcCPU = after.gcCPU - before.gcCPU
	res.mallocs = after.mallocs - before.mallocs
	res.gcCycles = after.numGC - before.numGC
	res.heapSys = after.heapSys
	for _, c := range clients {
		res.logs = append(res.logs, c.log)
	}
	return res
}

// ingestRounds is the writer of ingest_swap: post one batch through the
// gateway, wait until the replica has folded it in, wait until the
// retrain it triggers has swapped in — then the next, back to back, so
// one core retrains continuously while the reader keeps the other busy.
func ingestRounds(f *fleet, p *plan, stop func(done int) bool) ([]roundLog, error) {
	rep := f.reps[0]
	hc := &http.Client{Timeout: 60 * time.Second}
	defer hc.CloseIdleConnections()
	base := rep.ing.Status()
	baseEpoch := rep.eng.ModelEpoch()
	var rounds []roundLog
	for round := 0; !stop(round); round++ {
		body := p.ingestBodies[round%len(p.ingestBodies)]
		t0 := time.Now()
		var ack struct {
			Accepted int `json:"accepted"`
			Enqueued int `json:"enqueued"`
			Dropped  int `json:"dropped"`
		}
		if err := postJSON(hc, f.gwts.URL+"/ingest", body, &ack); err != nil {
			return rounds, fmt.Errorf("ingest round %d: %w", round, err)
		}
		if ack.Enqueued != len(f.reps) || ack.Dropped != 0 {
			return rounds, fmt.Errorf("ingest round %d: enqueued to %d of %d replicas", round, ack.Enqueued, len(f.reps))
		}
		want := base.Accepted + uint64((round+1)*ack.Accepted)
		deadline := t0.Add(2 * time.Minute)
		for {
			st := rep.ing.Status()
			if st.Rejected != base.Rejected {
				return rounds, fmt.Errorf("ingest round %d: replica rejected %d trajectories", round, st.Rejected-base.Rejected)
			}
			if st.Accepted >= want {
				break
			}
			if time.Now().After(deadline) {
				return rounds, fmt.Errorf("ingest round %d: batch never delivered", round)
			}
			time.Sleep(500 * time.Microsecond)
		}
		delivered := time.Since(t0)
		// The swap is the engine's epoch moving; polling an atomic costs
		// the retraining core nothing measurable.
		for polls := 0; rep.eng.ModelEpoch() < baseEpoch+uint64(round+1); polls++ {
			if polls%100 == 99 {
				if st := rep.ing.Status(); st.RebuildErrors != base.RebuildErrors {
					return rounds, fmt.Errorf("ingest round %d: rebuild failed", round)
				}
				if time.Now().After(deadline) {
					return rounds, fmt.Errorf("ingest round %d: rebuild never swapped in", round)
				}
			}
			time.Sleep(500 * time.Microsecond)
		}
		// Returns once the rebuild goroutine has cleared its in-flight
		// flag, so the next batch is guaranteed to trigger a rebuild.
		rep.ing.WaitRebuilds()
		rounds = append(rounds, roundLog{delivered: delivered, rebuilt: time.Since(t0)})
	}
	return rounds, nil
}

// --- order statistics -------------------------------------------------

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile reads the q-quantile of sorted data by linear interpolation
// between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// quartilesExclusive is Python's statistics.quantiles(v, n=4): the
// spread rule BENCHMARK.json's bounds are judged by.
func quartilesExclusive(v []float64) (q1, q2, q3 float64, err error) {
	if len(v) < 2 {
		return 0, 0, 0, errors.New("need at least two values")
	}
	s := sortedCopy(v)
	m := len(s)
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3), nil
}

// spread is (q3 - q1) / median under the rule above.
func spread(v []float64) float64 {
	q1, q2, q3, err := quartilesExclusive(v)
	if err != nil || q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}
