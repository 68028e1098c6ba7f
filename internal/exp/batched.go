package exp

import (
	"fmt"

	"dapper/internal/harness"
)

// BatchStats summarizes how a BatchedSweep executed. The run counters
// are the pool's (harness.Stats); Groups and Reasons are read off the
// sweep's futures.
type BatchStats struct {
	// Points is the total number of sweep points (specs).
	Points int
	// Groups is the number of shared-stream groups actually simulated
	// (fully-cached streams are skipped).
	Groups int
	// CacheHits counts points served from the cache without simulating.
	CacheHits int
	// Lockstep counts points that rode another point's simulation.
	Lockstep int
	// Diverged counts points that left their group mid-run and ran
	// again independently.
	Diverged int
	// FullRuns counts full system simulations: each group's lead plus
	// every point that ran independently.
	FullRuns int
	// Reasons histograms the non-cached outcomes by sim.FallbackReason
	// ("lockstep" for riders, "lead" for the leads).
	Reasons map[string]int
}

// BatchedSweep runs the request's sweep on a fresh pool built from opt
// and returns the completed records in spec order plus execution
// statistics. It is the Jobs path with the stream grouping every pool
// does (harness.Pool): specs that share a memory-request stream (same
// workload traces, geometry and windows — everything except the
// tracker under test) ride one system simulation, and points whose
// tracker perturbs the stream run independently, so every record is
// byte-identical to the one the plain pool path produces, under the
// same descriptors and cache keys. Sinks in opt receive the records in
// spec order and are closed before returning.
func BatchedSweep(req BatchRequest, opt harness.Options) ([]harness.Record, BatchStats, error) {
	jobs, err := req.Jobs()
	if err != nil {
		return nil, BatchStats{}, err
	}
	mem := harness.NewMemorySink()
	opt.Sinks = append(append([]harness.Sink(nil), opt.Sinks...), mem)
	pool := harness.NewPool(opt)
	futures := pool.SubmitAll(jobs)

	stats := BatchStats{Points: len(jobs), Reasons: make(map[string]int)}
	var firstErr error
	groups := make(map[harness.Descriptor]bool)
	for i, f := range futures {
		if _, err := f.Wait(); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("exp: batched sweep %s: %w", f.Desc(), err)
			}
			continue
		}
		if f.Cached() {
			continue
		}
		groups[jobs[i].Stream.Key] = true
		o := f.Outcome()
		if o.Lockstep {
			stats.Reasons["lockstep"]++
		} else {
			stats.Reasons[string(o.Reason)]++
		}
	}
	if err := pool.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	st := pool.Stats()
	stats.Groups = len(groups)
	stats.CacheHits = st.CacheHits
	stats.Lockstep = st.Lockstep
	stats.Diverged = st.Diverged
	stats.FullRuns = st.Ran
	if firstErr != nil {
		return nil, stats, firstErr
	}
	return mem.Records(), stats, nil
}
