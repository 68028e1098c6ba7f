package harness

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"dapper/internal/sim"
	"dapper/internal/telemetry"
)

// Job is one simulation request: its deterministic identity plus the
// closure that produces the result. Run must be safe to execute on any
// goroutine and must not share mutable state with other jobs (sim.Run
// builds a fresh system per call, so exp's specs satisfy this by
// construction).
type Job struct {
	Desc Descriptor
	Run  func() (sim.Result, error)
	// Stream, when non-nil, lets the pool run the job inside a
	// shared-stream group (see Pool). Run must then be equivalent to
	// sim.Run of Stream.Config() with Stream.Point's tracker, mode and
	// observer, and must be an in-process simulation: grouped jobs do
	// not go through Run or the retry policy.
	Stream *Stream
}

// Stream identifies the memory-request stream a job drives and how to
// rebuild it. Jobs with equal Keys drive the same traces through the
// same system and differ only in tracker configuration, so the pool
// may advance them behind one system simulation (sim.RunBatch).
type Stream struct {
	// Key is comparable, so grouping costs a map lookup, not a hash of
	// an encoding: exp uses the job's Descriptor with the tracker
	// identity cleared (and NRH too when the traces do not depend on
	// it).
	Key Descriptor
	// Config builds the job's system configuration, traces included.
	// The pool calls it once per group, on the group's first member.
	Config func() (sim.Config, error)
	// Point is the job's tracker configuration within the group.
	Point sim.BatchPoint
}

// Future is the pending result of a submitted job. Wait may be called
// from any number of goroutines.
type Future struct {
	desc    Descriptor
	key     string
	done    chan struct{}
	res     sim.Result
	err     error
	cached  bool
	outcome sim.BatchOutcome
}

// Wait blocks until the job completes and returns its result.
func (f *Future) Wait() (sim.Result, error) {
	<-f.done
	return f.res, f.err
}

// WaitCtx blocks until the job completes or ctx is done, whichever
// comes first. A ctx error abandons the wait, not the job: the job
// still runs to completion in the pool (simulations are not
// interruptible mid-run) and its result stays cached.
func (f *Future) WaitCtx(ctx context.Context) (sim.Result, error) {
	select {
	case <-f.done:
		return f.res, f.err
	case <-ctx.Done():
		return sim.Result{}, ctx.Err()
	}
}

// Cached reports (after Wait) whether the result came from the cache.
func (f *Future) Cached() bool {
	<-f.done
	return f.cached
}

// Desc returns the job's descriptor.
func (f *Future) Desc() Descriptor { return f.desc }

// Outcome reports (after Wait) how a shared-stream job's result was
// produced: as a group's lead, riding a lead in lockstep, or as an
// independent run and why (sim.FallbackReason). Jobs without a Stream
// and cache hits report the zero outcome.
func (f *Future) Outcome() sim.BatchOutcome {
	<-f.done
	return f.outcome
}

// transientError marks an error as retryable by the pool's retry
// policy. Simulation errors are deterministic (same inputs, same
// failure) and must not be marked; infrastructure errors — a shared
// store hiccup, a remote claim timeout — may be.
type transientError struct{ err error }

func (e *transientError) Error() string { return "transient: " + e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// MarkTransient wraps err so the pool's RetryPolicy retries it.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err is marked retryable.
func IsTransient(err error) bool {
	var te *transientError
	return errors.As(err, &te)
}

// RetryPolicy retries jobs whose Run returned a transient error (see
// MarkTransient). Attempts is the number of retries after the first
// try; Backoff is the first retry's delay, doubling per retry.
type RetryPolicy struct {
	Attempts int
	Backoff  time.Duration
}

// Stats summarizes a pool's activity.
type Stats struct {
	Submitted int // Submit calls, including duplicates
	Unique    int // distinct descriptor keys accepted
	Ran       int // full system simulations executed
	// Lockstep counts jobs whose result came from riding another job's
	// simulation of the same stream (no simulation of their own).
	Lockstep int
	// Diverged counts jobs that left a shared-stream group mid-run and
	// were requeued as independent runs (each also counts in Ran once
	// it has run).
	Diverged  int
	CacheHits int // results served from the cache
	// CacheMisses counts cache lookups that found nothing (zero when no
	// cache is attached); CacheHits+CacheMisses is the lookup total.
	CacheMisses int
	// Inflight is the number of simulations executing right now — a
	// gauge, not a counter (expvar/debug endpoints poll it live).
	Inflight int
	Errors   int // jobs that returned an error
	// Retries counts re-executions of jobs whose previous attempt
	// returned a transient error.
	Retries int
	// Cancelled counts jobs completed with the pool context's error
	// without ever running.
	Cancelled int
	// CacheWriteErrors counts failed memoization writes; the runs
	// themselves still succeed.
	CacheWriteErrors int
	// TotalElapsed and MaxElapsed aggregate the wall-clock time of
	// executed simulations (cache hits contribute nothing): the sweep's
	// total compute and its longest single job.
	TotalElapsed time.Duration
	MaxElapsed   time.Duration
}

// Trace lane layout: workers occupy lanes [0, N); cache hits and sink
// flushes get their own lanes above, so a Perfetto view shows one row
// per worker plus the cache and sink activity separately.
const (
	laneCacheOffset = 0
	laneSinkOffset  = 1
)

// queued is one pending dispatch: the future plus the job closure and
// its submission time (for the queue-wait trace span).
type queued struct {
	f         *Future
	job       Job
	submitted time.Time
	// taken marks an entry claimed by an earlier member's group; the
	// dispatcher skips it. solo marks a job spilled from a group: it
	// runs alone, never regrouped.
	taken bool
	solo  bool
}

// Pool fans jobs out over a bounded set of workers, deduplicating by
// descriptor key and consulting the cache before simulating. One pool
// can serve many experiments; dedup and the cache then span all of
// them (shared insecure baselines run once per process, not once per
// figure).
//
// Dispatch is bounded: submissions park in an in-memory queue and at
// most Workers goroutines exist at any moment, so a 1e5-point sweep
// costs a slice of queued entries, not 1e5 parked goroutines.
//
// Jobs carrying a Stream are grouped: a worker that dequeues one also
// claims every still-queued job with the same Stream.Key and runs the
// group through sim.RunBatch, one system simulation with the other
// members' trackers riding it. A member that cannot ride, or stops
// agreeing with the lead mid-run, goes straight back to the queue
// (ahead of unstarted work) as an independent job. Futures, sink order,
// dedup and caching are per job exactly as without grouping, and every
// result is byte-identical to the job's own Run.
type Pool struct {
	cache      *Cache
	sinks      []Sink
	onProgress func(done, total int)
	onResult   func(Descriptor, sim.Result)
	tracer     *telemetry.Tracer
	workers    int
	ctx        context.Context
	retry      RetryPolicy
	wg         sync.WaitGroup

	// cbMu serializes completion bookkeeping + progress callback so
	// OnProgress observes strictly increasing done counts.
	cbMu    sync.Mutex
	mu      sync.Mutex
	queue   []*queued
	spilled []*queued                // jobs requeued from a group; dispatched first
	streams map[Descriptor][]*queued // queued, unclaimed grouped jobs per stream
	active  int                      // worker goroutines currently alive
	freeIDs []int                    // trace lane ids not held by a live worker
	futures map[string]*Future
	order   []*Future
	elapsed map[string]time.Duration
	done    int
	stats   Stats
	closed  bool
}

// NewPool builds a pool from options.
func NewPool(opts Options) *Pool {
	n := opts.workers()
	p := &Pool{
		cache:      opts.Cache,
		sinks:      opts.Sinks,
		onProgress: opts.OnProgress,
		onResult:   opts.OnResult,
		tracer:     opts.Tracer,
		workers:    n,
		ctx:        opts.Context,
		retry:      opts.Retry,
		streams:    make(map[Descriptor][]*queued),
		futures:    make(map[string]*Future),
		elapsed:    make(map[string]time.Duration),
	}
	p.freeIDs = make([]int, n)
	for i := range p.freeIDs {
		p.freeIDs[i] = n - 1 - i // pop from the tail → worker 0 first
	}
	if p.tracer != nil {
		for i := 0; i < n; i++ {
			p.tracer.SetLaneName(i, fmt.Sprintf("worker %d", i))
		}
		p.tracer.SetLaneName(n+laneCacheOffset, "cache")
		p.tracer.SetLaneName(n+laneSinkOffset, "sink")
	}
	return p
}

// Submit enqueues a job and returns its future. A job whose descriptor
// key was already submitted returns the existing future without running
// anything. Submit never blocks: the job parks in the dispatch queue
// until one of the pool's bounded workers frees up.
func (p *Pool) Submit(job Job) *Future {
	return p.SubmitAll([]Job{job})[0]
}

// SubmitAll submits jobs in order, like one Submit each, but enqueues
// them all before any worker starts, so every member of a stream is
// queued by the time a worker groups it.
func (p *Pool) SubmitAll(jobs []Job) []*Future {
	futures := make([]*Future, len(jobs))
	p.mu.Lock()
	for i, job := range jobs {
		futures[i] = p.enqueueLocked(job)
	}
	lanes := p.spawnLocked()
	p.mu.Unlock()
	for _, lane := range lanes {
		go p.worker(lane)
	}
	return futures
}

func (p *Pool) enqueueLocked(job Job) *Future {
	key := job.Desc.Key()
	p.stats.Submitted++
	if f, ok := p.futures[key]; ok {
		return f
	}
	f := &Future{desc: job.Desc, key: key, done: make(chan struct{})}
	p.futures[key] = f
	p.order = append(p.order, f)
	p.stats.Unique++
	p.wg.Add(1)
	//dapper:wallclock submission timestamp feeds the queue-wait trace span only, never a Result
	it := &queued{f: f, job: job, submitted: time.Now()}
	p.queue = append(p.queue, it)
	if job.Stream != nil {
		p.streams[job.Stream.Key] = append(p.streams[job.Stream.Key], it)
	}
	return f
}

// spawnLocked claims lanes for as many new workers as there is queued
// work and free capacity; the caller starts them after unlocking.
func (p *Pool) spawnLocked() []int {
	var lanes []int
	for pending := len(p.queue) + len(p.spilled); pending > 0 && p.active < p.workers && len(p.freeIDs) > 0; pending-- {
		p.active++
		lanes = append(lanes, p.freeIDs[len(p.freeIDs)-1])
		p.freeIDs = p.freeIDs[:len(p.freeIDs)-1]
	}
	return lanes
}

// worker drains the dispatch queue and exits when it is empty; the
// next Submit respawns it. At most Workers workers are ever alive, so
// goroutine count stays O(workers) regardless of backlog depth.
func (p *Pool) worker(lane int) {
	for {
		p.mu.Lock()
		group := p.dequeueLocked()
		if group == nil {
			p.active--
			p.freeIDs = append(p.freeIDs, lane)
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()
		if len(group) == 1 && (group[0].job.Stream == nil || group[0].solo) {
			p.execute(lane, group[0])
		} else {
			p.executeGroup(lane, group)
		}
	}
}

// dequeueLocked pops the next dispatch: a spilled job, or the queue
// head together with every queued job of its stream.
func (p *Pool) dequeueLocked() []*queued {
	if len(p.spilled) > 0 {
		it := p.spilled[0]
		p.spilled = p.spilled[1:]
		return []*queued{it}
	}
	for len(p.queue) > 0 {
		it := p.queue[0]
		p.queue[0] = nil
		p.queue = p.queue[1:]
		if it.taken {
			continue
		}
		if it.job.Stream == nil {
			return []*queued{it}
		}
		group := p.streams[it.job.Stream.Key]
		delete(p.streams, it.job.Stream.Key)
		for _, g := range group {
			g.taken = true
		}
		return group
	}
	return nil
}

// requeue hands a job spilled from a group back to the dispatcher as a
// solo job, ahead of unstarted work, waking a worker if one is free.
func (p *Pool) requeue(it *queued, o sim.BatchOutcome) {
	it.f.outcome = o
	it.solo = true
	p.mu.Lock()
	if o.Reason == sim.FallbackDiverged {
		p.stats.Diverged++
	}
	p.spilled = append(p.spilled, it)
	lanes := p.spawnLocked()
	p.mu.Unlock()
	for _, lane := range lanes {
		go p.worker(lane)
	}
}

// skipCancelled completes f with the pool context's error if it is done.
func (p *Pool) skipCancelled(f *Future) bool {
	if p.ctx == nil || p.ctx.Err() == nil {
		return false
	}
	p.mu.Lock()
	p.stats.Cancelled++
	p.mu.Unlock()
	p.finish(f, p.ctx.Err(), 0)
	return true
}

// serveCached serves f from the cache if it holds the result.
//
//dapper:wallclock times the cache lookup for its trace span only
func (p *Pool) serveCached(f *Future) bool {
	if p.cache == nil {
		return false
	}
	lookupStart := time.Now()
	res, ok := p.cache.Get(f.key)
	if ok {
		f.res, f.cached = res, true
		if p.tracer != nil {
			p.tracer.Span(p.workers+laneCacheOffset, "hit "+f.desc.String(), "cache",
				lookupStart, time.Now(), map[string]string{"key": f.key})
		}
		p.finish(f, nil, 0)
		return true
	}
	p.mu.Lock()
	p.stats.CacheMisses++
	p.mu.Unlock()
	return false
}

// store memoizes a fresh result. A failed memoization write must not
// discard a completed simulation; count it and carry on.
func (p *Pool) store(f *Future) {
	if p.cache == nil {
		return
	}
	if err := p.cache.Put(f.key, f.res); err != nil {
		p.mu.Lock()
		p.stats.CacheWriteErrors++
		p.mu.Unlock()
	}
}

func (p *Pool) inflight(d int) {
	p.mu.Lock()
	p.stats.Inflight += d
	p.mu.Unlock()
}

// execute runs one job to completion on a worker lane.
//
//dapper:wallclock measures simulation elapsed time for Stats and trace spans; results stay a pure function of the Descriptor
func (p *Pool) execute(lane int, item *queued) {
	f, job := item.f, item.job
	if p.skipCancelled(f) || p.serveCached(f) {
		return
	}
	p.inflight(1)
	start := time.Now()
	res, err := p.runWithRetry(job)
	end := time.Now()
	p.inflight(-1)
	if p.tracer != nil {
		// The queue-wait span sits on the same lane as its run span, so a
		// worker row reads wait → run → wait → run left to right.
		p.tracer.Span(lane, "wait "+f.desc.String(), "queue", item.submitted, start,
			map[string]string{"key": f.key})
		outcome := "ok"
		if err != nil {
			outcome = err.Error()
		}
		p.tracer.Span(lane, f.desc.String(), "run", start, end,
			map[string]string{"key": f.key, "outcome": outcome})
	}
	if err == nil {
		f.res = res
		p.store(f)
	}
	p.finish(f, err, end.Sub(start))
}

// executeGroup runs one stream's claimed jobs: cache hits finish
// first, the rest share one system simulation. The lead preference is
// the insecure baseline, then the highest NRH (the point least likely
// to mitigate, so the one most others can ride); sim.RunBatch skips
// throttlers when it picks the lead.
//
//dapper:wallclock measures the group's elapsed time for Stats and trace spans; results stay a pure function of each Descriptor
func (p *Pool) executeGroup(lane int, group []*queued) {
	var rest []*queued
	for _, it := range group {
		if !p.skipCancelled(it.f) && !p.serveCached(it.f) {
			rest = append(rest, it)
		}
	}
	if len(rest) == 0 {
		return
	}
	slices.SortStableFunc(rest, func(a, b *queued) int {
		an, bn := a.f.desc.Tracker == "none", b.f.desc.Tracker == "none"
		if an != bn {
			if an {
				return -1
			}
			return 1
		}
		return cmp.Compare(b.f.desc.NRH, a.f.desc.NRH)
	})

	p.inflight(1)
	start := time.Now()
	spilled := make([]bool, len(rest))
	cfg, err := rest[0].job.Stream.Config()
	var results []sim.Result
	var outcomes []sim.BatchOutcome
	if err == nil {
		points := make([]sim.BatchPoint, len(rest))
		for i, it := range rest {
			points[i] = it.job.Stream.Point
		}
		results, outcomes, err = sim.RunBatch(cfg, points, func(i int, o sim.BatchOutcome) {
			spilled[i] = true
			p.requeue(rest[i], o)
		})
	}
	end := time.Now()
	p.inflight(-1)

	var members []*queued
	for i, it := range rest {
		if spilled[i] {
			continue
		}
		if err != nil {
			// The shared run failed: let every remaining member reach its
			// own verdict as an independent run.
			p.requeue(it, sim.BatchOutcome{})
			continue
		}
		it.f.res, it.f.outcome = results[i], outcomes[i]
		members = append(members, it)
	}
	if len(members) == 0 {
		return
	}
	if p.tracer != nil {
		for _, it := range members {
			p.tracer.Span(lane, "wait "+it.f.desc.String(), "queue", it.submitted, start,
				map[string]string{"key": it.f.key})
		}
		p.tracer.Span(lane, fmt.Sprintf("%s +%d lockstep", members[0].f.desc.String(), len(members)-1), "run",
			start, end, map[string]string{"key": members[0].f.key, "outcome": "ok"})
	}
	// The members share one simulation; charge each an even share.
	per := end.Sub(start) / time.Duration(len(members))
	for _, it := range members {
		p.store(it.f)
		p.finish(it.f, nil, per)
	}
}

// runWithRetry executes the job, re-running it with exponential
// backoff while the error is transient and the retry budget lasts.
//
//dapper:wallclock backoff sleeps pace retries of transient infrastructure errors; no timestamp reaches a Result
func (p *Pool) runWithRetry(job Job) (sim.Result, error) {
	res, err := job.Run()
	if err == nil || p.retry.Attempts <= 0 {
		return res, err
	}
	backoff := p.retry.Backoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	for attempt := 0; attempt < p.retry.Attempts && IsTransient(err); attempt++ {
		if !sleepCtx(p.ctx, backoff) {
			return res, p.ctx.Err()
		}
		backoff *= 2
		p.mu.Lock()
		p.stats.Retries++
		p.mu.Unlock()
		res, err = job.Run()
		if err == nil {
			return res, nil
		}
	}
	return res, err
}

// sleepCtx sleeps for d unless ctx is done first; it reports whether
// the full sleep elapsed.
//
//dapper:wallclock retry backoff timer; never observable in a Result
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if ctx == nil {
		time.Sleep(d)
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

func (p *Pool) finish(f *Future, err error, elapsed time.Duration) {
	f.err = err
	p.cbMu.Lock()
	p.mu.Lock()
	switch {
	case err != nil:
		p.stats.Errors++
	case f.cached:
		p.stats.CacheHits++
	case f.outcome.Lockstep:
		p.stats.Lockstep++
	default:
		p.stats.Ran++
	}
	if !f.cached {
		p.stats.TotalElapsed += elapsed
		if elapsed > p.stats.MaxElapsed {
			p.stats.MaxElapsed = elapsed
		}
	}
	p.elapsed[f.key] = elapsed
	p.done++
	done, total := p.done, p.stats.Unique
	cb := p.onProgress
	p.mu.Unlock()
	close(f.done)
	if cb != nil {
		cb(done, total)
	}
	if err == nil && p.onResult != nil {
		p.onResult(f.desc, f.res)
	}
	p.cbMu.Unlock()
	p.wg.Done()
}

// Wait blocks until every submitted job has finished.
func (p *Pool) Wait() { p.wg.Wait() }

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Close waits for all jobs, streams every successful record to the
// sinks in submission order, and closes the sinks. It is safe to call
// once; further Submits after Close are a programming error.
//
//dapper:wallclock times sink flushes for the tracer's sink lane; the flushed bytes are already ordered and wall-clock free
func (p *Pool) Close() error {
	p.wg.Wait()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return fmt.Errorf("harness: pool closed twice")
	}
	p.closed = true
	order := p.order
	p.mu.Unlock()

	var first error
	for _, f := range order {
		if f.err != nil {
			continue
		}
		rec := Record{
			Key:     f.key,
			Desc:    f.desc,
			Cached:  f.cached,
			Elapsed: p.elapsed[f.key],
			Result:  f.res,
		}
		flushStart := time.Now()
		for _, s := range p.sinks {
			if err := s.Write(rec); err != nil && first == nil {
				first = err
			}
		}
		if p.tracer != nil && len(p.sinks) > 0 {
			p.tracer.Span(p.workers+laneSinkOffset, "flush "+f.desc.String(), "sink",
				flushStart, time.Now(), map[string]string{"key": f.key})
		}
	}
	for _, s := range p.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
