// Package mem implements the per-channel memory controller: request
// queues with FR-FCFS scheduling, open-page policy, DDR5 bank/rank
// timing, auto-refresh, and the RowHammer-tracker integration points
// (activation hooks, mitigation blocking, injected counter traffic, and
// throttling). One Controller instance models one channel of the
// Table I system.
package mem

import (
	"dapper/internal/dram"
	"dapper/internal/rh"
	"dapper/internal/telemetry"
)

// Request is one 64B memory transaction. Cores (and trackers, for
// counter traffic) allocate requests and hand them to Enqueue; the
// controller sets Done and DoneAt on completion. Requests are reusable
// after completion.
type Request struct {
	Addr       uint64
	Loc        dram.Loc
	IsWrite    bool
	Core       int
	Injected   bool // tracker-generated counter traffic
	EnqueuedAt dram.Cycle
	DoneAt     dram.Cycle
	Done       bool
	// ThrottleFreeAt, set at enqueue on attribution runs with a
	// throttling tracker, is the first cycle the throttle would have
	// admitted this request's activation — the blame recorder charges
	// queue gaps before it to the Throttle bucket.
	ThrottleFreeAt dram.Cycle

	// fb is Loc's flat bank index, set by Enqueue so the scheduling
	// loops index the bank array directly. Pooled requests are reset
	// and retargeted between uses; every Enqueue recomputes it.
	fb int

	// Readiness cache (see refreshReady). bankBound and class are the
	// bank side of the scheduling constraints, derived from the bank's
	// state at generation gen; ready folds in the rank and bus sides.
	// Enqueue derives the bank side afresh, so nothing a reused Request
	// carries over from its previous trip survives.
	gen       uint64
	bankBound dram.Cycle
	ready     dram.Cycle
	class     uint8
}

// Row-buffer classes of a queued request against its bank's state; they
// index the per-class latency and bound arrays.
const (
	rowHit      = iota // the request's row is open: column command only
	rowClosed          // bank precharged: ACT first
	rowConflict        // another row open: PRE, then ACT
	numClasses
)

// Stats aggregates controller-side performance counters. ReadsServed,
// WritesServed and TotalReadWait cover demand traffic only; injected
// tracker counter traffic is tallied in dram.Counters.InjRD/InjWR.
type Stats struct {
	ReadsServed   uint64
	WritesServed  uint64
	RowHits       uint64
	RowMisses     uint64 // includes closed-bank activations
	TotalReadWait dram.Cycle
	Refreshes     uint64
}

// Controller schedules one channel. Not safe for concurrent use.
type Controller struct {
	channel int
	geo     dram.Geometry
	tim     dram.Timing
	tracker rh.Tracker
	throt   rh.Throttler // non-nil if tracker throttles
	mode    rh.MitigationMode
	obs     rh.Observer               // optional security-event tap (nil = none)
	probe   telemetry.ControllerProbe // optional telemetry tap (nil = none)
	blame   telemetry.BlameProbe      // optional attribution tap (nil = none)
	tblRep  rh.TableReporter          // cached tracker table-occupancy view

	// Timing constants the per-request loops read, precomputed so no
	// loop copies the whole dram.Timing to call one of its methods.
	lat        [numClasses]dram.Cycle // bank service latency per row-buffer class
	actDelay   [numClasses]dram.Cycle // ACT offset from the start: tRP on a conflict
	actSpacing dram.Cycle             // same-bank ACT-to-ACT: tRC plus the PRAC tax
	tRRDS      dram.Cycle

	// openers, allocated only with a blame probe attached, tracks per
	// flat bank who opened the currently open row: a core id, -1 for
	// none / a write-back, -2 for injected counter traffic. It is what
	// lets a row-buffer conflict name its culprit.
	openers []int16

	banks []dram.Bank
	ranks []dram.Rank

	queue    []*Request // core requests, bounded
	injected []*Request // tracker counter traffic, unbounded, priority
	queueCap int

	dataBusFreeAt   dram.Cycle
	nextTrackerTick dram.Cycle
	nextConsider    dram.Cycle // idle-scan backoff
	lastTick        dram.Cycle // previous Tick time, for backoff catch-up

	counters dram.Counters
	stats    Stats
	actBuf   []rh.Action
	reqPool  []*Request // recycled injected requests (tracker counter traffic)

	version uint64 // bumped on Enqueue; lets callers cache NextEvent

	// Readiness cache: every queued request's earliest start cycle,
	// rederived only when state it depends on changes. Each mutation of
	// bank state advances that bank's bankGen; each mutation of bank,
	// rank or bus state sets stale. refreshReady then rederives the bank
	// side of requests whose gen lags and refolds every request from the
	// per-class rank and bus bounds. readyMin is the earliest ready cycle
	// over the requests pick can judge from ready alone, which excludes
	// throttled demand misses (see live).
	bankGen   []uint64
	rankBound [][numClasses]dram.Cycle
	busBound  [numClasses]dram.Cycle
	readyMin  dram.Cycle
	hitMin    dram.Cycle // earliest ready cycle over row hits
	stale     bool
}

// QueueCap is the per-channel read/write queue capacity; a full queue
// back-pressures the cores, which is how bandwidth loss becomes
// slowdown.
const QueueCap = 48

// NewController builds a controller for the given channel. mode selects
// the mitigation command used for RefreshVictims actions (VRR1 default).
func NewController(channel int, geo dram.Geometry, tim dram.Timing, tracker rh.Tracker, mode rh.MitigationMode) *Controller {
	c := &Controller{
		channel:         channel,
		geo:             geo,
		tim:             tim,
		tracker:         tracker,
		mode:            mode,
		banks:           make([]dram.Bank, geo.BanksPerChannel()),
		ranks:           make([]dram.Rank, geo.Ranks),
		queueCap:        QueueCap,
		nextTrackerTick: tim.TREFI,
		lastTick:        -1,
		lat:             [numClasses]dram.Cycle{tim.RowHitLatency(), tim.RowClosedLatency(), tim.RowMissLatency()},
		actDelay:        [numClasses]dram.Cycle{rowConflict: tim.TRP},
		actSpacing:      tim.TRC + tim.PRACActTax,
		tRRDS:           tim.TRRDS,
		bankGen:         make([]uint64, geo.BanksPerChannel()),
		rankBound:       make([][numClasses]dram.Cycle, geo.Ranks),
		readyMin:        dram.Never,
		hitMin:          dram.Never,
		stale:           true,
	}
	for i := range c.banks {
		c.banks[i] = dram.NewBank()
	}
	for i := range c.ranks {
		// Stagger rank refreshes evenly across one tREFI, as real
		// controllers do, so no two ranks are ever blocked at once
		// (offsetting rank i by i*tREFI/2 would collide rank 2 with
		// rank 0's second refresh on >2-rank geometries).
		c.ranks[i] = dram.NewRank(tim.TREFI + dram.Cycle(i)*tim.TREFI/dram.Cycle(geo.Ranks))
	}
	if th, ok := tracker.(rh.Throttler); ok {
		c.throt = th
	}
	return c
}

// SetObserver attaches a passive security-event observer (nil detaches).
// Observers see every ACT, mitigation command, auto-refresh and bulk
// sweep this controller issues; they cannot influence scheduling. Attach
// before the first Tick so the observed stream is complete.
func (c *Controller) SetObserver(o rh.Observer) { c.obs = o }

// SetProbe attaches a telemetry probe (nil detaches): queue-population
// samples on every enqueue/dequeue, and — when the tracker implements
// rh.TableReporter — a table-occupancy sample after each periodic
// tracker tick. Like the observer, the probe is purely passive and
// costs one nil check per event when detached. Attach before the first
// Tick so the sampled stream is complete.
func (c *Controller) SetProbe(p telemetry.ControllerProbe) {
	c.probe = p
	c.tblRep = nil
	if p != nil {
		if tr, ok := c.tracker.(rh.TableReporter); ok {
			c.tblRep = tr
		}
	}
}

// SetBlameProbe attaches the slowdown-attribution probe (nil
// detaches): one ServeEvent per request leaving the queue and one
// BlameBlock per bank-blocking interval (mitigation, REF, bulk sweep).
// Purely passive; a detached probe costs one nil check per event,
// which the bench gate holds under 2%. Attach before the first Tick.
func (c *Controller) SetBlameProbe(p telemetry.BlameProbe) {
	c.blame = p
	c.openers = nil
	if p != nil {
		c.openers = make([]int16, len(c.banks))
		for i := range c.openers {
			c.openers[i] = -1
		}
	}
}

// blameBlock reports a bank-blocking interval to the blame probe; the
// nil guard is the entire attribution-off cost on the mitigation path.
//
//dapper:hot
func (c *Controller) blameBlock(fb int, from, to dram.Cycle, cause telemetry.BlameCause, culprit int) {
	if c.blame != nil {
		c.blame.BlameBlock(fb, from, to, cause, culprit)
	}
}

// sampleQueue reports the post-change queue population to the probe.
// It runs on every enqueue/dequeue; the nil guard is the entire
// telemetry-off cost, which the bench gate holds under 2%.
//
//dapper:hot
func (c *Controller) sampleQueue(now dram.Cycle) {
	if c.probe != nil {
		c.probe.QueueSample(now, len(c.queue), len(c.injected))
	}
}

// Counters returns the DRAM event counters.
func (c *Controller) Counters() dram.Counters { return c.counters }

// Stats returns controller performance counters.
func (c *Controller) Stats() Stats { return c.stats }

// QueueLen returns the number of pending core requests.
func (c *Controller) QueueLen() int { return len(c.queue) }

// CanEnqueue reports whether the core queue has room.
func (c *Controller) CanEnqueue() bool { return len(c.queue) < c.queueCap }

// Enqueue admits a request; it returns false when the queue is full
// (the caller must retry later, and the request is left untouched).
// Injected requests are never refused.
func (c *Controller) Enqueue(r *Request, now dram.Cycle) bool {
	if r.Injected {
		r.Done = false
		r.EnqueuedAt = now
		r.fb = c.geo.FlatBank(r.Loc)
		c.injected = append(c.injected, r)
		c.admit(c.injected)
		c.resetConsider(now + 1)
		c.version++
		c.sampleQueue(now)
		return true
	}
	if len(c.queue) >= c.queueCap {
		return false
	}
	r.Done = false
	r.EnqueuedAt = now
	r.fb = c.geo.FlatBank(r.Loc)
	r.ThrottleFreeAt = 0
	if c.blame != nil && c.throt != nil {
		r.ThrottleFreeAt = c.throt.NextAllowed(now, r.Loc)
	}
	c.queue = append(c.queue, r)
	c.admit(c.queue)
	c.resetConsider(now + 1)
	c.version++
	c.sampleQueue(now)
	return true
}

// admit enters the request just appended to q into the readiness
// cache. The bank side is always derived here, even when the cache is
// stale: a reused Request may carry a gen that happens to match its new
// bank's, and refreshReady would then keep the class and bound from its
// previous trip. On a fresh cache the request folds straight into
// readyMin.
func (c *Controller) admit(q []*Request) {
	last := len(q) - 1
	c.bankSide(q[last])
	if !c.stale {
		c.fold(q[last:])
	}
}

// markBank records a change to bank fb's state: requests on it rederive
// their bank side, and every request refolds, at the next refreshReady.
// Every mutation of bank, rank or bus state must come through here (a
// rank or bus change marks the bank whose service caused it), or the
// scheduler reads a stale bound.
func (c *Controller) markBank(fb int) {
	c.bankGen[fb]++
	c.stale = true
}

// resetConsider re-arms the scheduler: the next attempt is allowed at
// cycle `at`. Every reset must encode its own time — a bare zero would
// lose the anchor of the 2-cycle backoff grid, and Tick's catch-up
// would replay the skipped-attempt trajectory with the wrong parity.
func (c *Controller) resetConsider(at dram.Cycle) {
	c.nextConsider = at
}

// Version increments on every successful Enqueue. The event engine uses
// it to cache NextEvent between ticks: a controller's wake time can only
// move earlier when new work arrives.
func (c *Controller) Version() uint64 { return c.version }

// Tick advances the controller to cycle now: runs refresh, the tracker's
// periodic work, and attempts to start one request.
//
// Tick may be driven either every cycle (the reference engine) or only
// at wake times reported by NextEvent (the event engine). In the latter
// case the skipped cycles are provably idle, and the catch-up below
// replays the backoff trajectory a per-cycle driver would have taken, so
// both driving styles observe bit-identical controller behavior.
func (c *Controller) Tick(now dram.Cycle) {
	// Catch up the stalled-scheduler backoff over skipped cycles: a
	// per-cycle driver would have attempted at a, a+2, ... (a = first
	// permitted attempt after the previous Tick) and failed each time —
	// the event engine only skips provably idle cycles — leaving
	// nextConsider at the first grid point at or beyond now.
	if a := max(c.nextConsider, c.lastTick+1); a < now {
		c.nextConsider = a + (now-a+1)/2*2
	}
	c.lastTick = now
	c.refreshTick(now)
	if now < c.nextConsider {
		return
	}
	if !c.trySchedule(now) {
		c.nextConsider = now + 2 // back off half a nanosecond when stalled
	}
}

// refreshTick issues per-rank auto-refresh on the tREFI cadence and runs
// the tracker's periodic hook. Both fire at their exact deadline cycle:
// the per-cycle driver lands on every deadline by construction, and the
// event engine never schedules a wake past one, but the loops below
// catch up on the deadline's own terms should a driver ever arrive late.
func (c *Controller) refreshTick(now dram.Cycle) {
	for r := range c.ranks {
		rk := &c.ranks[r]
		for now >= rk.NextRefAt {
			at := rk.NextRefAt
			until := at + c.tim.TRFC
			rk.Block(until)
			base := r * c.geo.BanksPerRank()
			for b := 0; b < c.geo.BanksPerRank(); b++ {
				c.banks[base+b].Block(until)
				c.markBank(base + b)
				c.blameBlock(base+b, at, until, telemetry.CauseREF, -1)
			}
			rk.NextRefAt += c.tim.TREFI
			c.counters.REF++
			c.stats.Refreshes++
			if c.obs != nil {
				c.obs.ObserveRefresh(at, r)
			}
			c.resetConsider(now) // attempt again this very tick
		}
	}
	for now >= c.nextTrackerTick {
		at := c.nextTrackerTick
		c.actBuf = c.tracker.Tick(at, c.actBuf[:0])
		c.applyActions(at, c.actBuf, -1)
		c.nextTrackerTick += c.tim.TREFI
		if c.tblRep != nil {
			occ := c.tblRep.TableOccupancy()
			c.probe.TableSample(at, occ.Used, occ.Capacity, occ.Resets)
		}
	}
}

// NextEvent returns the next cycle strictly after now at which this
// controller can change visible state: the earliest rank refresh
// deadline, the tracker's periodic tick, or — when requests are pending
// — the first scheduling attempt that could start one. Between now and
// the returned cycle, Tick is a no-op on all observable state. Valid
// immediately after Tick(now).
func (c *Controller) NextEvent(now dram.Cycle) dram.Cycle {
	next := c.nextTrackerTick
	for r := range c.ranks {
		if c.ranks[r].NextRefAt < next {
			next = c.ranks[r].NextRefAt
		}
	}
	if len(c.queue)+len(c.injected) > 0 {
		if t := c.nextAttempt(now); t < next {
			next = t
		}
	}
	if next <= now {
		next = now + 1
	}
	return next
}

// nextAttempt returns the first cycle after now at which trySchedule
// could make progress. Failed attempts back off two cycles, so attempts
// happen on a 2-cycle grid anchored at the next permitted attempt; the
// result is the first grid point at which some request passes every
// scheduling constraint (assuming no state changes before then — any
// state change is itself an event that re-triggers this computation).
func (c *Controller) nextAttempt(now dram.Cycle) dram.Cycle {
	ready := c.earliestReady(now)
	anchor := max(c.nextConsider, now+1)
	if ready <= anchor {
		return anchor
	}
	return anchor + (ready-anchor+1)/2*2
}

// live reports whether r's readiness depends on the query time, so
// the cached ready cycle is only a lower bound: a demand miss under a
// throttler, whose NextAllowed answer may change with time.
func (c *Controller) live(r *Request) bool {
	return c.throt != nil && !r.Injected && r.class != rowHit
}

// bankSide derives r's row-buffer class and bank-side bound from its
// bank's current state: the bank must be ready and unblocked and, when
// r needs an ACT, tRC (plus the PRAC tax) past the bank's last ACT.
//
//dapper:hot
func (c *Controller) bankSide(r *Request) {
	bank := &c.banks[r.fb]
	r.gen = c.bankGen[r.fb]
	t := max(bank.ReadyAt, bank.BlockedUntil)
	switch {
	case bank.OpenRow == r.Loc.Row:
		r.class = rowHit
	case bank.OpenRow == dram.RowNone:
		r.class = rowClosed
	default:
		r.class = rowConflict
	}
	if r.class != rowHit {
		t = max(t, bank.LastActAt+c.actSpacing-c.actDelay[r.class])
	}
	r.bankBound = t
}

// fold completes the ready cycle of each request in q from the
// per-class rank and bus bounds, first rederiving its bank side if the
// bank changed since, and lowers readyMin to match.
//
//dapper:hot
func (c *Controller) fold(q []*Request) {
	gens, ranks, bus := c.bankGen, c.rankBound, &c.busBound
	readyMin, hitMin := c.readyMin, c.hitMin
	for _, r := range q {
		if r.gen != gens[r.fb] {
			c.bankSide(r)
		}
		r.ready = max(r.bankBound, ranks[r.Loc.Rank][r.class], bus[r.class])
		if r.ready < readyMin && !c.live(r) {
			readyMin = r.ready
		}
		if r.class == rowHit && r.ready < hitMin {
			hitMin = r.ready
		}
	}
	c.readyMin, c.hitMin = readyMin, hitMin
}

// refreshReady brings the readiness cache up to date after state
// changes. A request of class k can start at cycle t iff t >= ready:
// its bank side, its rank unblocked and tRRD past the rank's last ACT
// (both less k's ACT offset), and the data bus free by the time its
// burst would begin. Throttling is the one constraint left out.
//
//dapper:hot
func (c *Controller) refreshReady() {
	if !c.stale {
		return
	}
	c.stale = false
	for i := range c.ranks {
		rk := &c.ranks[i]
		rb := &c.rankBound[i]
		rb[rowHit] = rk.BlockedUntil
		rb[rowClosed] = max(rk.BlockedUntil, rk.LastActAt+c.tRRDS)
		rb[rowConflict] = max(rk.BlockedUntil, rk.LastActAt+c.tRRDS-c.actDelay[rowConflict])
	}
	for k := range c.busBound {
		c.busBound[k] = c.dataBusFreeAt - c.lat[k]
	}
	c.readyMin, c.hitMin = dram.Never, dram.Never
	c.fold(c.injected)
	c.fold(c.queue)
}

// earliestReady returns the earliest cycle after now at which pick could
// start some queued request, given frozen controller state: readyMin,
// and for each throttled demand miss the throttler's answer at the
// cycle its other constraints first allow (the bus last, as the
// throttler is asked about the ACT, not the burst).
//
//dapper:hot
func (c *Controller) earliestReady(now dram.Cycle) dram.Cycle {
	c.refreshReady()
	best := max(now+1, c.readyMin)
	if c.throt == nil {
		return best
	}
	for _, r := range c.queue {
		if !c.live(r) {
			continue
		}
		t := max(now+1, r.bankBound, c.rankBound[r.Loc.Rank][r.class])
		t = max(t, c.throt.NextAllowed(t, r.Loc))
		t = max(t, c.busBound[r.class])
		best = min(best, t)
	}
	return best
}

// trySchedule starts at most one request. Returns true if progress was
// made (so the idle backoff only engages when truly stalled).
func (c *Controller) trySchedule(now dram.Cycle) bool {
	c.refreshReady()
	if r := c.pick(c.injected, now); r != nil {
		c.service(r, now)
		c.removeInjected(r)
		c.sampleQueue(now)
		return true
	}
	if r := c.pick(c.queue, now); r != nil {
		c.service(r, now)
		c.removeQueued(r)
		c.sampleQueue(now)
		return true
	}
	return false
}

// pick implements FR-FCFS over a queue: the oldest row-buffer hit that
// can start now, else the oldest request that can start now. The
// readiness cache must be fresh.
//
//dapper:hot
func (c *Controller) pick(q []*Request, now dram.Cycle) *Request {
	var oldest *Request
	hits := c.hitMin <= now // else the first startable request is the answer
	for _, r := range q {
		if r.ready > now {
			continue
		}
		if r.class == rowHit {
			return r // first-ready: serve the oldest hit immediately
		}
		if oldest == nil && (!c.live(r) || c.throt.NextAllowed(now, r.Loc) <= now) {
			if !hits {
				return r
			}
			oldest = r
		}
	}
	return oldest
}

// service starts request r at cycle now, updating all timing state and
// firing the tracker hook if an ACT was issued.
//
//dapper:hot
func (c *Controller) service(r *Request, now dram.Cycle) {
	fb := r.fb
	bank := &c.banks[fb]
	rank := &c.ranks[r.Loc.Rank]
	// Marked before anything below can enqueue tracker traffic, so that
	// traffic never folds against the pre-service bounds.
	c.markBank(fb)

	// The readiness cache is fresh here (trySchedule refreshed it before
	// pick), so r.class is the bank's current row-buffer state.
	latency := c.lat[r.class]
	activated := r.class != rowHit
	conflict := r.class == rowConflict
	if activated {
		actAt := now + c.actDelay[r.class]
		bank.LastActAt = actAt
		rank.LastActAt = actAt
		c.stats.RowMisses++
	} else {
		c.stats.RowHits++
	}
	// Capture who opened the row this request conflicts with before
	// the bank state mutates, and record the new opener.
	opener := -1
	if c.openers != nil {
		opener = int(c.openers[fb])
		if activated {
			if r.Injected {
				c.openers[fb] = -2
			} else {
				c.openers[fb] = int16(r.Core)
			}
		}
	}
	bank.OpenRow = r.Loc.Row

	dataStart := now + latency
	dataEnd := dataStart + c.tim.TBurst
	c.dataBusFreeAt = dataEnd
	// The bank accepts its next column command one burst slot (tCCD)
	// after this one; the shared data bus is what actually spaces
	// back-to-back transfers.
	bank.ReadyAt = dataStart - c.tim.TCL + c.tim.TBurst
	if bank.ReadyAt < now {
		bank.ReadyAt = now
	}
	if r.IsWrite {
		// Write recovery delays the next row change; approximate by
		// extending bank busy slightly.
		bank.ReadyAt = dataEnd + c.tim.TWR/4
	}

	r.Done = true
	r.DoneAt = dataEnd
	// Injected counter traffic is accounted only in InjRD/InjWR: folding
	// it into the demand-side counters would skew the average read
	// latency and bandwidth the figures normalize against (and
	// double-count its energy, which the energy model prices via
	// InjRD/InjWR separately).
	switch {
	case r.Injected && r.IsWrite:
		c.counters.InjWR++
	case r.Injected:
		c.counters.InjRD++
	case r.IsWrite:
		c.counters.WR++
		c.stats.WritesServed++
	default:
		c.counters.RD++
		c.stats.ReadsServed++
		c.stats.TotalReadWait += dataEnd - r.EnqueuedAt
	}

	if c.blame != nil {
		c.emitServe(r, fb, now, dataEnd, latency-c.lat[rowHit], activated, conflict, opener)
	}

	if activated {
		c.counters.ACT++
		if c.obs != nil {
			c.obs.ObserveACT(bank.LastActAt, r.Loc, r.Injected)
		}
		if !r.Injected {
			c.actBuf = c.tracker.OnActivate(bank.LastActAt, r.Loc, c.actBuf[:0])
			c.applyActions(bank.LastActAt, c.actBuf, r.Core)
		}
	}
}

// emitServe reports one serve to the blame probe (c.blame non-nil).
// r is still in its queue here, so the pruning watermark scan skips it
// by identity; with both queues otherwise empty the watermark is `now`
// — never a future cycle, since future-dated block segments must
// survive until every waiter that could overlap them has been served.
func (c *Controller) emitServe(r *Request, fb int, now, dataEnd, extra dram.Cycle, activated, conflict bool, opener int) {
	minEnq := now
	first := true
	for _, q := range c.queue {
		if q != r && (first || q.EnqueuedAt < minEnq) {
			minEnq, first = q.EnqueuedAt, false
		}
	}
	for _, q := range c.injected {
		if q != r && (first || q.EnqueuedAt < minEnq) {
			minEnq, first = q.EnqueuedAt, false
		}
	}
	var tf dram.Cycle
	if activated && !r.Injected {
		tf = r.ThrottleFreeAt
	}
	c.blame.BlameServe(telemetry.ServeEvent{
		Bank:         fb,
		Core:         r.Core,
		Injected:     r.Injected,
		IsWrite:      r.IsWrite,
		Enqueued:     r.EnqueuedAt,
		Start:        now,
		DataEnd:      dataEnd,
		Extra:        extra,
		Conflict:     conflict,
		Opener:       opener,
		ThrottleFree: tf,
		MinEnqueued:  minEnq,
	})
}

// applyActions executes tracker actions: mitigation blocking and
// injected counter traffic. culprit is the core whose activation
// triggered the actions (-1 for periodic tracker ticks); the blame
// layer charges mitigation blocks to it.
func (c *Controller) applyActions(now dram.Cycle, acts []rh.Action, culprit int) {
	for i := range acts {
		a := &acts[i]
		switch a.Kind {
		case rh.RefreshVictims:
			dur := c.tim.TVRR1
			if c.mode == rh.VRR2 {
				dur = c.tim.TVRR2
			}
			c.blockBank(a.Loc, dur, now, telemetry.CauseVRR, culprit)
			c.counters.VRR++
			c.observeMitigation(now, a)
		case rh.RefreshVictimsRFMsb:
			c.blockSameBank(a.Loc, c.tim.TRFMsb, now, telemetry.CauseRFMsb, culprit)
			c.counters.RFMsb++
			c.observeMitigation(now, a)
		case rh.RefreshVictimsDRFMsb:
			c.blockSameBank(a.Loc, c.tim.TDRFMsb, now, telemetry.CauseDRFMsb, culprit)
			c.counters.DRFMsb++
			c.observeMitigation(now, a)
		case rh.BulkRefreshRank:
			c.bulkRefreshRank(now, a.Loc.Rank, culprit)
		case rh.BulkRefreshChannel:
			for rk := 0; rk < c.geo.Ranks; rk++ {
				c.bulkRefreshRank(now, rk, culprit)
			}
		case rh.InjectRead, rh.InjectWrite:
			var req *Request
			if n := len(c.reqPool); n > 0 {
				req = c.reqPool[n-1]
				c.reqPool = c.reqPool[:n-1]
			} else {
				req = new(Request)
			}
			*req = Request{
				Loc:      a.Loc,
				IsWrite:  a.Kind == rh.InjectWrite,
				Injected: true,
			}
			req.Addr = c.geo.Compose(a.Loc)
			c.Enqueue(req, now)
			// Within-tick arrival: the gate below this applyActions call
			// may still attempt at `now` itself, as the per-cycle driver
			// would with a zeroed backoff.
			c.resetConsider(now)
		}
	}
}

func (c *Controller) observeMitigation(now dram.Cycle, a *rh.Action) {
	if c.obs != nil {
		c.obs.ObserveMitigation(now, a.Kind, a.Loc, a.Row)
	}
}

// blockBank blocks the single bank of loc for dur, starting when the
// bank next comes free (mitigations queue behind in-flight work). now is
// the cycle the triggering action is applied at; cause/culprit feed the
// blame layer.
func (c *Controller) blockBank(loc dram.Loc, dur, now dram.Cycle, cause telemetry.BlameCause, culprit int) {
	fb := c.geo.FlatBank(loc)
	bank := &c.banks[fb]
	start := bank.ReadyAt
	if bank.BlockedUntil > start {
		start = bank.BlockedUntil
	}
	bank.Block(start + dur)
	c.markBank(fb)
	c.blameBlock(fb, start, start+dur, cause, culprit)
	c.resetConsider(now)
}

// blockSameBank blocks the same bank index across every bank group of
// loc's rank (RFMsb/DRFMsb semantics, §VI-G).
func (c *Controller) blockSameBank(loc dram.Loc, dur, now dram.Cycle, cause telemetry.BlameCause, culprit int) {
	for bg := 0; bg < c.geo.BankGroups; bg++ {
		l := loc
		l.BankGroup = bg
		c.blockBank(l, dur, now, cause, culprit)
	}
}

// bulkRefreshRank blocks the whole rank for a full row sweep: the
// structure-reset penalty of CoMeT/ABACUS (~2.4ms for 64K-row banks).
func (c *Controller) bulkRefreshRank(now dram.Cycle, rankID int, culprit int) {
	dur := c.tim.BulkSweep(c.geo.RowsPerBank)
	until := now + dur
	rk := &c.ranks[rankID]
	rk.Block(until)
	base := rankID * c.geo.BanksPerRank()
	for b := 0; b < c.geo.BanksPerRank(); b++ {
		c.banks[base+b].Block(until)
		c.markBank(base + b)
		c.blameBlock(base+b, now, until, telemetry.CauseBulk, culprit)
	}
	c.counters.BulkEvents++
	c.counters.BulkRows += uint64(c.geo.BanksPerRank()) * uint64(c.geo.RowsPerBank)
	if c.obs != nil {
		c.obs.ObserveBulkRefresh(now, rankID)
	}
	c.resetConsider(now)
}

func (c *Controller) removeQueued(r *Request) {
	for i, q := range c.queue {
		if q == r {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			return
		}
	}
}

func (c *Controller) removeInjected(r *Request) {
	for i, q := range c.injected {
		if q == r {
			c.injected = append(c.injected[:i], c.injected[i+1:]...)
			// Injected requests are controller-owned (service, telemetry
			// and blame all consumed the values above), so recycle them;
			// tracker counter traffic otherwise allocates one Request per
			// RCC/counter-cache miss for the whole run.
			if len(c.reqPool) < 128 {
				c.reqPool = append(c.reqPool, r)
			}
			return
		}
	}
}

// BankOpenRow exposes a bank's open row for tests.
func (c *Controller) BankOpenRow(flatBank int) uint32 { return c.banks[flatBank].OpenRow }

// BankBlockedUntil exposes a bank's blocked deadline for tests.
func (c *Controller) BankBlockedUntil(flatBank int) dram.Cycle {
	return c.banks[flatBank].BlockedUntil
}
