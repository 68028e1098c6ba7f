// Shared-stream execution: advance many tracker configurations behind
// one system simulation of a workload's memory-request stream, and
// hand back every configuration whose behavior would have perturbed
// that stream the moment it does.
//
// The sharing rests on the tracker contract's narrow influence
// surface. A tracker can change system evolution only through (a) the
// actions it returns from OnActivate/Tick, (b) rh.Throttler's
// NextAllowed, (c) rh.TimingTaxer's ActTax, and (d) rh.LLCReserver's
// LLCReservedFraction. The controller reads its mitigation mode in one
// place only: the duration of a RefreshVictims action (VRR2 or not).
// For two configurations with equal (c) and (d), neither throttling,
// the whole system trajectory is a function of the applied action
// stream: if a rider emits exactly the actions the lead emitted at
// every tracker invocation, and the two modes agree on VRR2 whenever
// those actions include a RefreshVictims, every controller, core,
// cache and telemetry state transition is identical by induction, and
// the rider's Result equals the lead's except for the tracker-owned
// fields (Stats, names, table-occupancy telemetry).
//
// RunBatch exploits this online. The lead runs at full fidelity
// with a tee around each channel's tracker; every rider's tracker is
// fed the same OnActivate/Tick/Stats calls inline and its actions are
// compared on the spot. The first mismatch spills the rider: the spill
// callback hands it back to the caller (the harness pool requeues it
// as an independent run) while the lead carries on. No tracker input
// is buffered; only the security-event stream is, and only while a
// rider with an Observer is still riding, because an observer must
// never see a partial stream before its point is confirmed.
package sim

import (
	"fmt"
	"slices"

	"dapper/internal/dram"
	"dapper/internal/rh"
)

// BatchPoint is one configuration in a shared-stream group: a tracker
// plus its mitigation mode and optional per-channel observer. The base
// Config's Tracker/Mode/Observer are ignored.
type BatchPoint struct {
	Tracker  TrackerFactory
	Mode     rh.MitigationMode
	Observer ObserverFactory
}

// FallbackReason says why a point did not ride the lead's stream.
type FallbackReason string

const (
	// FallbackNone: the point rode the lead in lockstep.
	FallbackNone FallbackReason = ""
	// FallbackLead: the point was the lead, running the stream itself.
	FallbackLead FallbackReason = "lead"
	// FallbackThrottler: the tracker throttles (rh.Throttler), so its
	// scheduling influence cannot be checked against the lead's stream.
	FallbackThrottler FallbackReason = "throttler"
	// FallbackActTax: the point's PRAC ACT tax differs from the lead's.
	FallbackActTax FallbackReason = "act-tax-mismatch"
	// FallbackLLCReserve: the point reserves a different LLC fraction.
	FallbackLLCReserve FallbackReason = "llc-reserve-mismatch"
	// FallbackDiverged: the point's actions departed from the lead's
	// (or a victim refresh would have taken a different duration under
	// its mode) partway through the run.
	FallbackDiverged FallbackReason = "diverged"
)

// BatchOutcome reports how one point's Result was produced. Lockstep
// results are byte-identical to an independent Run of the same
// configuration (the equivalence tests enforce this); every other
// point is the lead or an independent run.
type BatchOutcome struct {
	Lockstep   bool
	Reason     FallbackReason
	DivergedAt dram.Cycle // tracker invocation that diverged (diverged only)
}

// RunBatch runs the first non-throttling point as the lead, with every
// compatible point riding it in lockstep. spill is called, on
// the calling goroutine and at most once per point, the moment a point
// leaves the group: up front for throttlers and ACT-tax or LLC-reserve
// mismatches, mid-run on divergence. A spilled point's Result is left
// zero; the caller runs it independently. Results and outcomes are
// positionally parallel to points. On error (the lead's run failed)
// results are nil and points not yet spilled have no result either.
func RunBatch(base Config, points []BatchPoint, spill func(i int, o BatchOutcome)) ([]Result, []BatchOutcome, error) {
	if len(points) == 0 {
		return nil, nil, fmt.Errorf("sim: RunBatch needs at least one point")
	}
	base = base.withDefaults()
	outcomes := make([]BatchOutcome, len(points))
	leave := func(i int, o BatchOutcome) {
		outcomes[i] = o
		spill(i, o)
	}

	// Probe every point on a live channel-0 instance: the lead and the
	// riders keep theirs, spilled points drop it.
	lead := -1
	var leadTr pointTraits
	first := make([]rh.Tracker, len(points))
	for i := range points {
		t := points[i].factory()(0)
		tr := probeTraits(t)
		switch {
		case tr.throttler:
			leave(i, BatchOutcome{Reason: FallbackThrottler})
			continue
		case lead < 0:
			lead, leadTr = i, tr
			outcomes[i] = BatchOutcome{Reason: FallbackLead}
		case tr.tax != leadTr.tax:
			leave(i, BatchOutcome{Reason: FallbackActTax})
			continue
		case tr.reserve != leadTr.reserve:
			leave(i, BatchOutcome{Reason: FallbackLLCReserve})
			continue
		}
		first[i] = t
	}
	results := make([]Result, len(points))
	if lead < 0 {
		return results, outcomes, nil
	}

	chans := base.Geometry.Channels
	ls := &lockstep{
		leadVRR2:  points[lead].Mode == rh.VRR2,
		statCalls: make([]int, chans),
		spill:     leave,
	}
	if base.TelemetryWindow > 0 {
		ls.window = base.TelemetryWindow
		ls.nWin = int((base.Warmup + base.Measure + base.TelemetryWindow - 1) / base.TelemetryWindow)
	}
	for i := range points {
		if i == lead || first[i] == nil {
			continue
		}
		ls.riders = append(ls.riders, newRider(i, points[i], first[i], chans, ls.nWin))
	}
	leadTrackers := make([]rh.Tracker, chans)
	leadTrackers[0] = first[lead]
	for ch := 1; ch < chans; ch++ {
		leadTrackers[ch] = points[lead].factory()(ch)
	}

	cfg := base
	cfg.Tracker = func(ch int) rh.Tracker { return leadTrackers[ch] }
	cfg.Mode = points[lead].Mode
	cfg.Observer = points[lead].Observer
	var wrap func(int, rh.Tracker) rh.Tracker
	var extraObs func(int) rh.Observer
	if len(ls.riders) > 0 {
		wrap = ls.wrap
		for _, r := range ls.riders {
			if r.observer != nil {
				ls.nObs++
			}
		}
		if ls.nObs > 0 {
			ls.obs = make([][]obsEvent, chans)
			extraObs = func(ch int) rh.Observer { return &recordingObserver{ls: ls, ch: ch} }
		}
	}
	leadRes, err := run(cfg, wrap, extraObs)
	if err != nil {
		return nil, outcomes, err
	}
	results[lead] = leadRes

	for _, n := range ls.statCalls {
		if n != 2 {
			// The engines snapshot exactly twice; anything else means the
			// riders' measured windows are unknown — run them alone.
			for _, r := range ls.riders {
				leave(r.idx, BatchOutcome{Reason: FallbackDiverged})
			}
			ls.riders = nil
			break
		}
	}
	for _, r := range ls.riders {
		results[r.idx] = r.result(leadRes, ls)
		outcomes[r.idx] = BatchOutcome{Lockstep: true}
	}
	return results, outcomes, nil
}

func (p BatchPoint) factory() TrackerFactory {
	if p.Tracker == nil {
		return NopFactory
	}
	return p.Tracker
}

// pointTraits are the stream-shaping properties of a configuration.
type pointTraits struct {
	throttler bool
	tax       dram.Cycle
	reserve   float64
}

func probeTraits(t rh.Tracker) pointTraits {
	var tr pointTraits
	_, tr.throttler = t.(rh.Throttler)
	if x, ok := t.(rh.TimingTaxer); ok {
		tr.tax = x.ActTax()
	}
	if x, ok := t.(rh.LLCReserver); ok {
		tr.reserve = x.LLCReservedFraction()
	}
	return tr
}

// lockstep is the shared state of one lead run's tees.
type lockstep struct {
	riders    []*rider // still riding, in point order
	leadVRR2  bool
	statCalls []int // Stats() calls seen per channel (warmup, final)
	spill     func(i int, o BatchOutcome)
	// window/nWin mirror the telemetry recorder's grid so riders' table
	// samples land in the lead's windows (nWin 0: telemetry off).
	window dram.Cycle
	nWin   int
	// obs buffers the security-event stream per channel while nObs
	// riders with an observer are still riding.
	obs  [][]obsEvent
	nObs int
}

// rider is one point advancing behind the lead.
type rider struct {
	idx      int
	trackers []rh.Tracker
	tables   []rh.TableReporter // per channel; nil without telemetry or reporting
	occ      []tableTrack
	observer ObserverFactory
	vrr2     bool
	buf      []rh.Action
	snaps    [2]rh.Stats // warmup and final, summed over channels
}

func newRider(idx int, p BatchPoint, ch0 rh.Tracker, chans, nWin int) *rider {
	r := &rider{
		idx:      idx,
		trackers: make([]rh.Tracker, chans),
		observer: p.Observer,
		vrr2:     p.Mode == rh.VRR2,
		buf:      make([]rh.Action, 0, 16),
	}
	r.trackers[0] = ch0
	for ch := 1; ch < chans; ch++ {
		r.trackers[ch] = p.factory()(ch)
	}
	if nWin > 0 {
		r.tables = make([]rh.TableReporter, chans)
		r.occ = make([]tableTrack, chans)
		for ch, t := range r.trackers {
			if tab, ok := t.(rh.TableReporter); ok {
				r.tables[ch] = tab
				r.occ[ch] = tableTrack{used: make([]int, nWin), resets: make([]uint64, nWin)}
				for w := range r.occ[ch].used {
					r.occ[ch].used[w] = -1 // no sample in this window yet
				}
			}
		}
	}
	return r
}

// agree reports whether the rider's last actions (r.buf) are the
// lead's, under the rider's own mode.
//
//dapper:hot
func (ls *lockstep) agree(r *rider, want []rh.Action) bool {
	if len(r.buf) != len(want) {
		return false
	}
	for k := range want {
		if r.buf[k] != want[k] {
			return false
		}
	}
	if r.vrr2 != ls.leadVRR2 {
		for k := range want {
			if want[k].Kind == rh.RefreshVictims {
				return false
			}
		}
	}
	return true
}

// feed hands one lead OnActivate (tick false) or Tick (tick true) to
// every rider and spills those whose actions disagree. After a tick it
// samples the survivors' table occupancy exactly where the live
// controller samples the lead's.
//
//dapper:hot
func (ls *lockstep) feed(ch int, tick bool, now dram.Cycle, loc dram.Loc, want []rh.Action) {
	k := 0
	for _, r := range ls.riders {
		if tick {
			r.buf = r.trackers[ch].Tick(now, r.buf[:0])
		} else {
			r.buf = r.trackers[ch].OnActivate(now, loc, r.buf[:0])
		}
		if !ls.agree(r, want) {
			ls.diverge(r, now)
			continue
		}
		if tick && r.tables != nil && r.tables[ch] != nil {
			r.sample(ch, now, ls)
		}
		ls.riders[k] = r
		k++
	}
	if k < len(ls.riders) {
		clear(ls.riders[k:])
		ls.riders = ls.riders[:k]
	}
}

func (r *rider) sample(ch int, now dram.Cycle, ls *lockstep) {
	occ := r.tables[ch].TableOccupancy()
	w := 0
	if now >= 0 {
		w = min(int(now/ls.window), ls.nWin-1)
	}
	tt := &r.occ[ch]
	tt.sampled = true
	tt.used[w] = occ.Used
	tt.resets[w] = occ.Resets
	tt.cap = occ.Capacity
}

func (ls *lockstep) diverge(r *rider, now dram.Cycle) {
	if r.observer != nil {
		if ls.nObs--; ls.nObs == 0 {
			clear(ls.obs) // nobody left to replay into
		}
	}
	ls.spill(r.idx, BatchOutcome{Reason: FallbackDiverged, DivergedAt: now})
}

// teeTracker wraps the lead's per-channel tracker, forwarding every
// call and feeding it to the riders. It never implements Throttler
// (the lead is chosen non-throttling); TableReporter is forwarded
// conditionally via teeTableTracker, because the controller
// type-asserts it and an unconditional implementation would make
// non-table trackers emit spurious table samples.
type teeTracker struct {
	inner rh.Tracker
	ch    int
	ls    *lockstep
}

func (ls *lockstep) wrap(ch int, t rh.Tracker) rh.Tracker {
	tt := teeTracker{inner: t, ch: ch, ls: ls}
	if _, ok := t.(rh.TableReporter); ok {
		return &teeTableTracker{tt}
	}
	return &tt
}

func (t *teeTracker) Name() string { return t.inner.Name() }

func (t *teeTracker) OnActivate(now dram.Cycle, loc dram.Loc, buf []rh.Action) []rh.Action {
	start := len(buf)
	out := t.inner.OnActivate(now, loc, buf)
	if len(t.ls.riders) > 0 {
		t.ls.feed(t.ch, false, now, loc, out[start:])
	}
	return out
}

func (t *teeTracker) Tick(now dram.Cycle, buf []rh.Action) []rh.Action {
	start := len(buf)
	out := t.inner.Tick(now, buf)
	if len(t.ls.riders) > 0 {
		t.ls.feed(t.ch, true, now, dram.Loc{}, out[start:])
	}
	return out
}

// Stats records the riders' side of the engine's statistics snapshot
// (warmup, then final) before answering for the lead.
func (t *teeTracker) Stats() rh.Stats {
	n := t.ls.statCalls[t.ch]
	t.ls.statCalls[t.ch]++
	if n < len(rider{}.snaps) {
		for _, r := range t.ls.riders {
			accumStats(&r.snaps[n], r.trackers[t.ch].Stats())
		}
	}
	return t.inner.Stats()
}

type teeTableTracker struct {
	teeTracker
}

func (t *teeTableTracker) TableOccupancy() rh.TableOccupancy {
	return t.inner.(rh.TableReporter).TableOccupancy()
}

// Buffered observer events, replayed into a rider's observer once the
// rider is confirmed in lockstep at the end of the run.
const (
	oACT uint8 = iota
	oMit
	oRef
	oBulk
)

type obsEvent struct {
	kind     uint8
	now      dram.Cycle
	loc      dram.Loc
	row      uint32
	akind    rh.ActionKind
	rank     int
	injected bool
}

type recordingObserver struct {
	ls *lockstep
	ch int
}

func (o *recordingObserver) add(e obsEvent) {
	if o.ls.nObs > 0 {
		o.ls.obs[o.ch] = append(o.ls.obs[o.ch], e)
	}
}

func (o *recordingObserver) ObserveACT(now dram.Cycle, loc dram.Loc, injected bool) {
	o.add(obsEvent{kind: oACT, now: now, loc: loc, injected: injected})
}

func (o *recordingObserver) ObserveMitigation(now dram.Cycle, kind rh.ActionKind, loc dram.Loc, row uint32) {
	o.add(obsEvent{kind: oMit, now: now, loc: loc, row: row, akind: kind})
}

func (o *recordingObserver) ObserveRefresh(now dram.Cycle, rank int) {
	o.add(obsEvent{kind: oRef, now: now, rank: rank})
}

func (o *recordingObserver) ObserveBulkRefresh(now dram.Cycle, rank int) {
	o.add(obsEvent{kind: oBulk, now: now, rank: rank})
}

// tableTrack accumulates a rider's table-occupancy samples per
// telemetry window, mirroring the live recorder (last sample in a
// window wins, used -1 marks a window without one; the track exists
// only once a sample lands).
type tableTrack struct {
	sampled bool
	used    []int
	resets  []uint64
	cap     int
}

// result assembles a confirmed rider's Result: the lead's (cloned)
// system-side fields plus the rider's own tracker-side fields. Only now
// does the rider's observer see the buffered stream, so a diverging
// point's observer (e.g. a security audit accumulating state) never
// sees a partial stream before its independent rerun.
func (r *rider) result(lead Result, ls *lockstep) Result {
	if r.observer != nil {
		for ch, evs := range ls.obs {
			o := r.observer(ch)
			if o == nil {
				continue
			}
			for i := range evs {
				e := &evs[i]
				switch e.kind {
				case oACT:
					o.ObserveACT(e.now, e.loc, e.injected)
				case oMit:
					o.ObserveMitigation(e.now, e.akind, e.loc, e.row)
				case oRef:
					o.ObserveRefresh(e.now, e.rank)
				case oBulk:
					o.ObserveBulkRefresh(e.now, e.rank)
				}
			}
		}
	}

	res := Result{
		IPC:          slices.Clone(lead.IPC),
		Instructions: slices.Clone(lead.Instructions),
		Cycles:       lead.Cycles,
		Counters:     lead.Counters,
		Mem:          lead.Mem,
		LLCHitRate:   lead.LLCHitRate,
	}
	for _, t := range r.trackers {
		res.TrackerNames = append(res.TrackerNames, t.Name())
	}
	res.Tracker = r.snaps[1]
	subStats(&res.Tracker, r.snaps[0])
	if lead.Attribution != nil {
		res.Attribution = lead.Attribution.Clone()
	}
	if lead.Series != nil {
		s := lead.Series.Clone()
		nWin := s.NumWindows()
		for ch := range s.Channels {
			cs := &s.Channels[ch]
			cs.TableUsed, cs.TableResets, cs.TableCap = nil, nil, 0
			if r.occ == nil || !r.occ[ch].sampled {
				continue
			}
			// Forward-fill exactly like the live recorder's Finish.
			tt := &r.occ[ch]
			cs.TableUsed = make([]int, nWin)
			cs.TableResets = make([]uint64, nWin)
			used, resets := -1, uint64(0)
			for w := 0; w < nWin; w++ {
				if tt.used[w] >= 0 {
					used, resets = tt.used[w], tt.resets[w]
				}
				cs.TableUsed[w] = used
				cs.TableResets[w] = resets
			}
			cs.TableCap = tt.cap
		}
		res.Series = s
	}
	return res
}

func accumStats(dst *rh.Stats, s rh.Stats) {
	dst.Activations += s.Activations
	dst.Mitigations += s.Mitigations
	dst.VictimRefreshes += s.VictimRefreshes
	dst.BulkResets += s.BulkResets
	dst.InjectedReads += s.InjectedReads
	dst.InjectedWrites += s.InjectedWrites
	dst.Throttled += s.Throttled
}
