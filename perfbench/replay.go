package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"dapper/internal/attack"
	"dapper/internal/cache"
	"dapper/internal/cpu"
	"dapper/internal/dram"
	"dapper/internal/exp"
	"dapper/internal/harness"
	"dapper/internal/rh"
	"dapper/internal/secaudit"
	"dapper/internal/sim"
	"dapper/internal/workloads"
)

// trackerIDs maps descriptor tracker names to exp.TrackerFactory ids for
// the trackers the replays rebuild.
var trackerIDs = map[string]string{
	"none":        "none",
	"DAPPER-H":    "dapper-h",
	"DAPPER-S":    "dapper-s",
	"BlockHammer": "blockhammer",
	"Hydra":       "hydra",
}

// captureLimit bounds the recorded address stream of one replayed point.
const captureLimit = 1 << 20

// pointConfig rebuilds the sim.Config of one descriptor from public
// constructors only, as exp would build it, and reports whether the
// shadow oracle must be attached.
func pointConfig(d harness.Descriptor) (sim.Config, bool, error) {
	geo := d.Geometry
	wl, err := workloads.ByName(d.Workload)
	if err != nil {
		return sim.Config{}, false, err
	}
	mode, err := rh.ParseMode(d.Mode)
	if err != nil {
		return sim.Config{}, false, err
	}
	var traces []cpu.Trace
	if d.Benign4 {
		traces = sim.BenignTraces(wl, 4, geo, d.Seed)
	} else {
		traces = sim.BenignTraces(wl, 3, geo, d.Seed)
		kind, params, err := attackOf(d)
		if err != nil {
			return sim.Config{}, false, err
		}
		atk, err := attack.NewTrace(attack.Config{Geometry: geo, NRH: d.NRH, Kind: kind, Params: params, Seed: d.Seed})
		if err != nil {
			return sim.Config{}, false, err
		}
		traces = append(traces, atk)
	}
	id, ok := trackerIDs[d.Tracker]
	if !ok {
		return sim.Config{}, false, fmt.Errorf("replay: no tracker id for %q", d.Tracker)
	}
	fac, err := exp.TrackerFactory(id, geo, d.NRH, mode)
	if err != nil {
		return sim.Config{}, false, err
	}
	cfg := sim.Config{
		Geometry:    geo,
		LLCBytes:    d.LLCBytes,
		Tracker:     fac,
		Mode:        mode,
		Traces:      traces,
		Warmup:      d.Warmup,
		Measure:     d.Measure,
		Attribution: d.Attr != "",
	}
	if cfg.Engine, err = sim.ParseEngine(d.Engine); err != nil {
		return sim.Config{}, false, err
	}
	if d.Telemetry != "" {
		w, err := strconv.ParseInt(strings.TrimPrefix(d.Telemetry, "w"), 10, 64)
		if err != nil {
			return sim.Config{}, false, fmt.Errorf("replay: telemetry tag %q: %w", d.Telemetry, err)
		}
		cfg.TelemetryWindow = dram.Cycle(w)
	}
	return cfg, d.Audit != "", nil
}

// attackOf resolves a descriptor's companion attack. The parametric point
// is matched against the default audit attacks by its canonical encoding.
func attackOf(d harness.Descriptor) (attack.Kind, attack.Params, error) {
	if d.AttackParams != "" {
		for _, a := range exp.AuditAttacks() {
			if a.Point.Kind == attack.Parametric && a.Point.Params.Canonical() == d.AttackParams {
				return attack.Parametric, a.Point.Params, nil
			}
		}
		return 0, attack.Params{}, fmt.Errorf("replay: unknown parametric attack %s", d.AttackParams)
	}
	k, err := attack.ParseKind(d.Attack)
	return k, attack.Params{}, err
}

// runPoint runs a rebuilt config, attaching the shadow oracle when the
// descriptor asks for it, as exp does.
func runPoint(cfg sim.Config, audited bool, d harness.Descriptor) (sim.Result, error) {
	if !audited {
		return sim.Run(cfg)
	}
	mode, err := rh.ParseMode(d.Mode)
	if err != nil {
		return sim.Result{}, err
	}
	a, err := secaudit.New(secaudit.Config{Geometry: d.Geometry, NRH: d.NRH, Mode: mode})
	if err != nil {
		return sim.Result{}, err
	}
	cfg.Observer = a.Observer
	res, err := sim.Run(cfg)
	if err != nil {
		return res, err
	}
	res.Audit = a.Report()
	return res, nil
}

// trackerClock accumulates host time inside tracker calls.
type trackerClock struct {
	actNs, actCalls   int64
	tickNs, tickCalls int64
}

// timedTracker wraps an rh.Tracker to time OnActivate and Tick. The
// optional extensions the system probes by type assertion must be
// forwarded only when the inner tracker has them (see wrapTimed).
type timedTracker struct {
	inner rh.Tracker
	clk   *trackerClock
}

func (t *timedTracker) Name() string    { return t.inner.Name() }
func (t *timedTracker) Stats() rh.Stats { return t.inner.Stats() }

func (t *timedTracker) OnActivate(now dram.Cycle, loc dram.Loc, buf []rh.Action) []rh.Action {
	s := time.Now()
	out := t.inner.OnActivate(now, loc, buf)
	t.clk.actNs += int64(time.Since(s))
	t.clk.actCalls++
	return out
}

func (t *timedTracker) Tick(now dram.Cycle, buf []rh.Action) []rh.Action {
	s := time.Now()
	out := t.inner.Tick(now, buf)
	t.clk.tickNs += int64(time.Since(s))
	t.clk.tickCalls++
	return out
}

// ActTax and LLCReservedFraction are safe to forward unconditionally: the
// system treats a zero tax and a zero reservation as absent.
func (t *timedTracker) ActTax() dram.Cycle {
	if x, ok := t.inner.(rh.TimingTaxer); ok {
		return x.ActTax()
	}
	return 0
}

func (t *timedTracker) LLCReservedFraction() float64 {
	if x, ok := t.inner.(rh.LLCReserver); ok {
		return x.LLCReservedFraction()
	}
	return 0
}

type timedThrottler struct{ *timedTracker }

func (t timedThrottler) NextAllowed(now dram.Cycle, loc dram.Loc) dram.Cycle {
	return t.inner.(rh.Throttler).NextAllowed(now, loc)
}

type timedTable struct{ *timedTracker }

func (t timedTable) TableOccupancy() rh.TableOccupancy {
	return t.inner.(rh.TableReporter).TableOccupancy()
}

type timedThrottlerTable struct{ *timedTracker }

func (t timedThrottlerTable) NextAllowed(now dram.Cycle, loc dram.Loc) dram.Cycle {
	return t.inner.(rh.Throttler).NextAllowed(now, loc)
}

func (t timedThrottlerTable) TableOccupancy() rh.TableOccupancy {
	return t.inner.(rh.TableReporter).TableOccupancy()
}

// wrapTimed returns a timing wrapper that implements exactly the optional
// Throttler and TableReporter interfaces the inner tracker implements: the
// controller changes behaviour on their presence alone.
func wrapTimed(inner rh.Tracker, clk *trackerClock) rh.Tracker {
	t := &timedTracker{inner: inner, clk: clk}
	_, thr := inner.(rh.Throttler)
	_, tab := inner.(rh.TableReporter)
	switch {
	case thr && tab:
		return timedThrottlerTable{t}
	case thr:
		return timedThrottler{t}
	case tab:
		return timedTable{t}
	}
	return t
}

// captureTrace records the records a core consumes, in global call order
// (all cores share one buffer; the simulator is single-threaded).
type captureTrace struct {
	inner cpu.Trace
	buf   *[]cpu.Record
}

func (c captureTrace) Next() cpu.Record {
	r := c.inner.Next()
	if len(*c.buf) < captureLimit {
		*c.buf = append(*c.buf, r)
	}
	return r
}

// replayStats is what the replays of one workload measured.
type replayStats struct {
	Points, Discarded  int
	Clock              trackerClock
	CacheNs, CacheOps  int64
	DecompNs, DecompOp int64
	TraceNs, TraceRecs int64
	TapsNs, PlainNs    int64  // every point run with and without taps
	Escapes            uint64 // oracle escapes in tap runs of untapped points
	Mismatches         []string
}

var replaySink uint64

// replayPoint rebuilds one point with a timed tracker and captured traces,
// checks its Result against the digest of the traced run, and replays the
// captured stream through the LLC and the address mapping. A point whose
// Result differs is discarded and reported.
func replayPoint(d harness.Descriptor, want string, rs *replayStats) error {
	cfg, audited, err := pointConfig(d)
	if err != nil {
		return err
	}
	var clk trackerClock
	var stream []cpu.Record
	if fac := cfg.Tracker; fac != nil {
		cfg.Tracker = func(ch int) rh.Tracker { return wrapTimed(fac(ch), &clk) }
	}
	wrapped := make([]cpu.Trace, len(cfg.Traces))
	for i, tr := range cfg.Traces {
		wrapped[i] = captureTrace{inner: tr, buf: &stream}
	}
	cfg.Traces = wrapped
	res, err := runPoint(cfg, audited, d)
	if err != nil {
		return fmt.Errorf("replay %s: %w", d, err)
	}
	got, err := digest(res)
	if err != nil {
		return err
	}
	rs.Points++
	if got != want {
		rs.Discarded++
		rs.Mismatches = append(rs.Mismatches, fmt.Sprintf("%s: replay digest %s, traced run %s", d, got, want))
		return nil
	}
	rs.Clock.actNs += clk.actNs
	rs.Clock.actCalls += clk.actCalls
	rs.Clock.tickNs += clk.tickNs
	rs.Clock.tickCalls += clk.tickCalls

	llcBytes := d.LLCBytes
	if llcBytes == 0 {
		llcBytes = 8 << 20
	}
	llc, err := cache.NewBySize(llcBytes, 16, d.Geometry.LineBytes)
	if err != nil {
		return err
	}
	line := uint64(d.Geometry.LineBytes)
	start := time.Now()
	ops := int64(0)
	for _, r := range stream {
		if r.NonCacheable {
			continue
		}
		key := r.Addr / line
		if !llc.Contains(key) {
			replaySink++
		}
		llc.Access(key, r.IsWrite)
		ops++
	}
	rs.CacheNs += int64(time.Since(start))
	rs.CacheOps += ops
	start = time.Now()
	for _, r := range stream {
		replaySink += uint64(d.Geometry.Decompose(r.Addr).Row)
	}
	rs.DecompNs += int64(time.Since(start))
	rs.DecompOp += int64(len(stream))

	// Trace generation alone, on fresh traces of the same point.
	fresh, _, err := pointConfig(d)
	if err != nil {
		return err
	}
	per := len(stream) / len(fresh.Traces)
	start = time.Now()
	for _, tr := range fresh.Traces {
		for i := 0; i < per; i++ {
			replaySink += tr.Next().Addr
		}
	}
	rs.TraceNs += int64(time.Since(start))
	rs.TraceRecs += int64(per * len(fresh.Traces))

	// Tap cost: the same point with the oracle, telemetry and attribution
	// on, then with all three off. A point that ran without taps gets them
	// as the audit workload sets them, and its oracle escapes are counted
	// here, since its run had no oracle.
	on, _, err := pointConfig(d)
	if err != nil {
		return err
	}
	if !audited {
		on.TelemetryWindow, on.Attribution = auditWindow, true
	}
	start = time.Now()
	tapped, err := runPoint(on, true, d)
	if err != nil {
		return fmt.Errorf("replay %s with taps: %w", d, err)
	}
	rs.TapsNs += int64(time.Since(start))
	if !audited {
		rs.Escapes += tapped.Audit.Escapes
	}
	off, _, err := pointConfig(d)
	if err != nil {
		return err
	}
	off.TelemetryWindow, off.Attribution = 0, false
	start = time.Now()
	if _, err := sim.Run(off); err != nil {
		return err
	}
	rs.PlainNs += int64(time.Since(start))
	return nil
}

// replaySample picks the points a workload replays: the first point (in
// descriptor-key order) of each listed tracker name.
func replaySample(w workload, recs []harness.Descriptor) []harness.Descriptor {
	var out []harness.Descriptor
	for _, name := range w.replay {
		for _, d := range recs {
			if d.Tracker == name {
				out = append(out, d)
				break
			}
		}
	}
	return out
}
