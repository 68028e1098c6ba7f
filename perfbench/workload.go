package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"dapper/internal/dram"
	"dapper/internal/exp"
	"dapper/internal/harness"
	"dapper/internal/rh"
	"dapper/internal/sim"
	"dapper/internal/telemetry"
	"dapper/internal/workloads"
)

// workload is one benchmark input set. Figure workloads regenerate tables
// through exp.Generate; the audit workload runs the conformance matrix
// through exp.SecurityRequest.Jobs. Both run on one harness.Pool with a
// worker per CPU and a cold in-memory result cache, as the cmds do.
// README.md records why each workload exists and which layer it loads.
type workload struct {
	name    string
	figs    []string // exp.Generate ids, in order; empty for the audit
	audit   bool
	profile func(seed uint64) exp.Profile
	// replay lists the descriptor tracker names whose points the traced
	// run rebuilds and replays (see replay.go).
	replay []string
	// unlisted says why the workload is left out of BENCHMARK.json, where
	// every listed workload must pass its output check; empty if listed.
	unlisted string
}

// Audit matrix settings: NRH 125 on 429.mcf, VRR-BR1, every known tracker
// against every default attack, with both taps on. The quick profile's
// windows are halved (50 us warmup, 200 us measured) so one run takes
// about as long as a run of the other workloads.
const (
	auditWorkload = "429.mcf"
	auditNRH      = 125
)

var auditWindow = dram.US(10)

// expLane is the tracer lane of the spans the benchmark records around each
// exp.Generate call or audit pool pass, clear of the pool's worker lanes.
const expLane = 1 << 20

var workloadList = []workload{
	{
		name: "benign",
		figs: []string{"fig11", "fig14", "fig15"},
		profile: func(seed uint64) exp.Profile {
			p := exp.Quick()
			p.Workloads = p.Workloads[:4]
			p.SweepWorkloads = p.SweepWorkloads[:2]
			p.Seed = seed
			return p
		},
		replay: []string{"DAPPER-H", "BlockHammer"},
	},
	{
		name: "attack",
		figs: []string{"fig9", "fig10"},
		profile: func(seed uint64) exp.Profile {
			p := exp.Quick()
			p.Workloads = p.Workloads[:2]
			p.Seed = seed
			return p
		},
		replay: []string{"DAPPER-S", "DAPPER-H"},
	},
	{
		name:  "audit",
		audit: true,
		profile: func(seed uint64) exp.Profile {
			p := exp.Quick()
			p.Warmup = dram.US(50)
			p.Measure = dram.US(200)
			p.Seed = seed
			p.TelemetryWindow = auditWindow
			p.Attribution = true
			return p
		},
		replay: []string{"DAPPER-H", "Hydra", "none"},
		unlisted: "the audit-smoke -check rule fails at this commit: DAPPER-H, PARA and PrIDE " +
			"escape at NRH 125 on most seeds (README.md, Output check)",
	},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloadList {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// simRecord is one unique simulation of a run, as the pool reported it.
type simRecord struct {
	Desc   harness.Descriptor
	Result sim.Result
}

// execution is everything one run of a workload produced.
type execution struct {
	Tables  []string    // rendered figure tables, or the audit verdict lines
	Records []simRecord // sorted by descriptor key
	Errors  []string    // failed passes or cells
	// AuditFailed counts matrix cells that break the conformance rule:
	// the insecure baseline must escape, every real tracker must not.
	AuditFailed     int
	AuditViolations []string
	Stats           harness.Stats
	Workers         int
}

// execOptions are the observation hooks of a run. All zero is the timed
// run: no tracer, no cancellation.
type execOptions struct {
	tracer *telemetry.Tracer
	// setupOnly cancels the pool before anything is submitted, so every
	// job completes with the context's error without simulating: the run
	// goes through profile resolution, spec expansion and pool start, then
	// stops where the first simulation would begin.
	setupOnly bool
	// outDir receives the audit's JSONL and CSV sinks (required).
	outDir string
}

// execute runs workload w once with the given seed.
func execute(w workload, seed uint64, opts execOptions) (*execution, error) {
	p := w.profile(seed)
	cache, err := harness.NewCache("")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if opts.setupOnly {
		cancel()
	}
	var mu sync.Mutex
	var recs []simRecord
	popts := harness.Options{
		Workers: runtime.NumCPU(),
		Cache:   cache,
		Tracer:  opts.tracer,
		Context: ctx,
		OnResult: func(d harness.Descriptor, r sim.Result) {
			mu.Lock()
			recs = append(recs, simRecord{Desc: d, Result: r})
			mu.Unlock()
		},
	}
	ex := &execution{Workers: harness.NormalizeJobs(popts.Workers)}
	if w.audit {
		err = executeAudit(p, popts, opts, ex)
	} else {
		err = executeFigures(w.figs, p, popts, opts, ex)
	}
	if err != nil {
		return nil, err
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Desc.Key() < recs[j].Desc.Key() })
	ex.Records = recs
	return ex, nil
}

func executeFigures(figs []string, p exp.Profile, popts harness.Options, opts execOptions, ex *execution) error {
	pool := harness.NewPool(popts)
	for _, id := range figs {
		start := time.Now()
		tb, err := exp.Generate(id, p, pool)
		opts.span(id, start)
		if err != nil {
			ex.Errors = append(ex.Errors, err.Error())
			continue
		}
		ex.Tables = append(ex.Tables, tb.String())
	}
	if err := pool.Close(); err != nil {
		return err
	}
	ex.Stats = pool.Stats()
	return nil
}

func executeAudit(p exp.Profile, popts harness.Options, opts execOptions, ex *execution) error {
	start := time.Now()
	mcf, err := workloads.ByName(auditWorkload)
	if err != nil {
		return err
	}
	req := exp.SecurityRequest{
		Trackers: exp.KnownTrackers(),
		Attacks:  exp.AuditAttacks(),
		Modes:    []rh.MitigationMode{rh.VRR1},
		NRHs:     []uint32{auditNRH},
		Workload: mcf,
		Profile:  p,
	}
	jobs, cells, err := req.Jobs()
	if err != nil {
		return err
	}
	sinks, err := harness.FileSinks(opts.outDir, "audit.jsonl", "audit.csv")
	if err != nil {
		return err
	}
	popts.Sinks = sinks
	pool := harness.NewPool(popts)
	futs := make([]*harness.Future, len(jobs))
	for i, job := range jobs {
		futs[i] = pool.Submit(job)
	}
	escapes := make(map[string]uint64)
	var order []string
	for i, f := range futs {
		res, err := f.Wait()
		c := cells[i]
		if _, seen := escapes[c.Tracker]; !seen {
			order = append(order, c.Tracker)
			escapes[c.Tracker] = 0
		}
		switch {
		case err != nil:
			ex.Errors = append(ex.Errors, fmt.Sprintf("audit %s/%s: %v", c.Tracker, c.Attack, err))
		case res.Audit == nil:
			ex.Errors = append(ex.Errors, fmt.Sprintf("audit %s/%s: no audit report", c.Tracker, c.Attack))
		default:
			escapes[c.Tracker] += res.Audit.Escapes
			ex.Tables = append(ex.Tables, fmt.Sprintf("%s %s escapes=%d max=%d", c.Tracker, c.Attack,
				res.Audit.Escapes, res.Audit.MaxCount))
		}
	}
	cerr := pool.Close()
	opts.span("audit", start)
	if cerr != nil {
		return cerr
	}
	ex.Stats = pool.Stats()
	if opts.setupOnly {
		return nil
	}
	ex.AuditViolations = auditViolations(order, escapes)
	ex.AuditFailed = len(ex.AuditViolations) * len(req.Attacks)
	return nil
}

// auditViolations applies the audit-smoke -check rule to per-tracker
// escape totals: the "none" baseline must escape and every real tracker
// must hold. It returns one line per tracker that breaks the rule; each
// such tracker counts all of its cells as failed.
func auditViolations(trackers []string, escapes map[string]uint64) []string {
	var bad []string
	for _, id := range trackers {
		n := escapes[id]
		if (id == "none") == (n == 0) {
			bad = append(bad, fmt.Sprintf("%s: %d escapes", id, n))
		}
	}
	return bad
}

// span records one exp pass on the benchmark's own tracer lane.
func (o execOptions) span(name string, start time.Time) {
	if o.tracer != nil {
		o.tracer.Span(expLane, name, "exp", start, time.Now(), nil)
	}
}
