package exp

import (
	"fmt"

	"dapper/internal/attack"
	"dapper/internal/cpu"
	"dapper/internal/dram"
	"dapper/internal/harness"
	"dapper/internal/secaudit"
	"dapper/internal/sim"
	"dapper/internal/workloads"
)

// runSpec is one simulation request.
type runSpec struct {
	workload workloads.Workload
	geo      dram.Geometry
	llcBytes int // 0 = default 8MB
	nrh      uint32
	tracker  trackerSpec // zero-value Factory = insecure
	attack   attack.Kind // None = idle 4th core; benign-only runs use 4 copies
	// attackParams is the attack-space point driven when attack is
	// Parametric (the adversary search path); ignored otherwise.
	attackParams attack.Params
	benign4      bool // 4 homogeneous copies instead of 3+companion
	// baselineWithAttack selects the paper's two normalizations:
	// false (Figures 1/3/4/5): baseline = insecure system with an idle
	// companion, so the bar shows TOTAL damage (attacker bandwidth +
	// mitigation side effects).
	// true (Figures 9/10/12/13/16/17, Table IV): baseline = insecure
	// system with the SAME attacker running, so the bar isolates what
	// the tracker ADDS — which is how DAPPER-H can sit at <1% with a
	// hammering core active.
	baselineWithAttack bool
	warmup             dram.Cycle
	measure            dram.Cycle
	seed               uint64
	engine             sim.Engine // loop strategy (event if empty)
	// audit attaches the shadow security oracle (internal/secaudit) to
	// the run and embeds its report in the Result; auditInjected
	// additionally charges tracker counter traffic against the ledger.
	audit         bool
	auditInjected bool
	// telemetryWindow >0 attaches the in-sim windowed sampler (the
	// Result gains a Series; the descriptor gains a telemetry tag).
	telemetryWindow dram.Cycle
	// attribution attaches the slowdown-attribution layer (the Result
	// gains CPI stacks and the blame matrix; the descriptor gains an
	// attr tag).
	attribution bool
}

// auditTag versions the oracle for cache keys: bump it whenever the
// ledger semantics change so stale audited results never get replayed.
const auditTag = "v1"

// auditTagFor returns a descriptor's Audit field for an audit flag
// pair (shared by the homogeneous runSpec and the mix run spec).
func auditTagFor(audit, injected bool) string {
	if !audit {
		return ""
	}
	if injected {
		return auditTag + "+inj"
	}
	return auditTag
}

// auditDescTag returns the descriptor's Audit field for a spec.
func (s runSpec) auditDescTag() string { return auditTagFor(s.audit, s.auditInjected) }

// descriptor returns the spec's deterministic identity for the harness
// cache and deduplication. Factories are always built with the spec's
// own geometry/NRH/mode (see dapperGeoFor and the figure generators),
// so tracker name + mode + the spec fields identify the run completely.
func (s runSpec) descriptor() harness.Descriptor {
	name := s.tracker.Name
	if s.tracker.Factory == nil {
		name = "none"
	}
	var aparams string
	if s.attack == attack.Parametric {
		aparams = s.attackParams.Canonical()
	}
	return harness.Descriptor{
		Tracker:      name,
		Mode:         s.tracker.Mode.String(),
		NRH:          s.nrh,
		Workload:     s.workload.Name,
		Attack:       s.attack.String(),
		AttackParams: aparams,
		Benign4:      s.benign4,
		Geometry:     s.geo,
		Timing:       "ddr5",
		LLCBytes:     s.llcBytes,
		Warmup:       s.warmup,
		Measure:      s.measure,
		Seed:         s.seed,
		Engine:       string(s.engine.OrDefault()),
		Audit:        s.auditDescTag(),
		Telemetry:    harness.TelemetryTag(s.telemetryWindow),
		Attr:         harness.AttrTag(s.attribution),
	}
}

// config builds the spec's system configuration, traces included.
func (s runSpec) config() (sim.Config, error) {
	var traces []cpu.Trace
	if s.benign4 {
		traces = sim.BenignTraces(s.workload, 4, s.geo, s.seed)
	} else {
		traces = sim.BenignTraces(s.workload, 3, s.geo, s.seed)
		atk, err := attack.NewTrace(attack.Config{
			Geometry: s.geo, NRH: s.nrh, Kind: s.attack,
			Params: s.attackParams, Seed: s.seed,
		})
		if err != nil {
			return sim.Config{}, err
		}
		traces = append(traces, atk)
	}
	return sim.Config{
		Geometry:        s.geo,
		LLCBytes:        s.llcBytes,
		Traces:          traces,
		Warmup:          s.warmup,
		Measure:         s.measure,
		Tracker:         s.tracker.Factory,
		Mode:            s.tracker.Mode,
		Engine:          s.engine,
		TelemetryWindow: s.telemetryWindow,
		Attribution:     s.attribution,
	}, nil
}

// job wraps the spec as a harness job under descriptor d (the spec's
// own). Unaudited specs carry their stream, so the pool can run every
// tracker point of one memory-request stream behind one simulation:
// the key is the descriptor minus the tracker identity, and minus NRH
// when no attack trace is generated from it.
func (s runSpec) job(d harness.Descriptor) harness.Job {
	j := harness.Job{Desc: d, Run: func() (sim.Result, error) { return run(s) }}
	if s.audit {
		return j
	}
	key := d
	key.Tracker, key.Mode = "", ""
	if s.attack == attack.None {
		key.NRH = 0
	}
	j.Stream = &harness.Stream{
		Key:    key,
		Config: s.config,
		Point:  sim.BatchPoint{Tracker: s.tracker.Factory, Mode: s.tracker.Mode},
	}
	return j
}

// run executes one spec.
func run(s runSpec) (sim.Result, error) {
	cfg, err := s.config()
	if err != nil {
		return sim.Result{}, err
	}
	if !s.audit {
		return sim.Run(cfg)
	}
	audit, err := secaudit.New(secaudit.Config{
		Geometry:      s.geo,
		NRH:           s.nrh,
		Mode:          s.tracker.Mode,
		CountInjected: s.auditInjected,
	})
	if err != nil {
		return sim.Result{}, err
	}
	cfg.Observer = audit.Observer
	res, err := sim.Run(cfg)
	if err != nil {
		return res, err
	}
	res.Audit = audit.Report()
	return res, nil
}

// runner caches insecure baselines so every tracker in a figure
// normalizes against the same run.
type runner struct {
	p     Profile
	bases map[string]sim.Result
}

func newRunner(p Profile) *runner {
	return &runner{p: p, bases: make(map[string]sim.Result)}
}

// exec satisfies one simulation request according to the profile's
// harness mode: inline (serial), recorded as a job (collect), or served
// from the memoized results (replay). See Generate.
func (r *runner) exec(s runSpec) (sim.Result, error) {
	s.engine = r.p.Engine
	s.telemetryWindow = r.p.TelemetryWindow
	s.attribution = r.p.Attribution
	h := r.p.hctx
	if h == nil {
		return run(s)
	}
	switch h.mode {
	case modeCollect:
		h.record(s)
		return placeholderResult(), nil
	case modeReplay:
		return h.lookup(s)
	default:
		return run(s)
	}
}

// baseline returns (computing once) the insecure reference run: same
// benign workloads, no tracker, and either an idle companion or the
// same attacker depending on s.baselineWithAttack.
func (r *runner) baseline(s runSpec) (sim.Result, error) {
	b := s
	b.tracker = trackerSpec{}
	if !b.baselineWithAttack {
		b.attack = attack.None
	}
	key := fmt.Sprintf("%s|%d|%d|%v|%d|%d|%v", s.workload.Name, s.geo.RowsPerBank,
		s.geo.Channels, s.benign4, s.llcBytes, s.measure, b.attack)
	if res, ok := r.bases[key]; ok {
		return res, nil
	}
	res, err := r.exec(b)
	if err != nil {
		return res, err
	}
	r.bases[key] = res
	return res, nil
}

// normalized runs the spec and its baseline and returns the benign
// cores' normalized performance plus both results.
func (r *runner) normalized(s runSpec) (float64, sim.Result, sim.Result, error) {
	base, err := r.baseline(s)
	if err != nil {
		return 0, sim.Result{}, sim.Result{}, err
	}
	treat, err := r.exec(s)
	if err != nil {
		return 0, sim.Result{}, sim.Result{}, err
	}
	cores := []int{0, 1, 2, 3}
	if !s.benign4 {
		cores = sim.BenignCores(4)
	}
	return sim.NormalizedPerf(treat, base, cores), treat, base, nil
}

// perfAttackSpec builds the standard Figures 1/3 spec: 3 benign copies
// plus the tailored attacker, full geometry.
func (r *runner) perfAttackSpec(w workloads.Workload, ts trackerSpec, kind attack.Kind, nrh uint32) runSpec {
	return runSpec{
		workload: w,
		geo:      r.p.Geometry,
		nrh:      nrh,
		tracker:  ts,
		attack:   kind,
		warmup:   r.p.Warmup,
		measure:  r.p.Measure,
		seed:     r.p.Seed,
	}
}

// dapperSpec builds the spec for DAPPER experiments. Attack scenarios
// use the scaled geometry (whole-rank attack dynamics must fit the
// window) and normalize against the insecure-with-attacker baseline
// (tracker-added overhead, the paper's Figures 9-17 metric). Benign
// scenarios use the full geometry — the scaled row space would
// artificially concentrate benign activations into few row groups.
//
// Note: the tracker spec's factory must be built against the geometry
// this function selects; use dapperGeoFor to pick it.
func (r *runner) dapperSpec(w workloads.Workload, ts trackerSpec, kind attack.Kind, nrh uint32, benign4 bool) runSpec {
	s := runSpec{
		workload:           w,
		geo:                r.p.DapperGeometry,
		nrh:                nrh,
		tracker:            ts,
		attack:             kind,
		benign4:            benign4,
		baselineWithAttack: kind != attack.None,
		warmup:             r.p.DapperWarmup,
		measure:            r.p.DapperMeasure,
		seed:               r.p.Seed,
	}
	if kind != attack.StreamingSweep {
		// Only the streaming attack needs the scaled row space (a full
		// whole-rank pass must fit the window). Refresh attacks and
		// benign runs use the full geometry: the scaled one
		// concentrates hot rows into few groups and overstates
		// reset-counter inheritance (see EXPERIMENTS.md notes).
		s.geo = r.p.Geometry
		s.warmup = r.p.Warmup
		s.measure = r.p.Measure
	}
	return s
}

// dapperGeoFor returns the geometry dapperSpec will select for an
// attack kind, so factories are built consistently.
func dapperGeoFor(p Profile, kind attack.Kind) dram.Geometry {
	if kind == attack.StreamingSweep {
		return p.DapperGeometry
	}
	return p.Geometry
}
