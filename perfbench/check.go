package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"dapper/internal/attack"
	"dapper/internal/harness"
	"dapper/internal/sim"
)

// digest is the output check's identity of one simulation: the first 16
// hex digits of the SHA-256 of the Result's JSON encoding. sim.Result
// carries no wall-clock field (elapsed time and cache provenance live in
// the harness record around it), and encoding/json writes struct fields in
// declaration order and map keys sorted, so the encoding is canonical.
func digest(r sim.Result) (string, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	return hash16(b), nil
}

func hash16(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// shortKey abbreviates a descriptor key for the reference file.
func shortKey(d harness.Descriptor) string { return d.Key()[:16] }

// counts are the deterministic totals of one run. The guard requires each
// to repeat exactly across runs of one seed, because later count-based
// claims rest on them.
type counts struct {
	SimCycles      int64   `json:"sim_cycles"` // warmup+measure, summed over simulations
	CPUInstr       uint64  `json:"cpu_instr"`
	DRAMAct        uint64  `json:"dram_act"`
	Mitigations    uint64  `json:"trackers_mitigations"`
	Injected       uint64  `json:"trackers_injected"`
	Escapes        uint64  `json:"secaudit_escapes"`
	CacheHitRate   float64 `json:"cache_hit_rate"` // mean LLC hit rate over simulations
	RowHits        uint64  `json:"mem_row_hits"`
	RowMisses      uint64  `json:"mem_row_misses"`
	ReadWait       int64   `json:"mem_read_wait"`
	ReadsServed    uint64  `json:"mem_reads"`
	DedupFrac      float64 `json:"harness_dedup_frac"`
	SimsPerStream  float64 `json:"harness_sims_per_stream"`
	Simulations    int     `json:"simulations"`
	DistinctStream int     `json:"streams"`
}

// streamKey identifies the input a simulation replays: everything in the
// descriptor except the tracker, its mode and the taps. Points sharing a
// stream are what sim.RunBatch could advance in lockstep. Benign traces
// do not depend on NRH; attack traces do.
func streamKey(d harness.Descriptor) string {
	nrh := d.NRH
	if d.Attack == attack.None.String() {
		nrh = 0
	}
	g := d.Geometry
	return fmt.Sprintf("%s|%s|%s|%t|%d|%d.%d.%d.%d.%d.%d.%d|%d|%d|%d|%d",
		d.Workload, d.Attack, d.AttackParams, d.Benign4, nrh,
		g.Channels, g.Ranks, g.BankGroups, g.BanksPerGroup, g.RowsPerBank, g.RowBytes, g.LineBytes,
		d.LLCBytes, d.Warmup, d.Measure, d.Seed)
}

func countRun(ex *execution) counts {
	var c counts
	streams := make(map[string]bool)
	hitSum := 0.0
	for _, r := range ex.Records {
		res := r.Result
		c.SimCycles += r.Desc.Warmup + r.Desc.Measure
		for _, n := range res.Instructions {
			c.CPUInstr += n
		}
		c.DRAMAct += res.Counters.ACT
		c.Mitigations += res.Tracker.Mitigations
		c.Injected += res.Tracker.InjectedReads + res.Tracker.InjectedWrites
		if res.Audit != nil {
			c.Escapes += res.Audit.Escapes
		}
		hitSum += res.LLCHitRate
		c.RowHits += res.Mem.RowHits
		c.RowMisses += res.Mem.RowMisses
		c.ReadWait += res.Mem.TotalReadWait
		c.ReadsServed += res.Mem.ReadsServed
		streams[streamKey(r.Desc)] = true
	}
	c.Simulations = len(ex.Records)
	c.DistinctStream = len(streams)
	if c.Simulations > 0 {
		c.CacheHitRate = hitSum / float64(c.Simulations)
		c.SimsPerStream = float64(c.Simulations) / float64(c.DistinctStream)
	}
	if ex.Stats.Submitted > 0 {
		c.DedupFrac = 1 - float64(ex.Stats.Unique)/float64(ex.Stats.Submitted)
	}
	return c
}

// outcome is the checkable output of one run: what a child process
// reports and what the reference file stores per seed.
type outcome struct {
	Tables string            `json:"tables"` // digest of the tables in order
	Sims   map[string]string `json:"sims"`   // short descriptor key -> result digest
	Counts counts            `json:"counts"`
	// The rest is not stored in references: a reference records what the
	// program output, and the audit rule is applied to every run anew.
	Attempted       int      `json:"attempted,omitempty"`
	Errors          []string `json:"errors,omitempty"`
	AuditFailed     int      `json:"audit_failed,omitempty"`
	AuditViolations []string `json:"audit_violations,omitempty"`
}

func summarize(ex *execution) (outcome, error) {
	o := outcome{
		Sims:            make(map[string]string, len(ex.Records)),
		Counts:          countRun(ex),
		Attempted:       ex.Stats.Unique,
		Errors:          ex.Errors,
		AuditFailed:     ex.AuditFailed,
		AuditViolations: ex.AuditViolations,
	}
	tb, err := json.Marshal(ex.Tables)
	if err != nil {
		return o, err
	}
	o.Tables = hash16(tb)
	for _, r := range ex.Records {
		d, err := digest(r.Result)
		if err != nil {
			return o, err
		}
		o.Sims[shortKey(r.Desc)] = d
	}
	return o, nil
}

// verdict is the output check of one run against its expectation.
type verdict struct {
	Attempted int
	Failed    int
	Problems  []string
}

// check compares a run with the expected outcome for its seed. Every
// simulation that errored, is missing, or whose digest differs counts as
// failed, and so does every audit cell that breaks the conformance rule.
// A table or count mismatch is a problem without a failed simulation:
// the tables are pure functions of the results, and the counts are the
// determinism guard.
func check(got, want outcome) verdict {
	v := verdict{Attempted: got.Attempted}
	if v.Attempted < len(want.Sims) {
		v.Attempted = len(want.Sims)
	}
	for _, e := range got.Errors {
		v.Problems = append(v.Problems, "error: "+e)
	}
	errFails := len(got.Errors)
	keys := make([]string, 0, len(want.Sims))
	for k := range want.Sims {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	digestFails := 0
	for _, k := range keys {
		g, ok := got.Sims[k]
		switch {
		case !ok:
			digestFails++
			v.Problems = append(v.Problems, "missing simulation "+k)
		case g != want.Sims[k]:
			digestFails++
			v.Problems = append(v.Problems, fmt.Sprintf("simulation %s digest %s, want %s", k, g, want.Sims[k]))
		}
	}
	for k := range got.Sims {
		if _, ok := want.Sims[k]; !ok {
			digestFails++
			v.Problems = append(v.Problems, "unexpected simulation "+k)
		}
	}
	// A failed job never reaches the records, so it also shows as a
	// missing simulation; count it once.
	v.Failed = max(errFails, digestFails) + got.AuditFailed
	if got.AuditFailed > 0 {
		v.Problems = append(v.Problems, fmt.Sprintf("%d audit cells break the conformance rule: %s",
			got.AuditFailed, strings.Join(got.AuditViolations, ", ")))
	}
	if got.Tables != want.Tables {
		v.Problems = append(v.Problems, fmt.Sprintf("tables digest %s, want %s", got.Tables, want.Tables))
	}
	if got.Counts != want.Counts {
		v.Problems = append(v.Problems, fmt.Sprintf("determinism guard: counts %+v, want %+v", got.Counts, want.Counts))
	}
	if v.Failed > v.Attempted {
		v.Attempted = v.Failed
	}
	return v
}

// refFile holds the recorded outcomes: workload -> seed -> outcome.
type refFile map[string]map[string]outcome

func loadRefs(path string) (refFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("references: %w", err)
	}
	var r refFile
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("references %s: %w", path, err)
	}
	return r, nil
}

func (r refFile) lookup(w string, seed uint64) (outcome, bool) {
	o, ok := r[w][fmt.Sprint(seed)]
	return o, ok
}
