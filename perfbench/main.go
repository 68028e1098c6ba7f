// Command perfbench is the repository's end-to-end benchmark: it
// regenerates figure tables and the security audit matrix through the
// public exp/harness paths and reports host cost per workload. Run it from
// the root of a checkout through run.sh:
//
//	bash perfbench/run.sh --workload benign --seed 1 --seconds 50 --trace 0
//
// With --trace 0 it times fresh processes, one per run of the workload,
// for --seconds and prints the end-to-end metrics. With --trace 1 it makes
// one untraced and one traced run plus replays of sampled points and
// prints the per-layer metrics. Every run's outputs are checked; the last
// line of standard output is the JSON result. README.md has the design.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"syscall"
	"time"

	"dapper/internal/harness"
	"dapper/internal/telemetry"
)

// Reference seeds: the profile default and one held out while sizing.
var refSeeds = []uint64{1, 2}

const (
	minIterations = 3
	maxIterations = 40
	setupsPerRun  = 9
)

func main() {
	entered := time.Now()
	var (
		root    = flag.String("root", ".", "checkout root")
		wname   = flag.String("workload", "", "workload: benign, attack or audit")
		seed    = flag.Uint64("seed", 1, "input seed (becomes exp.Profile.Seed)")
		seconds = flag.Int("seconds", 50, "how long to measure")
		trace   = flag.Int("trace", 0, "1 = per-layer traced run instead of timed runs")
		child   = flag.String("child", "", "internal: run|setup|traced, one run in this process")
		outDir  = flag.String("out", "", "internal: directory for the audit sinks")
		record  = flag.Bool("record-refs", false, "run the reference seeds and rewrite perfbench/refs.json")
	)
	flag.Parse()
	refsPath := filepath.Join(*root, "perfbench", "refs.json")
	var err error
	switch {
	case *child != "":
		err = runChild(*child, *wname, *seed, *outDir, entered)
	case *record:
		err = recordRefs(*root, refsPath)
	default:
		err = runBench(*root, *wname, *seed, *seconds, *trace, refsPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// childReport is what one child process prints on standard output.
type childReport struct {
	Outcome outcome `json:"outcome"`
	// SetupS is the set-up time of a setup run: from main's entry to the
	// end of execute, so process start and the Go runtime's own start-up
	// are not in it.
	SetupS float64              `json:"setup_s,omitempty"`
	Descs  []harness.Descriptor `json:"descs,omitempty"`
	Spans  spanMetrics          `json:"spans"`
}

// profileFile is where a traced run writes its CPU profile, in the
// invocation's output directory.
const profileFile = "traced.pprof"

// runChild executes one run of the workload in this process; entered is
// when main began.
func runChild(mode, wname string, seed uint64, outDir string, entered time.Time) error {
	w, err := lookupWorkload(wname)
	if err != nil {
		return err
	}
	opts := execOptions{outDir: outDir, setupOnly: mode == "setup"}
	var rep childReport
	var prof *os.File
	switch mode {
	case "run", "setup":
	case "traced":
		opts.tracer = telemetry.NewTracer()
		if prof, err = os.Create(filepath.Join(outDir, profileFile)); err != nil {
			return err
		}
		defer prof.Close()
		if err := pprof.StartCPUProfile(prof); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown child mode %q", mode)
	}
	ex, err := execute(w, seed, opts)
	if mode == "traced" {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return err
	}
	if mode == "setup" {
		rep.SetupS = time.Since(entered).Seconds()
	} else if rep.Outcome, err = summarize(ex); err != nil {
		return err
	}
	if mode == "traced" {
		if err := prof.Close(); err != nil {
			return err
		}
		if rep.Spans, err = measureSpans(opts.tracer, ex); err != nil {
			return err
		}
		for _, r := range ex.Records {
			rep.Descs = append(rep.Descs, r.Desc)
		}
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// childRun is one finished child process as the parent saw it.
type childRun struct {
	report childReport
	wall   float64 // seconds
	cpu    float64 // user+sys seconds
	rssMB  float64 // peak resident set
}

// spawn runs this binary as a child in the given mode and waits for it.
func spawn(mode, wname string, seed uint64, outDir string) (childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	cmd := exec.Command(self, "-child", mode, "-workload", wname,
		"-seed", strconv.FormatUint(seed, 10), "-out", outDir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	start := time.Now()
	err = cmd.Run()
	wall := time.Since(start).Seconds()
	if err != nil {
		return childRun{}, fmt.Errorf("%s run of %s: %w", mode, wname, err)
	}
	var rep childReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return childRun{}, fmt.Errorf("%s run of %s: bad report: %w", mode, wname, err)
	}
	cr := childRun{
		report: rep,
		wall:   wall,
		cpu:    (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds(),
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cr.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return cr, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally accumulates the output check over every run of one invocation.
type tally struct {
	attempted, failed int
	problems          []string
}

func (t *tally) add(label string, v verdict) {
	t.attempted += v.Attempted
	t.failed += v.Failed
	for _, p := range v.Problems {
		t.problems = append(t.problems, label+": "+p)
	}
}

// expected returns the reference outcome for the seed, or first (the
// first run of this invocation) when the seed has no reference.
func expected(refs refFile, w string, seed uint64, first outcome) outcome {
	if o, ok := refs.lookup(w, seed); ok {
		return o
	}
	return first
}

func runBench(root, wname string, seed uint64, seconds, trace int, refsPath string) error {
	w, err := lookupWorkload(wname)
	if err != nil {
		return err
	}
	if w.unlisted != "" {
		fmt.Fprintf(os.Stderr, "perfbench: %s is not in BENCHMARK.json: %s\n", wname, w.unlisted)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	refs, err := loadRefs(refsPath)
	if err != nil {
		return err
	}
	outDir, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "out-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(outDir)
	var res result
	switch trace {
	case 0:
		res, err = timedRuns(wname, seed, seconds, refs, outDir)
	case 1:
		res, err = tracedRun(wname, seed, refs, outDir)
	default:
		err = fmt.Errorf("--trace must be 0 or 1")
	}
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// timedRuns measures end-to-end cost in fresh processes, each one full run
// of the workload, until the time is up. Before each run it makes
// setupsPerRun set-up-only processes, so the set-up samples spread over
// the whole measurement like the runs do. Each metric is the median.
func timedRuns(wname string, seed uint64, seconds int, refs refFile, outDir string) (result, error) {
	var setups []float64
	var runs []childRun
	var walls []float64
	begin := time.Now()
	for len(runs) < maxIterations {
		elapsed := time.Since(begin).Seconds()
		if len(runs) >= minIterations && elapsed+median(walls) > float64(seconds) {
			break
		}
		for i := 0; i < setupsPerRun; i++ {
			cr, err := spawn("setup", wname, seed, outDir)
			if err != nil {
				return result{}, err
			}
			setups = append(setups, cr.report.SetupS)
		}
		cr, err := spawn("run", wname, seed, outDir)
		if err != nil {
			return result{}, err
		}
		runs = append(runs, cr)
		walls = append(walls, cr.wall)
	}
	var t tally
	want := expected(refs, wname, seed, runs[0].report.Outcome)
	var cpus, rss []float64
	for i, cr := range runs {
		t.add(fmt.Sprintf("run %d", i), check(cr.report.Outcome, want))
		cpus = append(cpus, cr.cpu)
		rss = append(rss, cr.rssMB)
	}
	report(wname, seed, t, fmt.Sprintf("%d timed runs, %d set-up runs", len(runs), len(setups)))
	if err := printOutcome(runs[0].report.Outcome); err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "  wall_s %.3f\n  cpu_s %.3f\n  peak_rss_mb %.1f\n  setup_s %.4f\n",
		walls, cpus, rss, setups)
	return result{
		Correct:   len(t.problems) == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   endToEndMetrics(walls, cpus, setups),
	}, nil
}

// endToEndMetrics assembles the --trace 0 metrics: medians over the runs.
func endToEndMetrics(walls, cpus, setups []float64) map[string]metric {
	return map[string]metric{
		"wall_s":  {median(walls), "s"},
		"cpu_s":   {median(cpus), "s"},
		"setup_s": {median(setups), "s"},
	}
}

// printOutcome writes a run's output identity to standard error, so that
// runs in different invocations can be compared: the tables digest, one
// digest over every simulation's digest, and the deterministic counts.
func printOutcome(o outcome) error {
	sims, err := json.Marshal(o.Sims)
	if err != nil {
		return err
	}
	c, err := json.Marshal(o.Counts)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "  outcome tables=%s sims=%s counts=%s\n", o.Tables, hash16(sims), c)
	return nil
}

func report(wname string, seed uint64, t tally, what string) {
	fmt.Fprintf(os.Stderr, "perfbench %s seed %d: %s, %d simulations attempted, %d failed\n",
		wname, seed, what, t.attempted, t.failed)
	for _, p := range t.problems {
		fmt.Fprintln(os.Stderr, "  FAIL", p)
	}
}

// tracedRun makes one untraced and one traced run of the workload, then
// replays a sample of its points, and reports the per-layer metrics.
func tracedRun(wname string, seed uint64, refs refFile, outDir string) (result, error) {
	w, _ := lookupWorkload(wname)
	plain, err := spawn("run", wname, seed, outDir)
	if err != nil {
		return result{}, err
	}
	traced, err := spawn("traced", wname, seed, outDir)
	if err != nil {
		return result{}, err
	}
	layers, err := foldProfile(filepath.Join(outDir, profileFile), outDir)
	if err != nil {
		return result{}, err
	}
	var t tally
	want := expected(refs, wname, seed, plain.report.Outcome)
	t.add("untraced run", check(plain.report.Outcome, want))
	t.add("traced run", check(traced.report.Outcome, want))

	var rs replayStats
	sample := replaySample(w, traced.report.Descs)
	for _, d := range sample {
		if err := replayPoint(d, traced.report.Outcome.Sims[shortKey(d)], &rs); err != nil {
			return result{}, err
		}
	}
	t.attempted += rs.Points
	report(wname, seed, t, fmt.Sprintf("1 untraced + 1 traced run, %d replayed points (%d discarded)",
		rs.Points, rs.Discarded))
	for _, m := range rs.Mismatches {
		fmt.Fprintln(os.Stderr, "  replay discarded:", m)
	}

	return result{
		Correct:   len(t.problems) == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   perLayerMetrics(plain, traced, layers, rs),
	}, nil
}

// unsharedLayers are the layers whose profile share is not reported: it
// is zero on every listed workload. exp and harness run for a few
// milliseconds per run, and the taps are on only in the unlisted audit.
var unsharedLayers = map[string]bool{layerExp: true, layerHarness: true, layerTaps: true}

// perLayerMetrics assembles the --trace 1 metrics from the untraced and
// traced runs, the traced run's layer shares and the replays.
func perLayerMetrics(plain, traced childRun, layers map[string]float64, rs replayStats) map[string]metric {
	c := traced.report.Outcome.Counts
	sp := traced.report.Spans
	m := map[string]metric{}
	for _, l := range layerOrder {
		if !unsharedLayers[l] {
			m[l+".self_frac"] = metric{layers[l], "frac"}
		}
	}
	m["cpu.instr"] = metric{float64(c.CPUInstr), "count"}
	m["cache.hit_rate"] = metric{c.CacheHitRate, "frac"}
	m["cache.access_ns"] = metric{ratio(rs.CacheNs, rs.CacheOps), "ns"}
	m["dram.decompose_ns"] = metric{ratio(rs.DecompNs, rs.DecompOp), "ns"}
	m["dram.act"] = metric{float64(c.DRAMAct), "count"}
	m["mem.row_hit_frac"] = metric{ratio(int64(c.RowHits), int64(c.RowHits+c.RowMisses)), "frac"}
	m["mem.read_wait_cycles"] = metric{ratio(c.ReadWait, int64(c.ReadsServed)), "cycles"}
	m["trackers.on_activate_ns"] = metric{ratio(rs.Clock.actNs, rs.Clock.actCalls), "ns"}
	m["trackers.tick_ns"] = metric{ratio(rs.Clock.tickNs, rs.Clock.tickCalls), "ns"}
	m["trackers.mitigations"] = metric{float64(c.Mitigations), "count"}
	m["trackers.injected"] = metric{float64(c.Injected), "count"}
	tapOverhead := 0.0
	if rs.PlainNs > 0 {
		tapOverhead = float64(rs.TapsNs)/float64(rs.PlainNs) - 1
	}
	m["taps.overhead_frac"] = metric{tapOverhead, "frac"}
	m["secaudit.escapes"] = metric{float64(c.Escapes + rs.Escapes), "count"}
	m["sim.kcycles"] = metric{float64(c.SimCycles) / 1e3, "kcycles"}
	m["sim.ns_per_kcycle"] = metric{ratio(int64(sp.RunNs)*1000, c.SimCycles), "ns/kcycle"}
	m["sim.job_p50_s"] = metric{sp.JobP50, "s"}
	m["sim.job_tail_s"] = metric{sp.JobTail, "s"}
	m["sim.job_tail_pct"] = metric{sp.JobTailPct, "%"}
	m["sim.job_n"] = metric{float64(sp.JobN), "count"}
	m["harness.worker_util"] = metric{sp.WorkerUtil, "frac"}
	m["harness.queue_wait_s"] = metric{sp.QueueWaitP50, "s"}
	m["harness.dedup_frac"] = metric{c.DedupFrac, "frac"}
	m["harness.sims_per_stream"] = metric{c.SimsPerStream, "count"}
	m["exp.self_s"] = metric{sp.ExpSelf, "s"}
	m["trace.ns_per_record"] = metric{ratio(rs.TraceNs, rs.TraceRecs), "ns"}
	m["replay.points"] = metric{float64(rs.Points), "count"}
	m["replay.discarded"] = metric{float64(rs.Discarded), "count"}
	m["bench.trace_overhead_s"] = metric{traced.wall - plain.wall, "s"}
	m["bench.untraced_wall_s"] = metric{plain.wall, "s"}
	m["runtime.peak_rss_mb"] = metric{plain.rssMB, "MB"}
	return m
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// recordRefs runs every workload once per reference seed and rewrites the
// reference file. A reference is what the program output at the time, so
// a later change to the output shows; it is not a verdict that the output
// is right. A run that raised an error is not recorded. Audit rule
// violations are recorded (the rule is applied to every run anew) and
// printed.
func recordRefs(root, path string) error {
	outDir, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "out-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(outDir)
	refs := refFile{}
	for _, w := range workloadList {
		refs[w.name] = map[string]outcome{}
		for _, seed := range refSeeds {
			cr, err := spawn("run", w.name, seed, outDir)
			if err != nil {
				return err
			}
			o := cr.report.Outcome
			if len(o.Errors) > 0 {
				return fmt.Errorf("%s seed %d: %v", w.name, seed, o.Errors)
			}
			if len(o.AuditViolations) > 0 {
				fmt.Fprintf(os.Stderr, "%s seed %d breaks the audit rule: %v\n", w.name, seed, o.AuditViolations)
			}
			o.Errors, o.Attempted, o.AuditFailed, o.AuditViolations = nil, 0, 0, nil
			refs[w.name][strconv.FormatUint(seed, 10)] = o
			fmt.Fprintf(os.Stderr, "recorded %s seed %d: %d simulations in %.1fs\n", w.name, seed, len(o.Sims), cr.wall)
		}
	}
	b, err := json.MarshalIndent(refs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// spanMetrics are the harness, exp and job timings a traced run's spans
// give.
type spanMetrics struct {
	ExpSelf      float64 `json:"exp_self_s"`
	WorkerUtil   float64 `json:"worker_util"`
	QueueWaitP50 float64 `json:"queue_wait_p50_s"`
	RunNs        float64 `json:"run_ns"`
	JobP50       float64 `json:"job_p50_s"`
	JobTail      float64 `json:"job_tail_s"`
	JobTailPct   float64 `json:"job_tail_pct"`
	JobN         int     `json:"job_n"`
}

// traceEvent is the part of a Chrome trace event the metrics need.
type traceEvent struct {
	Cat string  `json:"cat"`
	Ph  string  `json:"ph"`
	TS  float64 `json:"ts"`  // microseconds
	Dur float64 `json:"dur"` // microseconds
}

// measureSpans derives the span metrics from the tracer's export: the
// pool's queue/run/sink spans and the benchmark's exp pass spans.
func measureSpans(tr *telemetry.Tracer, ex *execution) (spanMetrics, error) {
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		return spanMetrics{}, err
	}
	var evs []traceEvent
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		return spanMetrics{}, err
	}
	byCat := map[string][]interval{}
	for _, e := range evs {
		if e.Ph == "X" {
			byCat[e.Cat] = append(byCat[e.Cat], interval{e.TS / 1e6, (e.TS + e.Dur) / 1e6})
		}
	}
	return spanStats(byCat, ex.Workers), nil
}

// spanStats computes the span metrics from intervals grouped by category.
func spanStats(byCat map[string][]interval, workers int) spanMetrics {
	var sm spanMetrics
	busy := append(append([]interval(nil), byCat["run"]...), byCat["sink"]...)
	passTotal := 0.0
	for _, p := range byCat["exp"] {
		sm.ExpSelf += selfTime(p, busy)
		passTotal += p.end - p.start
	}
	var jobs []float64
	for _, r := range byCat["run"] {
		jobs = append(jobs, r.end-r.start)
		sm.RunNs += (r.end - r.start) * 1e9
	}
	if passTotal > 0 && workers > 0 {
		sm.WorkerUtil = sm.RunNs / 1e9 / (float64(workers) * passTotal)
	}
	var waits []float64
	for _, q := range byCat["queue"] {
		waits = append(waits, q.end-q.start)
	}
	if len(waits) > 0 {
		sm.QueueWaitP50 = median(waits)
	}
	sm.JobN = len(jobs)
	if len(jobs) > 0 {
		sort.Float64s(jobs)
		sm.JobP50 = median(jobs)
		sm.JobTailPct = tailPercentile(len(jobs))
		sm.JobTail = percentile(jobs, sm.JobTailPct)
	}
	return sm
}
