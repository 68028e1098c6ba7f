package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"dapper/internal/dram"
	"dapper/internal/exp"
	"dapper/internal/harness"
	"dapper/internal/rh"
	"dapper/internal/sim"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkFile is the part of ../BENCHMARK.json the self-tests compare
// against the code.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestMetricNames checks every metric the benchmark prints against the
// name rule, that BENCHMARK.json declares exactly the printed metrics
// with the printed units, and that it lists every workload not marked
// unlisted, in order.
func TestMetricNames(t *testing.T) {
	bf := loadBenchmarkFile(t)
	cases := []struct {
		what     string
		printed  map[string]metric
		declared []struct{ Name, Unit string }
	}{
		{"end_to_end", endToEndMetrics([]float64{1}, []float64{1}, []float64{1}), bf.EndToEnd},
		{"per_layer", perLayerMetrics(childRun{}, childRun{}, nil, replayStats{}), bf.PerLayer},
	}
	for _, c := range cases {
		declared := map[string]string{}
		for _, d := range c.declared {
			declared[d.Name] = d.Unit
		}
		for name, m := range c.printed {
			if !metricName.MatchString(name) {
				t.Errorf("%s metric %q breaks the name rule", c.what, name)
			}
			if u, ok := declared[name]; !ok {
				t.Errorf("%s metric %q is printed but not declared", c.what, name)
			} else if u != m.Unit {
				t.Errorf("%s metric %q: unit %q, declared %q", c.what, name, m.Unit, u)
			}
		}
		for name := range declared {
			if _, ok := c.printed[name]; !ok {
				t.Errorf("%s metric %q is declared but not printed", c.what, name)
			}
		}
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var code []string
	for _, w := range workloadList {
		if w.unlisted == "" {
			code = append(code, w.name)
		}
	}
	if strings.Join(names, ",") != strings.Join(code, ",") {
		t.Errorf("BENCHMARK.json workloads %v, listed in code %v", names, code)
	}
}

// TestFoldCoversInternal fails when an internal package has no layer, or
// the fold maps a package that no longer exists.
func TestFoldCoversInternal(t *testing.T) {
	root := filepath.Join("..", "internal")
	pkgs := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkgs[filepath.ToSlash(rel)] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("found no internal packages")
	}
	for p := range pkgs {
		if _, ok := packageLayer[p]; !ok {
			t.Errorf("internal/%s has no layer in packageLayer", p)
		}
	}
	for p, l := range packageLayer {
		if !pkgs[p] {
			t.Errorf("packageLayer maps internal/%s, which does not exist", p)
		}
		found := false
		for _, o := range layerOrder {
			found = found || o == l
		}
		if !found {
			t.Errorf("internal/%s maps to unknown layer %q", p, l)
		}
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.duffcopy", "dapper/internal/mem.(*Controller).earliestReady", "dapper/internal/sim.Run"}, layerMem},
		{[]string{"dapper/internal/trackers/hydra.(*Hydra).OnActivate", "dapper/internal/mem.(*Controller).Tick"}, layerTrackers},
		{[]string{"encoding/json.(*encodeState).marshal", "dapper/internal/harness.(*JSONLSink).Write"}, layerHarness},
		{[]string{"runtime.gcBgMarkWorker"}, layerRuntime},
		{[]string{"dapper/internal/dram.Geometry.Decompose"}, layerDRAM},
	}
	for _, c := range cases {
		got, err := layerOf(c.stack)
		if err != nil || got != c.want {
			t.Errorf("layerOf(%v) = %q, %v; want %q", c.stack, got, err, c.want)
		}
	}
	if _, err := layerOf([]string{"dapper/internal/newpkg.F"}); err == nil {
		t.Error("an unmapped internal package must be an error, not a bucket")
	}
}

var foldSink uint64

// TestFoldProfile profiles a loop over a repo function and checks that
// pprof's traces and the fold attribute it to the right layer.
func TestFoldProfile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	geo := dram.Baseline()
	deadline := time.Now().Add(400 * time.Millisecond)
	for a := uint64(0); time.Now().Before(deadline); a += 64 * 1021 {
		for i := uint64(0); i < 4096; i++ {
			foldSink += uint64(geo.Decompose(a + i*64).Row)
		}
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	shares, err := foldProfile(path, dir)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, l := range layerOrder {
		total += shares[l]
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("layer shares sum to %v", total)
	}
	if shares[layerDRAM] < 0.5 {
		t.Errorf("dram share %.2f of a Decompose loop; shares %v", shares[layerDRAM], shares)
	}
}

// TestFoldTraces folds a fixed pprof -traces text: weights in mixed
// units, an inlined frame, and a stack without a repo frame.
func TestFoldTraces(t *testing.T) {
	text := `File: perfbench
Type: cpu
Duration: 1s, Total samples = 400ms (40.00%)
-----------+-------------------------------------------------------
     300ms   runtime.duffcopy
             dapper/internal/mem.(*Controller).earliestReady (inline)
             dapper/internal/sim.Run
-----------+-------------------------------------------------------
    0.05s   dapper/internal/dram.Geometry.Decompose
-----------+-------------------------------------------------------
   50000us   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`
	shares, err := foldTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{layerMem: 0.75, layerDRAM: 0.125, layerRuntime: 0.125}
	for _, l := range layerOrder {
		if math.Abs(shares[l]-want[l]) > 1e-12 {
			t.Errorf("%s share %v, want %v", l, shares[l], want[l])
		}
	}
	if _, err := foldTraces("-----------+---\n     10ms   dapper/internal/newpkg.F\n"); err == nil {
		t.Error("an unmapped internal package must be an error")
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{0, 10}
	children := []interval{{1, 3}, {2, 4}, {8, 12}, {-1, 0.5}, {20, 30}}
	// Covered: [0,0.5] + [1,4] + [8,10] = 5.5.
	if got := selfTime(parent, children); math.Abs(got-4.5) > 1e-12 {
		t.Errorf("selfTime = %v, want 4.5", got)
	}
	if got := selfTime(parent, nil); got != 10 {
		t.Errorf("selfTime without children = %v, want 10", got)
	}
	sm := spanStats(map[string][]interval{
		"exp":   {{0, 10}},
		"run":   {{1, 5}, {2, 9}},
		"queue": {{0, 1}, {0, 2}},
		"sink":  {{9, 9.5}},
	}, 2)
	if math.Abs(sm.ExpSelf-1.5) > 1e-12 || math.Abs(sm.WorkerUtil-0.55) > 1e-12 ||
		sm.JobN != 2 || math.Abs(sm.QueueWaitP50-1.5) > 1e-12 {
		t.Errorf("spanStats = %+v", sm)
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]float64{5: 50, 19: 50, 40: 75, 100: 90, 200: 95, 1000: 99, 10000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
	if got := percentile([]float64{4, 1, 3, 2}, 50); got != 2.5 {
		t.Errorf("median = %v", got)
	}
}

func testOutcome() outcome {
	return outcome{
		Tables:    "t",
		Sims:      map[string]string{"a": "1", "b": "2", "c": "3"},
		Counts:    counts{DRAMAct: 7, Simulations: 3},
		Attempted: 3,
	}
}

// TestCheckFires shows that each kind of wrong output counts.
func TestCheckFires(t *testing.T) {
	want := testOutcome()
	if v := check(testOutcome(), want); v.Failed != 0 || len(v.Problems) != 0 || v.Attempted != 3 {
		t.Fatalf("identical outcome: %+v", v)
	}

	perturbed := testOutcome()
	perturbed.Sims = map[string]string{"a": "1", "b": "X", "c": "3"}
	if v := check(perturbed, want); v.Failed != 1 {
		t.Errorf("perturbed record: failed %d, want 1", v.Failed)
	}

	errored := testOutcome()
	errored.Sims = map[string]string{"a": "1"}
	errored.Errors = []string{"fig11: boom"}
	if v := check(errored, want); v.Failed != 2 {
		t.Errorf("failed pass with two missing simulations: failed %d, want 2", v.Failed)
	}

	drift := testOutcome()
	drift.Counts.DRAMAct++
	if v := check(drift, want); v.Failed != 0 || len(v.Problems) != 1 {
		t.Errorf("count drift must be a problem without a failed simulation: %+v", v)
	}

	verdict := testOutcome()
	verdict.AuditFailed = 3
	verdict.AuditViolations = []string{"para: 4 escapes"}
	if v := check(verdict, want); v.Failed != 3 || len(v.Problems) != 1 {
		t.Errorf("wrong audit verdict: failed %d, want 3", v.Failed)
	}
}

func TestAuditRule(t *testing.T) {
	ids := []string{"hydra", "none", "para"}
	cases := []struct {
		escapes map[string]uint64
		want    []string
	}{
		{map[string]uint64{"none": 600}, nil},
		{map[string]uint64{"none": 600, "para": 4}, []string{"para: 4 escapes"}},
		{map[string]uint64{"none": 0}, []string{"none: 0 escapes"}},
		{map[string]uint64{"none": 600, "hydra": 1}, []string{"hydra: 1 escapes"}},
		{map[string]uint64{"none": 0, "hydra": 1}, []string{"hydra: 1 escapes", "none: 0 escapes"}},
	}
	for _, c := range cases {
		if got := auditViolations(ids, c.escapes); strings.Join(got, ";") != strings.Join(c.want, ";") {
			t.Errorf("auditViolations(%v) = %q, want %q", c.escapes, got, c.want)
		}
	}
}

func TestDigest(t *testing.T) {
	r := sim.Result{IPC: []float64{1.5}, Instructions: []uint64{10}, Cycles: 100}
	a, err := digest(r)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := digest(sim.Result{IPC: []float64{1.5}, Instructions: []uint64{10}, Cycles: 100})
	r.Counters.ACT = 1
	c, _ := digest(r)
	if a != b || a == c {
		t.Errorf("digest: equal results %s/%s, perturbed %s", a, b, c)
	}
}

// TestReplayMatchesPool rebuilds points from their descriptors, with the
// timing wrapper and trace capture on, and requires byte-identical results
// to the jobs exp builds: a throttler, a table reporter, and an audited
// point with both taps on.
func TestReplayMatchesPool(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	var jobs []harness.Job
	spec := exp.SweepSpec{Trackers: []string{"blockhammer", "dapper-h"}, Workloads: []string{"429.mcf"},
		NRHs: []uint32{500}, Profile: "tiny", Attack: "refresh"}
	req, err := spec.Request()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := req.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs, bj...)
	p := exp.Tiny()
	p.TelemetryWindow = dram.US(5)
	p.Attribution = true
	audit := exp.SecurityRequest{Trackers: []string{"hydra"}, Attacks: exp.AuditAttacks()[:1],
		Modes: []rh.MitigationMode{rh.VRR1}, NRHs: []uint32{125}, Workload: req.Workloads[0], Profile: p}
	aj, _, err := audit.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs, aj...)
	var rs replayStats
	for _, j := range jobs {
		res, err := j.Run()
		if err != nil {
			t.Fatal(err)
		}
		want, err := digest(res)
		if err != nil {
			t.Fatal(err)
		}
		if err := replayPoint(j.Desc, want, &rs); err != nil {
			t.Fatal(err)
		}
	}
	if rs.Points != len(jobs) || rs.Discarded != 0 {
		t.Fatalf("replayed %d of %d points, %d discarded: %v", rs.Points, len(jobs), rs.Discarded, rs.Mismatches)
	}
	if rs.Clock.actCalls == 0 || rs.CacheOps == 0 || rs.DecompOp == 0 || rs.TraceRecs == 0 || rs.PlainNs == 0 {
		t.Errorf("replays measured nothing: %+v", rs)
	}
	// A wrong expectation must be discarded, not used.
	var bad replayStats
	if err := replayPoint(jobs[0].Desc, "0000000000000000", &bad); err != nil {
		t.Fatal(err)
	}
	if bad.Discarded != 1 || bad.Clock.actCalls != 0 {
		t.Errorf("mismatched replay kept: %+v", bad)
	}
}

// TestReferencesCoverWorkloads checks that refs.json holds every workload
// at every reference seed, each with its simulations.
func TestReferencesCoverWorkloads(t *testing.T) {
	refs, err := loadRefs("refs.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadList {
		for _, s := range refSeeds {
			o, ok := refs.lookup(w.name, s)
			if !ok || len(o.Sims) == 0 || o.Counts.Simulations != len(o.Sims) {
				t.Errorf("%s seed %d: reference missing or empty", w.name, s)
			}
		}
	}
	keys := make([]string, 0, len(refs))
	for k := range refs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) != len(workloadList) {
		t.Errorf("references for %v, want one per workload", keys)
	}
}
