package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"dapper/internal/harness"
	"dapper/internal/sim"
)

// TestGenerateMatchesSerial is the harness's core guarantee: parallel
// generation must be byte-identical to the serial path, because the
// replay pass walks the exact serial code over memoized results. The
// profile gives the benign sweeps two NRH points and two workloads, so
// the pool's shared-stream groups have leads, riders and divergences;
// every simulation the pool delivers must also equal the serial run of
// its descriptor.
func TestGenerateMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short")
	}
	p := Tiny()
	p.NRHSweep = []uint32{500, 2000}
	p.SweepWorkloads = p.Workloads[:2]
	var lockstep, diverged int
	for _, id := range []string{"fig9", "fig11", "fig12", "fig14", "fig15"} {
		serial, err := Generate(id, p, nil)
		if err != nil {
			t.Fatalf("%s serial: %v", id, err)
		}
		want := serialResults(t, id, p)
		for _, workers := range []int{1, 8} {
			var mu sync.Mutex
			got := make(map[string][]byte)
			pool := harness.NewPool(harness.Options{Workers: workers, OnResult: func(d harness.Descriptor, r sim.Result) {
				js, err := json.Marshal(r)
				if err != nil {
					panic(err)
				}
				mu.Lock()
				got[d.Key()] = js
				mu.Unlock()
			}})
			parallel, err := Generate(id, p, pool)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", id, workers, err)
			}
			if got, want := parallel.String(), serial.String(); got != want {
				t.Fatalf("%s workers=%d diverges from serial:\n--- parallel ---\n%s--- serial ---\n%s",
					id, workers, got, want)
			}
			// OnResult fires after a future completes; Close waits for it.
			if err := pool.Close(); err != nil {
				t.Fatal(err)
			}
			st := pool.Stats()
			lockstep += st.Lockstep
			diverged += st.Diverged
			if len(got) != len(want) {
				t.Fatalf("%s workers=%d: pool delivered %d results, serial path has %d", id, workers, len(got), len(want))
			}
			for key, js := range want {
				if !bytes.Equal(got[key], js) {
					t.Fatalf("%s workers=%d: result %s differs from its serial run:\n got %s\nwant %s",
						id, workers, key, got[key], js)
				}
			}
		}
	}
	if lockstep == 0 || diverged == 0 {
		t.Fatalf("the sweeps exercised %d lockstep riders and %d divergences; want both", lockstep, diverged)
	}
}

// serialResults runs every simulation generator id requests, one
// independent sim.Run each, keyed by descriptor.
func serialResults(t *testing.T, id string, p Profile) map[string][]byte {
	t.Helper()
	g, err := Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	collect := &harnessCtx{mode: modeCollect, seen: make(map[string]bool)}
	p.hctx = collect
	if _, err := g(p); err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(collect.jobs))
	for _, job := range collect.jobs {
		res, err := job.Run()
		if err != nil {
			t.Fatal(err)
		}
		if out[job.Desc.Key()], err = json.Marshal(res); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestGenerateCancelledPool: on a pool whose context is already done,
// Generate runs the collect pass, submits, and returns the context's
// error instead of hanging or simulating (the set-up-only path the
// figure benchmark times).
func TestGenerateCancelledPool(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pool := harness.NewPool(harness.Options{Workers: 2, Context: ctx})
	done := make(chan error, 1)
	go func() {
		_, err := Generate("fig14", Tiny(), pool)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Generate on a cancelled pool: err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Generate hung on a cancelled pool")
	}
	pool.Wait()
	if st := pool.Stats(); st.Ran != 0 || st.Lockstep != 0 || st.Cancelled != st.Unique {
		t.Fatalf("cancelled pool simulated: %+v", st)
	}
}

// TestGenerateSharesBaselines: regenerating the same experiment on one
// pool must not rerun anything — every request deduplicates against the
// first pass.
func TestGenerateDedupAcrossCalls(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short")
	}
	p := Tiny()
	pool := harness.NewPool(harness.Options{Workers: 4})
	if _, err := Generate("fig11", p, pool); err != nil {
		t.Fatal(err)
	}
	ran := pool.Stats().Ran
	if ran == 0 {
		t.Fatal("fig11 must simulate something")
	}
	if _, err := Generate("fig11", p, pool); err != nil {
		t.Fatal(err)
	}
	if st := pool.Stats(); st.Ran != ran {
		t.Fatalf("second generation ran %d new simulations", st.Ran-ran)
	}
}

// TestGenerateDiskCache: a fresh pool over the same disk cache serves
// every simulation from disk and runs zero.
func TestGenerateDiskCache(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short")
	}
	p := Tiny()
	dir := t.TempDir()

	c1, err := harness.NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	pool1 := harness.NewPool(harness.Options{Workers: 4, Cache: c1})
	first, err := Generate("fig11", p, pool1)
	if err != nil {
		t.Fatal(err)
	}
	if pool1.Stats().Ran == 0 {
		t.Fatal("cold cache must simulate")
	}

	c2, err := harness.NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	pool2 := harness.NewPool(harness.Options{Workers: 4, Cache: c2})
	second, err := Generate("fig11", p, pool2)
	if err != nil {
		t.Fatal(err)
	}
	st := pool2.Stats()
	if st.Ran != 0 {
		t.Fatalf("warm cache reran %d simulations", st.Ran)
	}
	if st.CacheHits == 0 {
		t.Fatal("warm cache reported no hits")
	}
	if first.String() != second.String() {
		t.Fatal("cache-served table differs from the simulated one")
	}
}

// Analytic/static experiments never touch the simulator; Generate must
// pass them through untouched (single pass, no jobs).
func TestGenerateAnalyticPassthrough(t *testing.T) {
	p := Tiny()
	pool := harness.NewPool(harness.Options{Workers: 2})
	for _, id := range []string{"tab1", "tab2", "tab3"} {
		tb, err := Generate(id, p, pool)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tb.Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
	}
	if st := pool.Stats(); st.Submitted != 0 {
		t.Fatalf("analytic experiments submitted %d jobs", st.Submitted)
	}
}

func TestGenerateUnknownID(t *testing.T) {
	if _, err := Generate("fig99", Tiny(), nil); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

// TestBatchJobs checks the sweep expansion: deterministic order,
// complete grid, distinct descriptor keys.
func TestBatchJobs(t *testing.T) {
	p := Tiny()
	req := BatchRequest{
		Trackers:  []string{"dapper-h", "none"},
		Workloads: p.Workloads, // 2 workloads
		NRHs:      []uint32{125, 500},
		Profile:   p,
	}
	jobs, err := req.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2*2*2 {
		t.Fatalf("got %d jobs, want 8", len(jobs))
	}
	seen := map[string]bool{}
	for _, j := range jobs {
		k := j.Desc.Key()
		if seen[k] {
			t.Fatalf("duplicate key for %s", j.Desc)
		}
		seen[k] = true
	}
	if jobs[0].Desc.Tracker != "DAPPER-H" || jobs[4].Desc.Tracker != "none" {
		t.Fatalf("sweep order wrong: %s / %s", jobs[0].Desc, jobs[4].Desc)
	}
	if !jobs[0].Desc.Benign4 {
		t.Fatal("attack=none sweeps must run four benign copies")
	}
}

func TestBatchJobsValidation(t *testing.T) {
	p := Tiny()
	if _, err := (BatchRequest{Profile: p}).Jobs(); err == nil {
		t.Fatal("empty request must error")
	}
	req := BatchRequest{
		Trackers:  []string{"nosuch"},
		Workloads: p.Workloads,
		NRHs:      []uint32{500},
		Profile:   p,
	}
	if _, err := req.Jobs(); err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Fatal("unknown tracker must error with its name")
	}
}

func TestKnownTrackersStable(t *testing.T) {
	ids := KnownTrackers()
	if len(ids) != 11 {
		t.Fatalf("got %d tracker ids: %v", len(ids), ids)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("ids not sorted: %v", ids)
		}
	}
	for _, want := range []string{"none", "dapper-h", "dapper-s", "hydra", "blockhammer"} {
		found := false
		for _, id := range ids {
			if id == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing tracker id %q in %v", want, ids)
		}
	}
}

func TestResolveWorkloads(t *testing.T) {
	all, err := ResolveWorkloads("all")
	if err != nil || len(all) != 57 {
		t.Fatalf("all: %d workloads, err=%v", len(all), err)
	}
	rep, err := ResolveWorkloads("rep")
	if err != nil || len(rep) == 0 {
		t.Fatalf("rep: %d workloads, err=%v", len(rep), err)
	}
	one, err := ResolveWorkloads("429.mcf")
	if err != nil || len(one) != 1 || one[0].Name != "429.mcf" {
		t.Fatalf("single: %+v, err=%v", one, err)
	}
	if _, err := ResolveWorkloads("nosuch"); err == nil {
		t.Fatal("unknown workload must error")
	}
}
