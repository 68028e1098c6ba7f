package harness

import (
	"bytes"
	"fmt"
	"regexp"
	"testing"

	"dapper/internal/dram"
	"dapper/internal/rh"
	"dapper/internal/sim"
	"dapper/internal/workloads"
)

// lateTracker stays quiet for its first `after` activations and then
// requests a victim refresh on every 8th one, so a point riding a quiet
// lead diverges partway through the run (after == 0: never acts).
type lateTracker struct {
	after uint64
	stats rh.Stats
}

func (t *lateTracker) Name() string { return "late" }

func (t *lateTracker) OnActivate(_ dram.Cycle, loc dram.Loc, buf []rh.Action) []rh.Action {
	t.stats.Activations++
	if t.after == 0 || t.stats.Activations < t.after || t.stats.Activations%8 != 0 {
		return buf
	}
	t.stats.Mitigations++
	return append(buf, rh.Action{Kind: rh.RefreshVictims, Loc: loc, Row: loc.Row})
}

func (t *lateTracker) Tick(_ dram.Cycle, buf []rh.Action) []rh.Action { return buf }
func (t *lateTracker) Stats() rh.Stats                                { return t.stats }

// streamJobs builds one benign stream's jobs: the insecure baseline
// submitted last (it still leads), two points that diverge from it at
// different depths, and two that stay quiet and ride it to the end.
func streamJobs(t *testing.T, grouped bool) []Job {
	t.Helper()
	g := dram.Baseline()
	w, err := workloads.ByName("429.mcf")
	if err != nil {
		t.Fatal(err)
	}
	config := func() (sim.Config, error) {
		return sim.Config{
			Geometry: g,
			Traces:   sim.BenignTraces(w, 4, g, 1),
			Warmup:   dram.US(5),
			Measure:  dram.US(30),
		}, nil
	}
	key := testDesc(w.Name, 0)
	key.Tracker, key.Mode = "", ""
	var jobs []Job
	for i, after := range []uint64{0, 200, 3000, 0, ^uint64(0)} {
		d := testDesc(w.Name, uint32(1000+i))
		d.Tracker = fmt.Sprintf("late-%d", after)
		var factory sim.TrackerFactory
		if i == 4 {
			d.Tracker, factory = "none", nil
		} else {
			after := after
			factory = func(int) rh.Tracker { return &lateTracker{after: after} }
		}
		d.Extra = fmt.Sprint(i)
		job := Job{Desc: d, Run: func() (sim.Result, error) {
			cfg, err := config()
			if err != nil {
				return sim.Result{}, err
			}
			cfg.Tracker = factory
			return sim.Run(cfg)
		}}
		if grouped {
			job.Stream = &Stream{Key: key, Config: config, Point: sim.BatchPoint{Tracker: factory}}
		}
		jobs = append(jobs, job)
	}
	return jobs
}

var elapsedField = regexp.MustCompile(`"elapsed_ns":[0-9]+`)

// TestPoolStreamGroupSinkOrder: when riders spill from a group mid-run
// and finish later as independent jobs, the JSONL sink still sees the
// records in submission order, byte-identical (elapsed aside) to a pool
// that never groups.
func TestPoolStreamGroupSinkOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	var plain bytes.Buffer
	ref := NewPool(Options{Workers: 1, Sinks: []Sink{NewJSONLSink(&plain)}})
	ref.SubmitAll(streamJobs(t, false))
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	want := elapsedField.ReplaceAll(plain.Bytes(), nil)

	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var buf bytes.Buffer
			pool := NewPool(Options{Workers: workers, Sinks: []Sink{NewJSONLSink(&buf)}})
			futures := pool.SubmitAll(streamJobs(t, true))
			for _, f := range futures {
				if _, err := f.Wait(); err != nil {
					t.Fatal(err)
				}
			}
			if err := pool.Close(); err != nil {
				t.Fatal(err)
			}
			st := pool.Stats()
			if st.Diverged != 2 || st.Lockstep != 2 || st.Ran != 3 {
				t.Fatalf("stats %+v: want 2 diverged (rerun: 3 full runs with the lead), 2 lockstep", st)
			}
			if o := futures[4].Outcome(); o.Reason != sim.FallbackLead {
				t.Fatalf("insecure baseline outcome %+v, want lead", o)
			}
			if o := futures[1].Outcome(); o.Reason != sim.FallbackDiverged || o.DivergedAt <= 0 {
				t.Fatalf("late-200 outcome %+v, want a mid-run divergence", o)
			}
			if got := elapsedField.ReplaceAll(buf.Bytes(), nil); !bytes.Equal(got, want) {
				t.Fatalf("grouped JSONL differs from the ungrouped pool's:\n got %s\nwant %s", got, want)
			}
		})
	}
}
