package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"dapper/internal/attack"
	"dapper/internal/core"
	"dapper/internal/cpu"
	"dapper/internal/dram"
	"dapper/internal/rh"
	"dapper/internal/secaudit"
	"dapper/internal/trackers/abacus"
	"dapper/internal/trackers/blockhammer"
	"dapper/internal/trackers/hydra"
	"dapper/internal/trackers/prac"
	"dapper/internal/trackers/start"
)

// batchPoint names one cell of the batched equivalence matrix.
type namedBatchPoint struct {
	name  string
	point BatchPoint
}

// batchPoints builds the sweep: an insecure lead, a guaranteed-lockstep
// twin, three table trackers (lockstep under benign load, diverging
// under attack), one point per up-front fallback reason (LLC
// reservation, ACT tax, throttler), and an insecure VRR2 point (its
// mode differs from the lead's, but neither ever emits a victim
// refresh, so it rides).
func batchPoints(g dram.Geometry) []namedBatchPoint {
	return []namedBatchPoint{
		{"nop-lead", BatchPoint{}},
		{"nop-twin", BatchPoint{}},
		{"hydra", BatchPoint{Tracker: func(ch int) rh.Tracker {
			return hydra.New(ch, hydra.Config{Geometry: g, NRH: 500})
		}}},
		// NRH 16 transitions row groups to per-row tracking within any
		// workload's first few microseconds; the injected counter fetches
		// disagree with the insecure lead's empty stream, so this point
		// always exercises the divergence fallback.
		{"hydra-low-diverges", BatchPoint{Tracker: func(ch int) rh.Tracker {
			return hydra.New(ch, hydra.Config{Geometry: g, NRH: 16})
		}}},
		{"dapper-h", BatchPoint{Tracker: func(ch int) rh.Tracker {
			d, err := core.NewDapperH(ch, core.Config{Geometry: g, NRH: 500})
			if err != nil {
				panic(err)
			}
			return d
		}}},
		{"abacus", BatchPoint{Tracker: func(ch int) rh.Tracker {
			return abacus.New(ch, abacus.Config{Geometry: g, NRH: 500})
		}}},
		{"start-llc", BatchPoint{Tracker: func(ch int) rh.Tracker {
			return start.New(ch, start.Config{Geometry: g, NRH: 500})
		}}},
		{"prac-tax", BatchPoint{Tracker: func(ch int) rh.Tracker {
			return prac.New(ch, prac.Config{Geometry: g, NRH: 500})
		}}},
		{"blockhammer-throttle", BatchPoint{Tracker: func(ch int) rh.Tracker {
			return blockhammer.New(ch, blockhammer.Config{Geometry: g, NRH: 500})
		}}},
		{"nop-vrr2", BatchPoint{Mode: rh.VRR2}},
	}
}

// runBatchAll is RunBatch plus what the harness pool does with the
// spilled points: each runs independently on a fresh config from base.
// Outcomes keep RunBatch's verdict for every point.
func runBatchAll(base func() Config, points []BatchPoint) ([]Result, []BatchOutcome, error) {
	var spilled []int
	results, outcomes, err := RunBatch(base(), points, func(i int, _ BatchOutcome) {
		spilled = append(spilled, i)
	})
	if err != nil {
		return nil, nil, err
	}
	for _, i := range spilled {
		cfg := base()
		cfg.Tracker, cfg.Mode, cfg.Observer = points[i].Tracker, points[i].Mode, points[i].Observer
		if results[i], err = Run(cfg); err != nil {
			return nil, nil, err
		}
	}
	return results, outcomes, nil
}

func batchBaseConfig(t *testing.T, g dram.Geometry, hammer bool) Config {
	t.Helper()
	var traces []cpu.Trace
	if hammer {
		traces = append(BenignTraces(mustWorkload(t, "ycsb_a"), 3, g, 3),
			attack.MustTrace(attack.Config{Geometry: g, NRH: 500, Kind: attack.Refresh}))
	} else {
		traces = BenignTraces(mustWorkload(t, "429.mcf"), 4, g, 3)
	}
	return Config{
		Geometry:        g,
		Traces:          traces,
		Warmup:          dram.US(20),
		Measure:         dram.US(60),
		TelemetryWindow: dram.US(10),
		Attribution:     true,
	}
}

// TestEngineEquivalenceBatched is the batched runner's safety net:
// every point's Result — lockstep or fallback — must be byte-identical
// (JSON) to an independent sim.Run of the same configuration, with
// telemetry and attribution on. The benign half exercises lockstep
// replay (trackers that stay quiet emit the lead's empty action
// stream); the hammer half forces the divergence fallback (mitigating
// trackers disagree with the insecure lead's stream).
func TestEngineEquivalenceBatched(t *testing.T) {
	g := dram.Baseline()
	for _, hammer := range []bool{false, true} {
		name := "benign"
		if hammer {
			name = "hammer"
		}
		t.Run(name, func(t *testing.T) {
			pts := batchPoints(g)
			points := make([]BatchPoint, len(pts))
			for i := range pts {
				points[i] = pts[i].point
			}
			results, outcomes, err := runBatchAll(func() Config { return batchBaseConfig(t, g, hammer) }, points)
			if err != nil {
				t.Fatal(err)
			}

			lockstep := 0
			for i := range pts {
				t.Run(pts[i].name, func(t *testing.T) {
					cfg := batchBaseConfig(t, g, hammer)
					cfg.Tracker = pts[i].point.Tracker
					cfg.Mode = pts[i].point.Mode
					want := MustRun(cfg)
					wantJS, err := json.Marshal(want)
					if err != nil {
						t.Fatal(err)
					}
					gotJS, err := json.Marshal(results[i])
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(wantJS, gotJS) {
						t.Fatalf("batched result diverges from independent run (outcome %+v):\n want %s\n got  %s",
							outcomes[i], wantJS, gotJS)
					}
				})
				if outcomes[i].Lockstep {
					lockstep++
				}
			}

			// The fallback taxonomy must hold regardless of workload.
			wantReasons := map[string]FallbackReason{
				"nop-lead":             FallbackLead,
				"start-llc":            FallbackLLCReserve,
				"prac-tax":             FallbackActTax,
				"blockhammer-throttle": FallbackThrottler,
			}
			for i := range pts {
				if want, ok := wantReasons[pts[i].name]; ok {
					if outcomes[i].Lockstep || outcomes[i].Reason != want {
						t.Errorf("%s: outcome %+v, want reason %q", pts[i].name, outcomes[i], want)
					}
				}
			}
			// The nop twin emits exactly the lead's (empty) stream: always
			// lockstep. And any point whose tracker acted differently from
			// the insecure lead must have been detected and rerun.
			for i := range pts {
				if (pts[i].name == "nop-twin" || pts[i].name == "nop-vrr2") && !outcomes[i].Lockstep {
					t.Errorf("%s fell back: %+v", pts[i].name, outcomes[i])
				}
				if outcomes[i].Lockstep &&
					(results[i].Tracker.Mitigations != 0 || results[i].Tracker.InjectedReads != 0) {
					t.Errorf("%s: lockstep point emitted actions the insecure lead could not have: %+v",
						pts[i].name, results[i].Tracker)
				}
			}
			for i := range pts {
				if pts[i].name == "hydra-low-diverges" && outcomes[i].Reason != FallbackDiverged {
					t.Errorf("hydra-low-diverges: outcome %+v, want divergence fallback", outcomes[i])
				}
			}
			if !hammer && lockstep < 2 {
				t.Errorf("benign scenario replayed only %d points in lockstep; want >= 2", lockstep)
			}
		})
	}
}

// TestEngineEquivalenceBatchedAudit extends the matrix to the observer
// stream: a security audit attached to a batched point must reach the
// same verdict as one attached to an independent run, for both a
// lockstep point (replayed observer events) and a diverging one (the
// fallback must not leak the partial lead stream into the audit).
func TestEngineEquivalenceBatchedAudit(t *testing.T) {
	g := dram.Baseline()
	// NRH 16 hydra injects counter traffic under any workload, so the
	// audited tracker point is guaranteed to diverge from the insecure
	// lead and take the fallback path.
	newTracker := func(ch int) rh.Tracker {
		return hydra.New(ch, hydra.Config{Geometry: g, NRH: 16})
	}
	newAudit := func() *secaudit.Audit {
		a, err := secaudit.New(secaudit.Config{Geometry: g, NRH: 500})
		if err != nil {
			panic(err)
		}
		return a
	}

	for _, hammer := range []bool{false, true} {
		name := "benign-lockstep"
		if hammer {
			name = "hammer-diverged"
		}
		t.Run(name, func(t *testing.T) {
			batchAudits := []*secaudit.Audit{newAudit(), newAudit()}
			points := []BatchPoint{
				{}, // insecure lead
				{Tracker: nil, Observer: batchAudits[0].Observer},
				{Tracker: newTracker, Observer: batchAudits[1].Observer},
			}
			_, outcomes, err := runBatchAll(func() Config { return batchBaseConfig(t, g, hammer) }, points)
			if err != nil {
				t.Fatal(err)
			}
			if !outcomes[1].Lockstep {
				t.Fatalf("audited nop point fell back: %+v", outcomes[1])
			}
			if outcomes[2].Reason != FallbackDiverged {
				t.Fatalf("audited hydra point: outcome %+v, want divergence fallback", outcomes[2])
			}

			for i := 1; i <= 2; i++ {
				indep := newAudit()
				cfg := batchBaseConfig(t, g, hammer)
				cfg.Tracker = points[i].Tracker
				cfg.Observer = indep.Observer
				MustRun(cfg)
				wantJS, err := json.Marshal(indep.Report())
				if err != nil {
					t.Fatal(err)
				}
				gotJS, err := json.Marshal(batchAudits[i-1].Report())
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(wantJS, gotJS) {
					t.Fatalf("point %d (outcome %+v): audit reports diverge:\n want %s\n got  %s",
						i, outcomes[i], wantJS, gotJS)
				}
			}
		})
	}
}

// TestEngineEquivalenceBatchedAllThrottlers pins the no-lead path:
// when every point throttles there is no shared stream, and each point
// must still come back as a byte-identical independent run.
func TestEngineEquivalenceBatchedAllThrottlers(t *testing.T) {
	g := dram.Baseline()
	mk := func(nrh uint32) TrackerFactory {
		return func(ch int) rh.Tracker {
			return blockhammer.New(ch, blockhammer.Config{Geometry: g, NRH: nrh})
		}
	}
	points := []BatchPoint{{Tracker: mk(500)}, {Tracker: mk(1000)}}
	results, outcomes, err := runBatchAll(func() Config { return batchBaseConfig(t, g, true) }, points)
	if err != nil {
		t.Fatal(err)
	}
	for i, nrh := range []uint32{500, 1000} {
		if outcomes[i].Lockstep || outcomes[i].Reason != FallbackThrottler {
			t.Errorf("point %d: outcome %+v, want throttler fallback", i, outcomes[i])
		}
		cfg := batchBaseConfig(t, g, true)
		cfg.Tracker = mk(nrh)
		want := MustRun(cfg)
		wantJS, _ := json.Marshal(want)
		gotJS, _ := json.Marshal(results[i])
		if !bytes.Equal(wantJS, gotJS) {
			t.Errorf("point %d: batched result diverges from independent run", i)
		}
	}
}

// everyNTracker is a scripted tracker: it requests a VRR for every
// n-th activation's row and otherwise does nothing.
type everyNTracker struct {
	n     uint64
	stats rh.Stats
}

func (t *everyNTracker) Name() string { return "every-n" }

func (t *everyNTracker) OnActivate(_ dram.Cycle, loc dram.Loc, buf []rh.Action) []rh.Action {
	t.stats.Activations++
	if t.stats.Activations%t.n != 0 {
		return buf
	}
	t.stats.Mitigations++
	t.stats.VictimRefreshes++
	return append(buf, rh.Action{Kind: rh.RefreshVictims, Loc: loc, Row: loc.Row})
}

func (t *everyNTracker) Tick(_ dram.Cycle, buf []rh.Action) []rh.Action { return buf }
func (t *everyNTracker) Stats() rh.Stats                                { return t.stats }

// checkBatchMatchesRun asserts that each batched result equals an
// independent Run of its point.
func checkBatchMatchesRun(t *testing.T, base func() Config, points []BatchPoint, results []Result, outcomes []BatchOutcome) {
	t.Helper()
	for i, p := range points {
		cfg := base()
		cfg.Tracker, cfg.Mode = p.Tracker, p.Mode
		wantJS, err := json.Marshal(MustRun(cfg))
		if err != nil {
			t.Fatal(err)
		}
		gotJS, err := json.Marshal(results[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantJS, gotJS) {
			t.Fatalf("point %d (outcome %+v) diverges from its independent run:\n want %s\n got  %s",
				i, outcomes[i], wantJS, gotJS)
		}
	}
}

// TestBatchModeRidesWithoutVictimRefresh: the controller reads the
// mitigation mode only for RefreshVictims durations, so a benign
// DAPPER-H DRFMsb point at NRH 2000 (which stays quiet) rides a VRR1
// lead in lockstep.
func TestBatchModeRidesWithoutVictimRefresh(t *testing.T) {
	g := dram.Baseline()
	base := func() Config { return batchBaseConfig(t, g, false) }
	points := []BatchPoint{
		{Mode: rh.VRR1},
		{Mode: rh.DRFMsb, Tracker: func(ch int) rh.Tracker {
			d, err := core.NewDapperH(ch, core.Config{Geometry: g, NRH: 2000, Mode: rh.DRFMsb})
			if err != nil {
				panic(err)
			}
			return d
		}},
	}
	results, outcomes, err := runBatchAll(base, points)
	if err != nil {
		t.Fatal(err)
	}
	if outcomes[0].Reason != FallbackLead || !outcomes[1].Lockstep {
		t.Fatalf("outcomes %+v: want the DRFMsb point riding the VRR1 lead", outcomes)
	}
	checkBatchMatchesRun(t, base, points, results, outcomes)
}

// TestBatchVRR2DivergesOnVictimRefresh: when the lead issues victim
// refreshes, a VRR2 rider emitting the very same actions must still
// fall back (its refreshes block the bank for tVRR2, not tVRR1), while
// an RFMsb rider with the same actions (tVRR1 as well) rides.
func TestBatchVRR2DivergesOnVictimRefresh(t *testing.T) {
	g := dram.Baseline()
	base := func() Config { return batchBaseConfig(t, g, false) }
	everyN := func(int) rh.Tracker { return &everyNTracker{n: 50} }
	points := []BatchPoint{
		{Tracker: everyN, Mode: rh.VRR1},
		{Tracker: everyN, Mode: rh.VRR2},
		{Tracker: everyN, Mode: rh.RFMsb},
	}
	results, outcomes, err := runBatchAll(base, points)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Counters.VRR == 0 {
		t.Fatal("the lead issued no victim refresh; the test proves nothing")
	}
	if outcomes[1].Lockstep || outcomes[1].Reason != FallbackDiverged {
		t.Errorf("VRR2 rider: outcome %+v, want divergence fallback", outcomes[1])
	}
	if !outcomes[2].Lockstep {
		t.Errorf("RFMsb rider: outcome %+v, want lockstep", outcomes[2])
	}
	checkBatchMatchesRun(t, base, points, results, outcomes)
}
