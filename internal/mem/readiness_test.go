package mem

import (
	"math/rand"
	"testing"

	"dapper/internal/dram"
	"dapper/internal/rh"
)

// The reference scheduler below is the per-request rescan the readiness
// cache replaced: every query re-derives each queued request's bank,
// rank, tRC/tRRD, throttle and data-bus constraints from live state.
// The cache must agree with it exactly, on the wake time and on the
// request served.

// refEarliestReady is the rescan form of earliestReady over one queue.
func refEarliestReady(c *Controller, q []*Request, now dram.Cycle) dram.Cycle {
	best := dram.Never
	for _, r := range q {
		bank := &c.banks[r.fb]
		rank := &c.ranks[r.Loc.Rank]
		t := now + 1
		t = max(t, bank.ReadyAt)
		t = max(t, bank.BlockedUntil)
		t = max(t, rank.BlockedUntil)
		lat := c.lat[rowHit]
		if bank.OpenRow != r.Loc.Row {
			var actDelay dram.Cycle
			lat = c.lat[rowClosed]
			if bank.OpenRow != dram.RowNone {
				actDelay = c.tim.TRP
				lat = c.lat[rowConflict]
			}
			t = max(t, bank.LastActAt+c.actSpacing-actDelay)
			t = max(t, rank.LastActAt+c.tRRDS-actDelay)
			if c.throt != nil && !r.Injected {
				t = max(t, c.throt.NextAllowed(t, r.Loc))
			}
		}
		t = max(t, c.dataBusFreeAt-lat)
		if t < best {
			best = t
		}
	}
	return best
}

// refNextEvent is NextEvent over the rescan.
func refNextEvent(c *Controller, now dram.Cycle) dram.Cycle {
	next := c.nextTrackerTick
	for r := range c.ranks {
		next = min(next, c.ranks[r].NextRefAt)
	}
	if len(c.queue)+len(c.injected) > 0 {
		ready := min(refEarliestReady(c, c.injected, now), refEarliestReady(c, c.queue, now))
		anchor := max(c.nextConsider, now+1)
		t := anchor
		if ready > anchor {
			t = anchor + (ready-anchor+1)/2*2
		}
		next = min(next, t)
	}
	return max(next, now+1)
}

// refPick is the rescan form of pick: FR-FCFS over one queue.
func refPick(c *Controller, q []*Request, now dram.Cycle) *Request {
	var oldest *Request
	for _, r := range q {
		bank := &c.banks[r.fb]
		if bank.AvailableAt(now) > now {
			continue
		}
		rank := &c.ranks[r.Loc.Rank]
		if rank.BlockedUntil > now {
			continue
		}
		hit := bank.OpenRow == r.Loc.Row
		lat := c.lat[rowHit]
		if !hit {
			actAt := now
			lat = c.lat[rowClosed]
			if bank.OpenRow != dram.RowNone {
				actAt = now + c.tim.TRP
				lat = c.lat[rowConflict]
			}
			if bank.LastActAt+c.actSpacing > actAt || rank.LastActAt+c.tRRDS > actAt {
				continue
			}
			if c.throt != nil && !r.Injected && c.throt.NextAllowed(now, r.Loc) > now {
				continue
			}
		}
		if c.dataBusFreeAt > now+lat {
			continue
		}
		if hit {
			return r
		}
		if oldest == nil {
			oldest = r
		}
	}
	return oldest
}

// nextServed is the request trySchedule would start at cycle at, under
// the readiness cache (ref=false) or the rescan (ref=true). Neither
// changes any scheduling state.
func nextServed(c *Controller, at dram.Cycle, ref bool) *Request {
	if ref {
		if r := refPick(c, c.injected, at); r != nil {
			return r
		}
		return refPick(c, c.queue, at)
	}
	c.refreshReady()
	if r := c.pick(c.injected, at); r != nil {
		return r
	}
	return c.pick(c.queue, at)
}

// checkAgainstRescan asserts that the wake time and the next served
// request agree with the rescan, both at now and at the wake time.
func checkAgainstRescan(t *testing.T, c *Controller, now dram.Cycle, what string) {
	t.Helper()
	want := refNextEvent(c, now)
	if got := c.NextEvent(now); got != want {
		t.Fatalf("after %s at %d: NextEvent = %d, rescan says %d", what, now, got, want)
	}
	for _, at := range []dram.Cycle{now, want} {
		if got, ref := nextServed(c, at, false), nextServed(c, at, true); got != ref {
			t.Fatalf("after %s at %d: cache serves %+v at %d, rescan serves %+v", what, now, got, at, ref)
		}
	}
}

// scriptTracker answers activations and periodic ticks with seeded
// random mitigations, bulk refreshes and injected counter traffic.
type scriptTracker struct {
	rng  *rand.Rand
	locs []dram.Loc
}

func (s *scriptTracker) Name() string    { return "script" }
func (s *scriptTracker) Stats() rh.Stats { return rh.Stats{} }

func (s *scriptTracker) OnActivate(_ dram.Cycle, loc dram.Loc, buf []rh.Action) []rh.Action {
	switch p := s.rng.Intn(1000); {
	case p < 80:
		buf = append(buf, rh.Action{Kind: rh.RefreshVictims, Loc: loc, Row: loc.Row})
	case p < 120:
		buf = append(buf, rh.Action{Kind: rh.RefreshVictimsRFMsb, Loc: loc, Row: loc.Row})
	case p < 123:
		buf = append(buf, rh.Action{Kind: rh.BulkRefreshRank, Loc: loc})
	case p < 300:
		kind := rh.InjectRead
		if s.rng.Intn(3) == 0 {
			kind = rh.InjectWrite
		}
		buf = append(buf, rh.Action{Kind: kind, Loc: s.locs[s.rng.Intn(len(s.locs))]})
	}
	return buf
}

func (s *scriptTracker) Tick(_ dram.Cycle, buf []rh.Action) []rh.Action {
	for n := s.rng.Intn(4); n > 0; n-- {
		buf = append(buf, rh.Action{Kind: rh.InjectRead, Loc: s.locs[s.rng.Intn(len(s.locs))]})
	}
	if s.rng.Intn(4) == 0 {
		buf = append(buf, rh.Action{Kind: rh.BulkRefreshRank, Loc: s.locs[s.rng.Intn(len(s.locs))]})
	}
	return buf
}

// throttledScript adds a time-dependent throttle: rows divisible by 3
// may activate only in the first third of every 150-cycle window.
type throttledScript struct{ scriptTracker }

func (s *throttledScript) NextAllowed(now dram.Cycle, loc dram.Loc) dram.Cycle {
	if loc.Row%3 != 0 || now%150 < 50 {
		return now
	}
	return now - now%150 + 150
}

// TestReadinessCacheMatchesRescan drives seeded random scripts through a
// controller cycle by cycle — demand and injected traffic over a few
// banks and rows, VRR, RFMsb and bulk-refresh tracker actions, rank
// refreshes, with and without a throttler — and checks the readiness
// cache against the rescan after every Tick and Enqueue. Demand requests
// are reused without clearing their cached fields, as the cores reuse
// theirs, and some enqueues land on a stale cache.
func TestReadinessCacheMatchesRescan(t *testing.T) {
	geo := dram.Scaled(64) // a short bulk sweep keeps bulk refreshes in reach
	tim := dram.DDR5()
	var locs []dram.Loc
	for rank := 0; rank < geo.Ranks; rank++ {
		for bg := 0; bg < 3; bg++ {
			for b := 0; b < 2; b++ {
				for row := uint32(0); row < 4; row++ {
					locs = append(locs, dram.Loc{Rank: rank, BankGroup: bg, Bank: b, Row: row})
				}
			}
		}
	}
	horizon := 4 * tim.TREFI
	for seed := int64(1); seed <= 6; seed++ {
		for _, throttled := range []bool{false, true} {
			rng := rand.New(rand.NewSource(seed))
			script := scriptTracker{rng: rand.New(rand.NewSource(seed + 100)), locs: locs}
			var tr rh.Tracker = &script
			if throttled {
				tr = &throttledScript{script}
			}
			c := NewController(0, geo, tim, tr, rh.VRR1)
			var free, inflight []*Request
			served := 0
			for now := dram.Cycle(0); now < horizon; now++ {
				c.Tick(now)
				arrivals := 0
				if rng.Intn(8) == 0 {
					arrivals = 1 + rng.Intn(3)
				}
				// Leave the cache stale for some enqueues.
				if arrivals == 0 || rng.Intn(2) == 0 {
					checkAgainstRescan(t, c, now, "Tick")
				}
				kept := inflight[:0]
				for _, r := range inflight {
					if r.Done {
						free = append(free, r)
						served++
					} else {
						kept = append(kept, r)
					}
				}
				inflight = kept
				for ; arrivals > 0 && c.CanEnqueue(); arrivals-- {
					var r *Request
					if n := len(free); n > 0 {
						r, free = free[n-1], free[:n-1]
					} else {
						r = new(Request)
					}
					loc := locs[rng.Intn(len(locs))]
					r.Loc, r.Addr, r.IsWrite, r.Core = loc, geo.Compose(loc), rng.Intn(4) == 0, rng.Intn(4)
					c.Enqueue(r, now)
					inflight = append(inflight, r)
					checkAgainstRescan(t, c, now, "Enqueue")
				}
			}
			ctr := c.Counters()
			if served < 500 || ctr.InjRD == 0 || ctr.InjWR == 0 || ctr.VRR == 0 || ctr.RFMsb == 0 || ctr.BulkEvents == 0 || ctr.REF == 0 {
				t.Fatalf("seed %d throttled=%v: script too tame: %d served, counters %+v", seed, throttled, served, ctr)
			}
		}
	}
}

// TestReadinessCacheStalePooledEnqueue pins the case a dirty-bank-only
// cache gets wrong: a recycled injected request, reset to the zero
// Request (whose zero class reads as a row hit), enqueued onto a bank
// that has not changed since the cache was last refreshed, while the
// cache is stale from the service that triggered the injection.
func TestReadinessCacheStalePooledEnqueue(t *testing.T) {
	ft := &fakeTracker{}
	c, geo, _ := testSetup(ft)
	locX := dram.Loc{Rank: 0, BankGroup: 1, Bank: 0, Row: 3}
	locC := dram.Loc{Rank: 0, BankGroup: 5, Bank: 2, Row: 9} // never touched before the second injection

	// First trip: the demand ACT injects onto bank X; once served, that
	// request goes back to the controller's pool.
	ft.next = []rh.Action{{Kind: rh.InjectRead, Loc: locX}}
	c.Enqueue(reqAt(geo, dram.Loc{Rank: 0, BankGroup: 0, Bank: 0, Row: 1}, false), 0)
	runUntil(c, 0, 400)
	if c.Counters().InjRD != 1 || len(c.injected) != 0 || len(c.reqPool) != 1 {
		t.Fatalf("first injection not served and pooled: %+v, %d queued, %d pooled", c.Counters(), len(c.injected), len(c.reqPool))
	}
	pooled := c.reqPool[0]
	checkAgainstRescan(t, c, 399, "first trip") // leaves the cache fresh

	// Second trip: serving the demand on bank E marks the cache stale,
	// and the injection it triggers reuses the pooled request on bank C.
	ft.next = []rh.Action{{Kind: rh.InjectRead, Loc: locC}}
	c.Enqueue(reqAt(geo, dram.Loc{Rank: 0, BankGroup: 2, Bank: 1, Row: 7}, false), 400)
	for now := dram.Cycle(400); len(c.injected) == 0; now++ {
		if now > 800 {
			t.Fatal("second demand request never served")
		}
		c.Tick(now)
		if len(c.injected) > 0 {
			if c.injected[0] != pooled {
				t.Fatal("the second injection did not reuse the pooled request")
			}
			if !c.stale {
				t.Fatal("cache fresh right after a service; the case under test needs it stale")
			}
			checkAgainstRescan(t, c, now, "stale pooled enqueue")
		}
	}
}
