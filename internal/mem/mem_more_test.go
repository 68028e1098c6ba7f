package mem

import (
	"testing"

	"dapper/internal/dram"
	"dapper/internal/rh"
)

func TestDRFMsbBlocksLongerThanRFMsb(t *testing.T) {
	mkRun := func(kind rh.ActionKind) dram.Cycle {
		ft := &fakeTracker{}
		c, geo, _ := testSetup(ft)
		agg := dram.Loc{BankGroup: 2, Bank: 1, Row: 10}
		ft.next = []rh.Action{{Kind: kind, Loc: agg, Row: 10}}
		c.Enqueue(reqAt(geo, agg, false), 0)
		runUntil(c, 0, 200)
		return c.BankBlockedUntil(geo.FlatBank(agg))
	}
	rfm := mkRun(rh.RefreshVictimsRFMsb)
	drfm := mkRun(rh.RefreshVictimsDRFMsb)
	if drfm <= rfm {
		t.Fatalf("DRFMsb block (%d) must exceed RFMsb (%d)", drfm, rfm)
	}
}

func TestBulkRefreshChannelBlocksBothRanks(t *testing.T) {
	ft := &fakeTracker{}
	c, geo, _ := testSetup(ft)
	ft.next = []rh.Action{{Kind: rh.BulkRefreshChannel}}
	c.Enqueue(reqAt(geo, dram.Loc{Row: 10}, false), 0)
	runUntil(c, 0, 200)
	for rank := 0; rank < geo.Ranks; rank++ {
		fb := geo.FlatBank(dram.Loc{Rank: rank, BankGroup: 3, Bank: 2})
		if c.BankBlockedUntil(fb) == 0 {
			t.Fatalf("rank %d not blocked by channel-wide refresh", rank)
		}
	}
	if c.Counters().BulkEvents != uint64(geo.Ranks) {
		t.Fatalf("bulk events = %d, want one per rank", c.Counters().BulkEvents)
	}
}

func TestInjectedRequestsHavePriority(t *testing.T) {
	ft := &fakeTracker{}
	c, geo, _ := testSetup(ft)
	// Fill the queue with core requests to one bank group, then let a
	// tracker action inject a read targeting a different bank: the
	// injected one should complete promptly despite arriving last.
	for i := 0; i < 20; i++ {
		c.Enqueue(reqAt(geo, dram.Loc{Row: uint32(i)}, false), 0)
	}
	ft.next = []rh.Action{{Kind: rh.InjectRead, Loc: dram.Loc{BankGroup: 5, Row: 9}}}
	runUntil(c, 0, 4000)
	if c.Counters().InjRD != 1 {
		t.Fatalf("injected read not served (InjRD=%d)", c.Counters().InjRD)
	}
}

func TestPRACActTaxStretchesActivationSpacing(t *testing.T) {
	geo := dram.Baseline()
	tim := dram.DDR5()
	tim.PRACActTax = dram.NS(20)
	c := NewController(0, geo, tim, rh.NewNop(), rh.VRR1)
	r1 := reqAt(geo, dram.Loc{Row: 1}, false)
	r2 := reqAt(geo, dram.Loc{Row: 2}, false) // same bank: serialized by tRC+tax
	c.Enqueue(r1, 0)
	c.Enqueue(r2, 0)
	runUntil(c, 0, 4000)
	if !r2.Done {
		t.Fatal("incomplete")
	}
	plain := NewController(0, geo, dram.DDR5(), rh.NewNop(), rh.VRR1)
	p1 := reqAt(geo, dram.Loc{Row: 1}, false)
	p2 := reqAt(geo, dram.Loc{Row: 2}, false)
	plain.Enqueue(p1, 0)
	plain.Enqueue(p2, 0)
	runUntil(plain, 0, 4000)
	if r2.DoneAt <= p2.DoneAt {
		t.Fatalf("PRAC tax had no effect: %d vs %d", r2.DoneAt, p2.DoneAt)
	}
}

func TestDataBusSpacesBackToBackHits(t *testing.T) {
	c, geo, tim := testSetup(nil)
	// Open a row, then issue two hits: completions must be >= tBurst
	// apart (shared data bus).
	c.Enqueue(reqAt(geo, dram.Loc{Row: 5}, false), 0)
	runUntil(c, 0, 400)
	h1 := reqAt(geo, dram.Loc{Row: 5, Col: 1}, false)
	h2 := reqAt(geo, dram.Loc{Row: 5, Col: 2}, false)
	c.Enqueue(h1, 400)
	c.Enqueue(h2, 400)
	runUntil(c, 400, 1200)
	gap := h2.DoneAt - h1.DoneAt
	if gap < tim.TBurst {
		t.Fatalf("hit spacing %d < tBurst %d", gap, tim.TBurst)
	}
}

func TestRowHitStreamingApproachesBusRate(t *testing.T) {
	// Sequential hits to one open row should stream at roughly one
	// transfer per tBurst, not one per full latency (the regression the
	// tCCD fix addressed).
	c, geo, tim := testSetup(nil)
	c.Enqueue(reqAt(geo, dram.Loc{Row: 5}, false), 0)
	runUntil(c, 0, 400)
	const n = 20
	reqs := make([]*Request, n)
	now := dram.Cycle(400)
	for i := range reqs {
		reqs[i] = reqAt(geo, dram.Loc{Row: 5, Col: 1 + i%100}, false)
	}
	i := 0
	for ; now < 5000; now++ {
		c.Tick(now)
		if i < n && c.CanEnqueue() {
			c.Enqueue(reqs[i], now)
			i++
		}
	}
	last := reqs[n-1]
	if !last.Done {
		t.Fatal("stream incomplete")
	}
	span := last.DoneAt - 400
	perReq := span / n
	if perReq > 3*tim.TBurst {
		t.Fatalf("streaming rate %d cycles/req, want near tBurst %d", perReq, tim.TBurst)
	}
}

func TestEnqueueLeavesRequestUntouchedOnRefusal(t *testing.T) {
	c, geo, _ := testSetup(nil)
	for i := 0; c.CanEnqueue(); i++ {
		c.Enqueue(reqAt(geo, dram.Loc{Row: uint32(i)}, false), 0)
	}
	r := reqAt(geo, dram.Loc{Row: 999}, false)
	r.Done = true // sentinel: must not be cleared by a refused enqueue
	if c.Enqueue(r, 5) {
		t.Fatal("enqueue should have refused")
	}
	if !r.Done || r.EnqueuedAt != 0 {
		t.Fatal("refused enqueue mutated the request")
	}
}

func TestStatsAccumulate(t *testing.T) {
	c, geo, _ := testSetup(nil)
	c.Enqueue(reqAt(geo, dram.Loc{Row: 1}, false), 0)
	c.Enqueue(reqAt(geo, dram.Loc{Row: 1, Col: 1}, true), 0)
	runUntil(c, 0, 2000)
	st := c.Stats()
	if st.ReadsServed != 1 || st.WritesServed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.RowMisses != 1 || st.RowHits != 1 {
		t.Fatalf("row stats = %+v", st)
	}
	if st.TotalReadWait <= 0 {
		t.Fatal("read wait not tracked")
	}
}

// TestPooledRequestFollowsRetarget reuses one Request the way the cores
// and the cache hierarchy recycle theirs: served at bank A, reset to the
// zero Request, pointed at bank B and enqueued again. The controller
// caches the flat bank at Enqueue, so the second trip must land on B.
// Bank A's rank is bulk-blocked in between, so a stale index would also
// leave the request stuck behind A's block instead of completing.
func TestPooledRequestFollowsRetarget(t *testing.T) {
	for _, injected := range []bool{false, true} {
		ft := &fakeTracker{}
		c, geo, tim := testSetup(ft)
		locA := dram.Loc{Rank: 0, BankGroup: 1, Bank: 2, Row: 10}
		locB := dram.Loc{Rank: 1, BankGroup: 6, Bank: 3, Row: 20}
		fbA, fbB := geo.FlatBank(locA), geo.FlatBank(locB)

		r := &Request{Addr: geo.Compose(locA), Loc: locA, Injected: injected}
		c.Enqueue(r, 0)
		runUntil(c, 0, 500)
		if !r.Done || c.BankOpenRow(fbA) != locA.Row {
			t.Fatalf("injected=%v: first trip: done=%v, bank A row %d", injected, r.Done, c.BankOpenRow(fbA))
		}

		// The first tracker tick (at tREFI) bulk-refreshes bank A's rank.
		ft.tickActs = []rh.Action{{Kind: rh.BulkRefreshRank, Loc: locA}}
		start := tim.TREFI + 10
		runUntil(c, 500, start)
		if c.BankBlockedUntil(fbA) <= start+500 {
			t.Fatalf("injected=%v: bank A blocked only until %d", injected, c.BankBlockedUntil(fbA))
		}

		*r = Request{}
		r.Addr, r.Loc, r.Injected = geo.Compose(locB), locB, injected
		c.Enqueue(r, start)
		runUntil(c, start, start+500)
		if !r.Done {
			t.Fatalf("injected=%v: retargeted request stuck (bank A blocked until %d)", injected, c.BankBlockedUntil(fbA))
		}
		if got := c.BankOpenRow(fbB); got != locB.Row {
			t.Fatalf("injected=%v: bank B open row = %d, want %d", injected, got, locB.Row)
		}
		if got := c.BankOpenRow(fbA); got != dram.RowNone {
			t.Fatalf("injected=%v: bank A reopened row %d while blocked", injected, got)
		}
		if c.BankBlockedUntil(fbB) > r.DoneAt {
			t.Fatalf("injected=%v: bank B blocked until %d, served by %d", injected, c.BankBlockedUntil(fbB), r.DoneAt)
		}
	}
}
