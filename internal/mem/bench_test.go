package mem

import (
	"math/rand"
	"testing"

	"dapper/internal/dram"
	"dapper/internal/rh"
)

// BenchmarkControllerSaturated isolates the scheduler: one controller
// whose 48-entry queue is kept full of reads to random banks and rows
// (so nearly every request is a row miss), driven the way the event
// engine drives it — Tick at each NextEvent wake, then refill whatever
// was served. One op is one wake.
func BenchmarkControllerSaturated(b *testing.B) {
	geo := dram.Baseline()
	c := NewController(0, geo, dram.DDR5(), rh.NewNop(), rh.VRR1)
	rng := rand.New(rand.NewSource(1))
	retarget := func(r *Request) {
		r.Loc = dram.Loc{
			Rank:      rng.Intn(geo.Ranks),
			BankGroup: rng.Intn(geo.BankGroups),
			Bank:      rng.Intn(geo.BanksPerGroup),
			Row:       uint32(rng.Intn(int(geo.RowsPerBank))),
		}
		r.Addr = geo.Compose(r.Loc)
	}
	reqs := make([]*Request, QueueCap)
	now := dram.Cycle(0)
	for i := range reqs {
		reqs[i] = new(Request)
		retarget(reqs[i])
		c.Enqueue(reqs[i], now)
	}
	served := c.Stats().ReadsServed
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = c.NextEvent(now)
		c.Tick(now)
		if s := c.Stats().ReadsServed; s != served {
			served = s
			for _, r := range reqs {
				if r.Done {
					retarget(r)
					c.Enqueue(r, now)
				}
			}
		}
	}
	b.ReportMetric(float64(served)/float64(b.N), "serves/op")
}
