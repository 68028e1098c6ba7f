// Package hotpath is the fixture for the //dapper:hot contract:
// annotated functions must not allocate, format, close over state, or
// box concrete values into interfaces, nor call value-receiver methods
// on structs larger than 64 bytes. Unannotated functions are free.
package hotpath

import "fmt"

type observer interface{ Observe(int) }

type rec struct {
	buf  []uint64
	sink observer
}

//dapper:hot
func (r *rec) fold(w int) {
	// Index arithmetic, field access and interface method calls through
	// an already-boxed value are all fine.
	r.buf[w]++
	if r.sink != nil {
		r.sink.Observe(w)
	}
}

//dapper:hot
func (r *rec) allocates(n int) {
	r.buf = make([]uint64, n) // want `make in //dapper:hot allocates`
	p := new(int)             // want `new in //dapper:hot allocates`
	_ = p
	r.buf = append(r.buf, 1) // want `append in //dapper:hot allocates`
}

//dapper:hot
func (r *rec) literals() {
	s := []int{1}      // want `slice literal in //dapper:hot literals allocates`
	m := map[int]int{} // want `map literal in //dapper:hot literals allocates`
	p := &rec{}        // want `&composite literal in //dapper:hot literals allocates`
	_, _, _ = s, m, p
}

//dapper:hot
func (r *rec) formats(v int) string {
	return fmt.Sprintf("%d", v) // want `fmt\.Sprintf in //dapper:hot formats allocates and boxes`
}

//dapper:hot
func (r *rec) control() {
	defer noop()   // want `defer in //dapper:hot control`
	go noop()      // want `goroutine in //dapper:hot control`
	f := func() {} // want `closure in //dapper:hot control`
	f()
}

//dapper:hot
func (r *rec) boxes(v int) {
	consume(v)            // want `argument boxes concrete int into interface`
	consumeVariadic(1, v) // want `argument boxes concrete int into interface` `argument boxes concrete int into interface`
	consume(nil)          // untyped nil never boxes
	consume(r.sink)       // already an interface: fine
}

// timing is shaped like dram.Timing: 17 int64 fields, 136 bytes, with
// value-receiver helpers.
type timing struct {
	trc, trcd, trp, tcl, trrds, trrdl, twr, tburst, trfc int64
	trefi, trefw, tvrr1, tvrr2, trfm, tdrfm, tbulk, ttax int64
}

func (t timing) RowHitLatency() int64 { return t.tcl }

func (t *timing) rowMissLatency() int64 { return t.trp + t.trcd + t.tcl }

// small fits in 64 bytes; copying it is as cheap as passing its fields.
type small struct{ a, b, c, d, e, f, g, h int64 }

func (s small) sum() int64 { return s.a + s.h }

type ctrl struct {
	tim    timing
	tp     *timing
	sm     small
	hitLat int64
}

//dapper:hot
func (c *ctrl) copies() int64 {
	n := c.tim.RowHitLatency()  // want `value-receiver call timing\.RowHitLatency copies 136 bytes in //dapper:hot copies`
	n += c.tp.RowHitLatency()   // want `value-receiver call timing\.RowHitLatency copies 136 bytes`
	n += c.tim.rowMissLatency() // pointer receiver: no copy
	n += c.sm.sum()             // 64 bytes: at the limit, fine
	return n + c.hitLat + c.tim.tcl
}

// Promoted and instantiated generic methods copy just the same; inside
// the generic type's own methods the size is unknown and not judged.
type inner struct{ timing }

type gen[T any] struct{ v [20]T }

func (g gen[T]) first() T { return g.v[0] }

//dapper:hot
func (g gen[T]) second() T { return g.first() }

//dapper:hot
func promoted(o inner, g gen[int64]) int64 {
	return o.RowHitLatency() + // want `value-receiver call timing\.RowHitLatency copies 136 bytes`
		g.first() // want `value-receiver call gen\[int64\]\.first copies 160 bytes`
}

func notHotCopiesFreely(c *ctrl) int64 { return c.tim.RowHitLatency() }

func notHotAllocatesFreely(n int) []int {
	out := make([]int, n)
	return append(out, len(fmt.Sprint(n)))
}

func consume(x any) { _ = x }

func consumeVariadic(xs ...any) { _ = xs }

func noop() {}
