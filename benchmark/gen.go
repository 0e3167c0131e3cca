package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
)

// Every input the engine sees comes from a generator derived from the
// run's -seed. Streams are told apart by a salt, so adding a stream
// never shifts another one's numbers.
const (
	saltLoad   = 0x10ad
	saltWriter = 0x3717e // + writer index
	saltOLAP   = 0x01a9
	saltOrder  = 0x07de7 // the count-bound phase of oltp-durable
	saltAge    = 0xa9e
	saltBurst  = 0xb057
)

func newRand(seed int64, salt int64) *rand.Rand {
	// splitmix-style mixing keeps nearby (seed, salt) pairs apart.
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(salt)*0xbf58476d1ce4e5b9
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z)))
}

type opKind uint8

const (
	opTransfer opKind = iota // 4 Get + 4 Set over two columns, rows a and b
	opAudit                  // 4 Get, read-only
)

// op is one generated OLTP transaction.
type op struct {
	kind   opKind
	c1, c2 uint8 // two distinct value columns (indexes into the table's value columns)
	a, b   int32 // two distinct rows inside the writer's partition
	x      int8  // amount moved from a to b, 1..10
}

// opGen generates the transfer mix for one writer. Rows are drawn
// zipfian (s = 1.3) from the writer's own partition [base, base+size)
// and scattered over it by a seed-derived odd multiplier, so hot rows
// differ between seeds and do not share pages. size is a power of two.
type opGen struct {
	r        *rand.Rand
	z        *rand.Zipf
	base     int32
	mask     uint32
	mul      uint32
	valCols  int
	auditPct int
}

func newOpGen(seed, salt int64, base, size, valCols, auditPct int) *opGen {
	if size&(size-1) != 0 || size < 2 {
		panic("opGen: partition size must be a power of two >= 2")
	}
	r := newRand(seed, salt)
	return &opGen{
		r:        r,
		z:        rand.NewZipf(r, 1.3, 1, uint64(size-1)),
		base:     int32(base),
		mask:     uint32(size - 1),
		mul:      r.Uint32() | 1,
		valCols:  valCols,
		auditPct: auditPct,
	}
}

func (g *opGen) row() int32 {
	return g.base + int32((uint32(g.z.Uint64())*g.mul)&g.mask)
}

func (g *opGen) next() op {
	o := op{kind: opTransfer}
	if g.r.Intn(100) < g.auditPct {
		o.kind = opAudit
	}
	o.c1 = uint8(g.r.Intn(g.valCols))
	o.c2 = o.c1
	if g.valCols > 1 {
		o.c2 = uint8((int(o.c1) + 1 + g.r.Intn(g.valCols-1)) % g.valCols)
	}
	o.a = g.row()
	for o.b = g.row(); o.b == o.a; o.b = g.row() {
	}
	o.x = int8(1 + g.r.Intn(10))
	return o
}

// streamHash fingerprints the next n operations of g.
func streamHash(g *opGen, n int) uint64 {
	h := fnv.New64a()
	var buf [12]byte
	for i := 0; i < n; i++ {
		o := g.next()
		buf[0], buf[1], buf[2], buf[3] = byte(o.kind), o.c1, o.c2, byte(o.x)
		binary.LittleEndian.PutUint32(buf[4:], uint32(o.a))
		binary.LittleEndian.PutUint32(buf[8:], uint32(o.b))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// loadValues returns the seed-derived initial values of one value
// column: uniform in [1000, 2000).
func loadValues(seed int64, col, rows int) []int64 {
	r := newRand(seed, saltLoad+int64(col)<<16)
	vals := make([]int64, rows)
	for i := range vals {
		vals[i] = 1000 + r.Int63n(1000)
	}
	return vals
}
