// Package workload generates deterministic mixed OLTP/OLAP operation
// streams — the YCSB-style zipfian read/update mixes and the
// new-order/payment-style multi-row transactions of the paper's
// Section 5 evaluation. The fault-injection harness drives them: a
// seeded stream it can replay op-for-op against a recovered database.
// Everything downstream of the seed is deterministic: a Gen with the
// same profile, seed and row domain emits byte-identical op sequences.
package workload

import "math/rand"

// Profile names an operation mix.
type Profile string

const (
	// YCSBA is the update-heavy YCSB-A mix: 50% point reads, 50%
	// single-cell updates, rows drawn zipfian.
	YCSBA Profile = "ycsb-a"
	// YCSBB is the read-heavy YCSB-B mix: 95% point reads, 5%
	// single-cell updates, rows drawn zipfian.
	YCSBB Profile = "ycsb-b"
	// TPCC is a new-order/payment-style transactional mix: multi-row
	// transactions that insert order rows, update zipfian-hot "stock"
	// rows, read account state, and occasionally deliver (delete) the
	// oldest open order.
	TPCC Profile = "tpcc"
)

// Profiles lists every defined profile, in a fixed order.
var Profiles = []Profile{YCSBA, YCSBB, TPCC}

// Cell addresses one value for a point read.
type Cell struct {
	Col string
	Row int
}

// Write stages one cell update.
type Write struct {
	Col string
	Row int
	Val int64
}

// Op is one transaction's worth of work. All fields may be combined;
// a Runner applies them inside a single transaction in a fixed order
// (reads, writes, inserts, delete) so replaying an op stream is
// deterministic.
type Op struct {
	Reads        []Cell    // point reads
	Writes       []Write   // updates to rows in the initial domain
	Inserts      [][]int64 // new rows, one value per table column
	DeleteOldest bool      // delete the runner's oldest live inserted row
}

// Gen deterministically generates ops for one profile. Not safe for
// concurrent use — give each worker its own Gen with its own seed.
type Gen struct {
	profile Profile
	cols    []string
	rnd     *rand.Rand
	zipf    *rand.Zipf
	next    int64 // monotone value sequence: every written value is unique
}

// zipfS is the zipfian skew parameter. rand.Zipf's s=1.3 concentrates
// roughly half the draws on the hottest ~1% of rows, the contention
// regime the YCSB mixes are meant to exercise.
const zipfS = 1.3

// NewGen returns a generator for profile over a table with the given
// columns and rows initial rows. Identical arguments yield identical
// op streams.
func NewGen(profile Profile, seed int64, cols []string, rows int) *Gen {
	rnd := rand.New(rand.NewSource(seed))
	return &Gen{
		profile: profile,
		cols:    cols,
		rnd:     rnd,
		zipf:    rand.NewZipf(rnd, zipfS, 1, uint64(rows-1)),
		next:    seed * 1e9, // disjoint value ranges per seed
	}
}

// Next returns the next op in the stream.
func (g *Gen) Next() Op {
	switch g.profile {
	case YCSBB:
		if g.rnd.Intn(100) < 95 {
			return Op{Reads: []Cell{g.cell()}}
		}
		return Op{Writes: []Write{g.write()}}
	case TPCC:
		return g.tpccOp()
	default: // YCSBA
		if g.rnd.Intn(2) == 0 {
			return Op{Reads: []Cell{g.cell()}}
		}
		return Op{Writes: []Write{g.write()}}
	}
}

// tpccOp draws from the TPC-C-inspired mix: 45% new-order, 43%
// payment, 8% order-status, 4% delivery.
func (g *Gen) tpccOp() Op {
	switch p := g.rnd.Intn(100); {
	case p < 45: // new-order: insert an order row, update 4 hot stock rows
		row := make([]int64, len(g.cols))
		for i := range row {
			row[i] = g.val()
		}
		op := Op{Inserts: [][]int64{row}}
		for i := 0; i < 4; i++ {
			op.Writes = append(op.Writes, g.write())
		}
		return op
	case p < 88: // payment: update a balance, read two accounts
		return Op{
			Writes: []Write{g.write()},
			Reads:  []Cell{g.cell(), g.cell()},
		}
	case p < 96: // order-status: read-only
		return Op{Reads: []Cell{g.cell(), g.cell(), g.cell()}}
	default: // delivery: retire the oldest open order
		return Op{DeleteOldest: true}
	}
}

func (g *Gen) cell() Cell {
	return Cell{Col: g.cols[g.rnd.Intn(len(g.cols))], Row: int(g.zipf.Uint64())}
}

func (g *Gen) write() Write {
	return Write{Col: g.cols[g.rnd.Intn(len(g.cols))], Row: int(g.zipf.Uint64()), Val: g.val()}
}

func (g *Gen) val() int64 {
	g.next++
	return g.next
}
