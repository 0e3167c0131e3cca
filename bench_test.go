package ankerdb_test

// Go benchmarks over the public facade. CI runs these with
// -benchtime 1x as a smoke layer; locally they are the quickest way to
// see the effect of commit sharding (compare the shards=1 and
// shards=GOMAXPROCS variants of the parallel benchmarks). The counts
// these transactions must not exceed are gated in gate_test.go.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"ankerdb"
)

const (
	benchRows = 8192
	benchCols = 8
)

func openBenchDB(b testing.TB, shards int, opts ...ankerdb.Option) *ankerdb.DB {
	b.Helper()
	schema := ankerdb.Schema{Table: "bench"}
	for c := 0; c < benchCols; c++ {
		schema.Columns = append(schema.Columns,
			ankerdb.ColumnDef{Name: fmt.Sprintf("c%d", c), Type: ankerdb.Int64})
	}
	db, err := ankerdb.Open(append([]ankerdb.Option{
		ankerdb.WithCostModel(ankerdb.ZeroCost),
		ankerdb.WithCommitShards(shards),
		ankerdb.WithSnapshotRefresh(0),
		ankerdb.WithInitialSchema(schema, benchRows),
	}, opts...)...)
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	vals := make([]int64, benchRows)
	for i := range vals {
		vals[i] = int64(i)
	}
	for c := 0; c < benchCols; c++ {
		if err := db.Load("bench", fmt.Sprintf("c%d", c), vals); err != nil {
			b.Fatalf("Load: %v", err)
		}
	}
	return db
}

func benchShardCounts() []int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return []int{1, n}
	}
	return []int{1, 2}
}

// BenchmarkCommit measures the single-writer commit path: 8 writes per
// transaction into one column, no contention, no snapshots.
func BenchmarkCommit(b *testing.B) {
	for _, shards := range benchShardCounts() {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			db := openBenchDB(b, shards)
			defer db.Close()
			rnd := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w, err := db.Begin(ankerdb.OLTP)
				if err != nil {
					b.Fatal(err)
				}
				for k := 0; k < 8; k++ {
					if err := w.Set("bench", "c0", rnd.Intn(benchRows), int64(k)); err != nil {
						b.Fatal(err)
					}
				}
				if err := w.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCommitParallel measures the sharded group-commit pipeline
// under parallel writers with disjoint column footprints — the
// Figure 11 experiment as a Go benchmark.
func BenchmarkCommitParallel(b *testing.B) {
	for _, shards := range benchShardCounts() {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			db := openBenchDB(b, shards)
			defer db.Close()
			var nextWriter atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				writer := int(nextWriter.Add(1) - 1)
				col := fmt.Sprintf("c%d", writer%benchCols)
				rnd := rand.New(rand.NewSource(int64(writer) + 1))
				for pb.Next() {
					w, err := db.Begin(ankerdb.OLTP)
					if err != nil {
						b.Fatal(err)
					}
					for k := 0; k < 8; k++ {
						if err := w.Set("bench", col, rnd.Intn(benchRows), int64(k)); err != nil {
							b.Fatal(err)
						}
					}
					if err := w.Commit(); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.StopTimer()
			st := db.Stats()
			b.ReportMetric(float64(st.CommitBatches), "batches")
		})
	}
}

// BenchmarkOLAPScan measures a snapshot scan over one column while the
// generation is warm (snapshot already created).
func BenchmarkOLAPScan(b *testing.B) {
	for _, strat := range strategies {
		b.Run(string(strat), func(b *testing.B) {
			db := openBenchDB(b, 1, ankerdb.WithSnapshotStrategy(strat), ankerdb.WithSnapshotRefresh(16))
			defer db.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := db.Begin(ankerdb.OLAP)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := r.Aggregate("bench", "c0", ankerdb.Sum); err != nil {
					b.Fatal(err)
				}
				if err := r.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRemoteTransfer measures one write transaction through a
// remote session on loopback — Begin, 4 Get, 4 Set, Commit: ten round
// trips against a durable (SyncNone) serving primary. The same
// transaction embedded is BenchmarkCommit's neighbourhood; the gap is
// the wire data path.
func BenchmarkRemoteTransfer(b *testing.B) {
	db := openBenchDB(b, 1, ankerdb.WithDurability(b.TempDir()),
		ankerdb.WithSyncPolicy(ankerdb.SyncNone), ankerdb.WithServeAddr("127.0.0.1:0"))
	defer db.Close()
	s, err := ankerdb.Dial(db.ServeAddr(), "")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	rnd := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := s.BeginTxn(ankerdb.OLTP)
		if err != nil {
			b.Fatal(err)
		}
		for k := 0; k < 4; k++ {
			col, row := fmt.Sprintf("c%d", k), rnd.Intn(benchRows)
			v, err := tx.Get("bench", col, row)
			if err != nil {
				b.Fatal(err)
			}
			if err := tx.Set("bench", col, row, v+1); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}
