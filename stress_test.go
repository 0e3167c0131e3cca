package ankerdb_test

// Stress coverage for the sharded group-commit pipeline: many
// concurrent OLTP writers against concurrent OLAP scanners, under every
// snapshot strategy and several commit shard counts, asserting that
// snapshot isolation holds throughout.
//
// Two invariants are maintained and checked:
//
//   - Within a column: writers transfer value between two rows of
//     "cash", so the column sum is constant. Any scan (OLAP snapshot
//     or OLTP live read) observing a different sum saw a torn commit.
//   - Across columns: writers move value between pairA[r] and pairB[r]
//     keeping the pair sum constant. pairA/pairB are probed at setup to
//     live on *different* commit shards (when more than one exists), so
//     this exercises the cross-shard commit path, which must stay
//     atomically visible.

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"ankerdb"
)

const (
	stressRows      = 1024
	stressSeed      = int64(100)
	stressPairSum   = 2 * stressSeed
	stressPairCands = 8 // candidate columns probed for a cross-shard pair
)

func stressShardCounts() []int {
	counts := []int{1, 2, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	var out []int
	for _, n := range counts {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

func pairCol(i int) string { return fmt.Sprintf("p%d", i) }

func openStressDB(t *testing.T, strat ankerdb.SnapshotStrategy, shards int) *ankerdb.DB {
	t.Helper()
	cols := []ankerdb.ColumnDef{{Name: "cash", Type: ankerdb.Money}}
	for i := 0; i < stressPairCands; i++ {
		cols = append(cols, ankerdb.ColumnDef{Name: pairCol(i), Type: ankerdb.Money})
	}
	db, err := ankerdb.Open(
		ankerdb.WithSnapshotStrategy(strat),
		ankerdb.WithCostModel(ankerdb.ZeroCost),
		ankerdb.WithCommitShards(shards),
		ankerdb.WithSnapshotRefresh(4),
		ankerdb.WithInitialSchema(ankerdb.Schema{Table: "stress", Columns: cols}, stressRows),
	)
	if err != nil {
		t.Fatalf("Open(%s, shards=%d): %v", strat, shards, err)
	}
	vals := make([]int64, stressRows)
	for i := range vals {
		vals[i] = stressSeed
	}
	for _, c := range cols {
		if err := db.Load("stress", c.Name, vals); err != nil {
			t.Fatalf("Load(%s): %v", c.Name, err)
		}
	}
	return db
}

// pickCrossShardPair probes, through the public stats surface only, for
// two candidate columns routed to different commit shards: a
// transaction writing both columns bumps CommitShardConflicts exactly
// when its footprint spans shards. It returns the first split pair, or
// (p0, p1, false) when every candidate shares one shard (always the
// case with a single commit shard).
func pickCrossShardPair(t *testing.T, db *ankerdb.DB) (a, b string, split bool) {
	t.Helper()
	for j := 1; j < stressPairCands; j++ {
		before := db.Stats().CommitShardConflicts
		w, err := db.Begin(ankerdb.OLTP)
		if err != nil {
			t.Fatalf("probe Begin: %v", err)
		}
		// Rewriting the seed value keeps the pair-sum invariant intact.
		if err := w.Set("stress", pairCol(0), 0, stressSeed); err != nil {
			t.Fatalf("probe Set: %v", err)
		}
		if err := w.Set("stress", pairCol(j), 0, stressSeed); err != nil {
			t.Fatalf("probe Set: %v", err)
		}
		if err := w.Commit(); err != nil {
			t.Fatalf("probe Commit: %v", err)
		}
		if db.Stats().CommitShardConflicts > before {
			return pairCol(0), pairCol(j), true
		}
	}
	return pairCol(0), pairCol(1), false
}

// transferWithin moves delta between two rows of "cash" with
// read-modify-write, preserving the column sum.
func transferWithin(db *ankerdb.DB, rnd *rand.Rand) error {
	w, err := db.Begin(ankerdb.OLTP)
	if err != nil {
		return err
	}
	from, to := rnd.Intn(stressRows), rnd.Intn(stressRows)
	if from == to {
		to = (to + 1) % stressRows
	}
	a, err := w.Get("stress", "cash", from)
	if err != nil {
		return abortWith(w, err)
	}
	b, err := w.Get("stress", "cash", to)
	if err != nil {
		return abortWith(w, err)
	}
	delta := rnd.Int63n(7) + 1
	if err := w.Set("stress", "cash", from, a-delta); err != nil {
		return abortWith(w, err)
	}
	if err := w.Set("stress", "cash", to, b+delta); err != nil {
		return abortWith(w, err)
	}
	return w.Commit()
}

// transferAcross moves delta between pairA[r] and pairB[r], preserving
// the per-row pair sum across the two (usually different) shards.
func transferAcross(db *ankerdb.DB, rnd *rand.Rand, pairA, pairB string) error {
	w, err := db.Begin(ankerdb.OLTP)
	if err != nil {
		return err
	}
	row := rnd.Intn(stressRows)
	a, err := w.Get("stress", pairA, row)
	if err != nil {
		return abortWith(w, err)
	}
	b, err := w.Get("stress", pairB, row)
	if err != nil {
		return abortWith(w, err)
	}
	delta := rnd.Int63n(7) + 1
	if err := w.Set("stress", pairA, row, a-delta); err != nil {
		return abortWith(w, err)
	}
	if err := w.Set("stress", pairB, row, b+delta); err != nil {
		return abortWith(w, err)
	}
	return w.Commit()
}

func abortWith(w *ankerdb.Txn, err error) error {
	_ = w.Abort()
	return err
}

// checkSnapshot asserts both invariants inside one transaction of the
// given class.
func checkSnapshot(db *ankerdb.DB, class ankerdb.TxnClass, pairA, pairB string) error {
	r, err := db.Begin(class)
	if err != nil {
		return err
	}
	defer func() { _ = r.Abort() }()
	sum, err := r.Aggregate("stress", "cash", ankerdb.Sum)
	if err != nil {
		return err
	}
	if want := int64(stressRows) * stressSeed; sum != want {
		return fmt.Errorf("%s snapshot at ts %d: cash sum = %d, want %d (torn within-column commit)",
			class, r.SnapshotTS(), sum, want)
	}
	a, err := r.Scan("stress", pairA)
	if err != nil {
		return err
	}
	b, err := r.Scan("stress", pairB)
	if err != nil {
		return err
	}
	for row := range a {
		if got := a[row] + b[row]; got != stressPairSum {
			return fmt.Errorf("%s snapshot at ts %d: %s[%d]+%s[%d] = %d, want %d (torn cross-shard commit)",
				class, r.SnapshotTS(), pairA, row, pairB, row, got, stressPairSum)
		}
	}
	return nil
}

// TestReadYourOwnWritesAcrossShards pins the session guarantee the
// commit pipeline must preserve under out-of-order shard completion: a
// transaction beginning after Commit returned reads the committed
// value, even while other shards are mid-materialization (Commit
// blocks on the oracle's completion watermark).
func TestReadYourOwnWritesAcrossShards(t *testing.T) {
	const writers, iters = 6, 150
	db := openStressDB(t, ankerdb.VMSnap, 4)
	defer db.Close()
	var wg sync.WaitGroup
	errc := make(chan error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			col := pairCol(i % stressPairCands)
			row := i % stressRows
			for k := int64(1); k <= iters; k++ {
				w, err := db.Begin(ankerdb.OLTP)
				if err != nil {
					errc <- err
					return
				}
				if err := w.Set("stress", col, row, k); err != nil {
					errc <- abortWith(w, err)
					return
				}
				if err := w.Commit(); err != nil {
					errc <- err
					return
				}
				r, err := db.Begin(ankerdb.OLTP)
				if err != nil {
					errc <- err
					return
				}
				got, err := r.Get("stress", col, row)
				_ = r.Abort()
				if err != nil {
					errc <- err
					return
				}
				if got != k {
					errc <- fmt.Errorf("writer %d: read %d after committing %d to %s[%d]", i, got, k, col, row)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}

func TestStressShardedCommitIsolation(t *testing.T) {
	const (
		writers          = 8
		scanners         = 3
		commitsPerWriter = 60
	)
	for _, strat := range strategies {
		for _, shardCount := range stressShardCounts() {
			t.Run(fmt.Sprintf("%s/shards=%d", strat, shardCount), func(t *testing.T) {
				db := openStressDB(t, strat, shardCount)
				defer db.Close()
				pairA, pairB, split := pickCrossShardPair(t, db)
				if shardCount > 1 && !split {
					t.Logf("no cross-shard pair among %d candidates at %d shards", stressPairCands, shardCount)
				}
				// Snapshot after probing so the final assertion checks
				// the workload phase, not the probes themselves.
				crossBefore := db.Stats().CommitShardConflicts

				var wwg, swg sync.WaitGroup
				errc := make(chan error, writers+scanners)
				done := make(chan struct{})

				for i := 0; i < writers; i++ {
					wwg.Add(1)
					go func(seed int64) {
						defer wwg.Done()
						rnd := rand.New(rand.NewSource(seed))
						committed := 0
						for committed < commitsPerWriter {
							var err error
							if rnd.Intn(2) == 0 {
								err = transferWithin(db, rnd)
							} else {
								err = transferAcross(db, rnd, pairA, pairB)
							}
							switch {
							case err == nil:
								committed++
							case errors.Is(err, ankerdb.ErrConflict):
								// Precision locking aborted us; retry.
							default:
								errc <- err
								return
							}
						}
					}(int64(i) + 1)
				}
				for i := 0; i < scanners; i++ {
					swg.Add(1)
					go func(i int) {
						defer swg.Done()
						class := ankerdb.OLAP
						if i == 0 {
							// One scanner reads live state through the
							// OLTP read protocol instead of snapshots.
							class = ankerdb.OLTP
						}
						for {
							select {
							case <-done:
								return
							default:
							}
							if err := checkSnapshot(db, class, pairA, pairB); err != nil {
								errc <- err
								return
							}
						}
					}(i)
				}

				writersDone := make(chan struct{})
				go func() {
					wwg.Wait()
					close(writersDone)
				}()
				var failure error
				select {
				case failure = <-errc:
				case <-writersDone:
				}
				close(done)
				wwg.Wait()
				swg.Wait()
				if failure == nil {
					select {
					case failure = <-errc:
					default:
					}
				}
				if failure != nil {
					t.Fatal(failure)
				}

				// Quiesced final check plus pipeline counter sanity.
				if err := checkSnapshot(db, ankerdb.OLTP, pairA, pairB); err != nil {
					t.Fatal(err)
				}
				st := db.Stats()
				if st.CommitShards != shardCount {
					t.Fatalf("CommitShards = %d, want %d", st.CommitShards, shardCount)
				}
				// writers*commitsPerWriter workload commits plus the
				// probe commits from pair selection.
				if min := uint64(writers * commitsPerWriter); st.Commits < min {
					t.Fatalf("Commits = %d, want >= %d", st.Commits, min)
				}
				if st.CommitBatches == 0 {
					t.Fatal("no commit batches recorded")
				}
				if got := st.GroupCommitSize.Count; got != st.CommitBatches {
					t.Fatalf("histogram observations = %d, batches = %d", got, st.CommitBatches)
				}
				if got, want := st.GroupCommitSize.SumNanos, st.Commits+st.Conflicts; got != want {
					t.Fatalf("batch sizes sum to %d, commits + conflicts = %d", got, want)
				}
				if shardCount == 1 && st.CommitShardConflicts != 0 {
					t.Fatalf("CommitShardConflicts = %d with a single shard", st.CommitShardConflicts)
				}
				if split && st.CommitShardConflicts == crossBefore {
					t.Fatal("cross-shard pair selected but the workload recorded no cross-shard commits")
				}
			})
		}
	}
}
