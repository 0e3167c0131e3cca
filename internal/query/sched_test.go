package query

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// eventLog records events from several goroutines in the order they
// happen.
type eventLog struct {
	mu sync.Mutex
	ev []string
}

func (l *eventLog) add(e string) {
	l.mu.Lock()
	l.ev = append(l.ev, e)
	l.mu.Unlock()
}

func (l *eventLog) index(e string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, x := range l.ev {
		if x == e {
			return i
		}
	}
	return -1
}

// slowFirstTable logs every ReadBlock by block number and busy-waits
// spin inside the first one, holding its P the way a long scan does.
type slowFirstTable struct {
	*memTable
	log  *eventLog
	spin time.Duration
}

func (s *slowFirstTable) ReadBlock(lo, hi int, cols []int, rowIDs []int64, out [][]int64) (int, error) {
	s.log.add(fmt.Sprintf("block %d", lo/s.blockRows))
	if lo == 0 {
		for start := time.Now(); time.Since(start) < s.spin; {
		}
	}
	return s.memTable.ReadBlock(lo, hi, cols, rowIDs, out)
}

// TestMorselBoundaryYieldsToDueTimer: on one P, a goroutine whose
// sleep ends while a worker scans its first morsel runs before the
// worker's second morsel starts. The worker hands its pipeline to a
// fresh goroutine at the morsel boundary, and the scheduler fires the
// due timer before it runs that continuation. The whole query stays
// well under the runtime's 10 ms forced preemption, so nothing else
// can let the sleeper in early.
//
// Under -race the scheduler puts each readied goroutine in runnext
// only half of the time, so there the sleeper must come first in at
// least one of the trials; without it, in every trial.
func TestMorselBoundaryYieldsToDueTimer(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	trials, need := 5, 5
	if raceEnabled {
		trials, need = 20, 1
	}
	first := 0
	for i := 0; i < trials && first < need; i++ {
		if sleeperFirst(t) {
			first++
		}
	}
	if first < need {
		t.Fatalf("the due sleeper ran before the second morsel in %d of %d trials, want %d", first, trials, need)
	}
}

// sleeperFirst runs one trial: a two-morsel query on one worker whose
// first block busy-waits 2 ms, while a goroutine sleeps 1 ms. It
// reports whether the sleeper woke before the second morsel's first
// block was read.
func sleeperFirst(t *testing.T) bool {
	const blockRows = 16
	log := &eventLog{}
	tab := &slowFirstTable{memTable: ordersTable(2*morselBlocks*blockRows, blockRows), log: log, spin: 2 * time.Millisecond}

	started := make(chan struct{})
	woke := make(chan struct{})
	go func() {
		close(started)
		time.Sleep(time.Millisecond)
		log.add("sleeper")
		close(woke)
	}()
	<-started // on one P the sleeper runs on into its Sleep before this returns

	start := time.Now()
	r := runQ(t, New(tab).Aggregate(Sum("v")).Morsels(1))
	elapsed := time.Since(start)
	<-woke
	if r.Stats.Morsels != 2 {
		t.Fatalf("query ran %d morsels, want 2", r.Stats.Morsels)
	}
	s, b := log.index("sleeper"), log.index(fmt.Sprintf("block %d", morselBlocks))
	t.Logf("query took %v; events %v", elapsed, log.ev)
	return s >= 0 && b >= 0 && s < b
}

// failingTable fails ReadBlock at block failAt and counts the
// ReadBlock calls that start after that failure.
type failingTable struct {
	*memTable
	failAt int

	mu     sync.Mutex
	failed bool
	after  int
}

var errBlock = errors.New("block read failed")

func (f *failingTable) ReadBlock(lo, hi int, cols []int, rowIDs []int64, out [][]int64) (int, error) {
	f.mu.Lock()
	if f.failed {
		f.after++
	}
	if lo/f.blockRows == f.failAt {
		f.failed = true
		f.mu.Unlock()
		return 0, errBlock
	}
	f.mu.Unlock()
	return f.memTable.ReadBlock(lo, hi, cols, rowIDs, out)
}

// TestWorkerErrorStopsSiblings: the first worker error exhausts the
// morsel dispatcher, so each other worker finishes at most the morsel
// it holds, and no pipeline goroutine outlives Run.
func TestWorkerErrorStopsSiblings(t *testing.T) {
	const workers, blockRows = 4, 8
	for _, name := range []string{"scan", "aggregate"} {
		t.Run(name, func(t *testing.T) {
			tab := &failingTable{memTable: ordersTable(100*morselBlocks*blockRows, blockRows), failAt: 41}
			before := runtime.NumGoroutine()
			b := New(tab).Select("k").Morsels(workers)
			if name == "aggregate" {
				b = New(tab).GroupBy("g").Aggregate(Sum("v")).Morsels(workers)
			}
			if _, err := b.Run(); !errors.Is(err, errBlock) {
				t.Fatalf("Run error = %v, want %v", err, errBlock)
			}
			tab.mu.Lock()
			after := tab.after
			tab.mu.Unlock()
			if bound := (workers - 1) * morselBlocks; after > bound {
				t.Fatalf("%d ReadBlock calls after the failure, want at most %d", after, bound)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
