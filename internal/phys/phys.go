// Package phys simulates the physical memory layer of the machine: a
// pool of fixed-size, reference-counted pages.
//
// The paper manipulates the mapping between virtual pages and physical
// pages (Figure 2). This package is the "physical" half of that picture:
// pages are allocated from a pool, shared between mappings via reference
// counts (the mechanism behind copy-on-write), and recycled when the last
// reference is dropped.
//
// Pages store 64-bit words rather than bytes. Every datum in the system
// (column values, write timestamps, dictionary codes) is a word, and word
// storage lets concurrent readers use sync/atomic on page elements
// directly, without unsafe pointer casts.
package phys

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// DefaultPageSize is the small-page size used throughout the paper
// (4 KiB), and the only size the engine runs on; tests pass smaller
// pages to reach chunk and page boundaries with few rows.
const DefaultPageSize = 4096

// WordSize is the size of one storage word in bytes.
const WordSize = 8

// Page is one physical memory page. Words always holds exactly
// PageSize()/WordSize entries of the owning allocator. The reference
// count tracks how many page-table entries map this page; a count
// greater than one means the page is shared and must be copied before a
// private write (copy-on-write).
type Page struct {
	refs  atomic.Int32
	Words []uint64
}

// Refs returns the current reference count. It is advisory under
// concurrency and exact when the caller serialises mapping changes.
func (p *Page) Refs() int32 { return p.refs.Load() }

// Stats reports allocator activity. Counters are cumulative except
// Live, which is the number of pages currently referenced.
type Stats struct {
	Allocs   uint64 // pages handed out (fresh or recycled)
	Frees    uint64 // pages whose last reference was dropped
	Recycled uint64 // allocations served from the free list
	Live     int64  // currently referenced pages
	Zeroed   uint64 // pages zero-filled on allocation
}

// Allocator is a pool of physical pages. Allocation zero-fills pages
// (as the kernel does for anonymous memory) and reuses freed pages.
// It is safe for concurrent use.
type Allocator struct {
	pageSize int
	words    int

	mu   sync.Mutex
	free []*Page

	zero *Page // the shared zero page, mapped read-only on first touch

	allocs   atomic.Uint64
	frees    atomic.Uint64
	recycled atomic.Uint64
	zeroed   atomic.Uint64
	live     atomic.Int64
}

// NewAllocator returns a pool of pages of the given size in bytes.
// Size must be a positive power of two and a multiple of WordSize.
func NewAllocator(pageSize int) *Allocator {
	if pageSize <= 0 || pageSize&(pageSize-1) != 0 || pageSize%WordSize != 0 {
		panic(fmt.Sprintf("phys: page size %d is not a positive power-of-two multiple of %d", pageSize, WordSize))
	}
	a := &Allocator{pageSize: pageSize, words: pageSize / WordSize}
	a.zero = &Page{Words: make([]uint64, a.words)}
	a.zero.refs.Store(1) // permanent self-reference: the zero page is never freed
	return a
}

// PageSize returns the size in bytes of every page in the pool.
func (a *Allocator) PageSize() int { return a.pageSize }

// WordsPerPage returns the number of 64-bit words in every page.
func (a *Allocator) WordsPerPage() int { return a.words }

// ZeroPage returns the shared zero page. Anonymous reads that touch a
// page before any write map this page copy-on-write, exactly as the
// kernel maps its global zero page.
func (a *Allocator) ZeroPage() *Page { return a.zero }

func (a *Allocator) take() *Page {
	a.mu.Lock()
	var p *Page
	if n := len(a.free); n > 0 {
		p = a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
	}
	a.mu.Unlock()
	if p != nil {
		a.recycled.Add(1)
	}
	return p
}

// Alloc returns a zero-filled page with reference count 1.
func (a *Allocator) Alloc() *Page {
	a.allocs.Add(1)
	a.live.Add(1)
	p := a.take()
	if p == nil {
		p = &Page{Words: make([]uint64, a.words)}
	} else {
		clear(p.Words)
	}
	a.zeroed.Add(1)
	p.refs.Store(1)
	return p
}

// AllocNoZero returns a page without zero-filling it. It exists for
// callers that immediately overwrite the whole page (the copy-on-write
// path), mirroring the kernel's cow_user_page which copies rather than
// clears.
func (a *Allocator) AllocNoZero() *Page {
	a.allocs.Add(1)
	a.live.Add(1)
	p := a.take()
	if p == nil {
		p = &Page{Words: make([]uint64, a.words)}
	}
	p.refs.Store(1)
	return p
}

// Get adds a reference to p (a new mapping of the same physical page).
func (a *Allocator) Get(p *Page) {
	if p.refs.Add(1) <= 1 {
		panic("phys: Get on unreferenced page")
	}
}

// Put drops one reference from p. When the last reference is dropped the
// page returns to the free list.
func (a *Allocator) Put(p *Page) {
	if p == a.zero {
		if p.refs.Add(-1) < 1 {
			panic("phys: zero page over-released")
		}
		return
	}
	n := p.refs.Add(-1)
	switch {
	case n < 0:
		panic("phys: Put below zero references")
	case n == 0:
		a.frees.Add(1)
		a.live.Add(-1)
		a.mu.Lock()
		a.free = append(a.free, p)
		a.mu.Unlock()
	}
}

// Stats returns a snapshot of allocator counters.
func (a *Allocator) Stats() Stats {
	return Stats{
		Allocs:   a.allocs.Load(),
		Frees:    a.frees.Load(),
		Recycled: a.recycled.Load(),
		Zeroed:   a.zeroed.Load(),
		Live:     a.live.Load(),
	}
}
