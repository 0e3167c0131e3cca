package storage

import (
	"encoding/binary"
	"io"
)

// Column-region serialization: checkpoints stream column data and
// write-timestamp arrays as raw little-endian 64-bit words. The
// get/set accessor indirection lets the same code serve WordArrays,
// resolved snapshot PageCaches, and anything else word-addressable,
// without the writer ever holding the address-space lock for more than
// one word.

// serializeChunk is how many words are staged per I/O call.
const serializeChunk = 512

// WriteWords streams n words read through get to w.
func WriteWords(w io.Writer, n int, get func(row int) uint64) error {
	var buf [8 * serializeChunk]byte
	for i := 0; i < n; {
		k := 0
		for ; k < serializeChunk && i < n; k++ {
			binary.LittleEndian.PutUint64(buf[8*k:], get(i))
			i++
		}
		if _, err := w.Write(buf[:8*k]); err != nil {
			return err
		}
	}
	return nil
}

// ReadWords reads n words from r, storing each through set.
func ReadWords(r io.Reader, n int, set func(row int, v uint64)) error {
	var buf [8 * serializeChunk]byte
	for i := 0; i < n; {
		k := serializeChunk
		if n-i < k {
			k = n - i
		}
		if _, err := io.ReadFull(r, buf[:8*k]); err != nil {
			return err
		}
		for j := 0; j < k; j++ {
			set(i, binary.LittleEndian.Uint64(buf[8*j:]))
			i++
		}
	}
	return nil
}

// ReadWordsRegion is the region-window variant of ReadWords: it decodes
// n words chunk-wise into a reusable window and hands each (start,
// words) window to fill, so a consumer can store a whole contiguous
// region slice at once (one page-wise bulk write through the simulated
// address space) instead of paying the per-word accessor indirection.
// This is the recovery hot path: checkpoint bodies stream through a
// fixed window regardless of column size, keeping restart memory
// O(chunk) while columns fill in place. A fill error ends the read.
func ReadWordsRegion(r io.Reader, n int, fill func(start int, words []uint64) error) error {
	var buf [8 * serializeChunk]byte
	var words [serializeChunk]uint64
	for i := 0; i < n; {
		k := serializeChunk
		if n-i < k {
			k = n - i
		}
		if _, err := io.ReadFull(r, buf[:8*k]); err != nil {
			return err
		}
		for j := 0; j < k; j++ {
			words[j] = binary.LittleEndian.Uint64(buf[8*j:])
		}
		if err := fill(i, words[:k]); err != nil {
			return err
		}
		i += k
	}
	return nil
}
