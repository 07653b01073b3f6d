package colstore

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// BlockCache is a shared cache of decoded column blocks, keyed by the
// immutable identity of a block's compressed payload: the chunk (or partial)
// file path plus the byte offset and length of the payload inside it. Chunk
// files are append-only and partial files are never rewritten in place (a
// superseded partial gets a new generation path), so an entry can never go
// stale — at worst it describes a file no generation references anymore, and
// the LRU bound reclaims it.
//
// One instance hangs off the engine and is shared by every concurrent scan:
// under a multi-session workload the same TPC-H blocks are decoded once and
// then served as zero-copy slices to every query, instead of being
// re-decompressed (PFOR/PFOR-DELTA/PDICT) per scanner. Decoded columns are
// immutable by construction — scans, PDT merges and exchanges all copy
// before mutating — which is what makes cross-query sharing safe.
type BlockCache struct {
	mu      sync.Mutex
	capB    int64
	sizeB   int64
	entries map[blockKey]*list.Element
	lru     *list.List // front = most recently used

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type blockKey struct {
	path  string
	off   int64
	bytes int
}

type blockEntry struct {
	key   blockKey
	data  colData
	bytes int64 // approximate decoded footprint
}

// BlockCacheStats is a point-in-time snapshot of cache effectiveness.
type BlockCacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Bytes     int64
}

// NewBlockCache creates a cache bounded to roughly capBytes of decoded
// column data.
func NewBlockCache(capBytes int64) *BlockCache {
	return &BlockCache{
		capB:    capBytes,
		entries: make(map[blockKey]*list.Element),
		lru:     list.New(),
	}
}

// Stats returns the cache's cumulative counters and current footprint.
func (c *BlockCache) Stats() BlockCacheStats {
	c.mu.Lock()
	size := c.sizeB
	c.mu.Unlock()
	return BlockCacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Bytes:     size,
	}
}

func (c *BlockCache) get(k blockKey) (colData, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		c.misses.Add(1)
		return colData{}, false
	}
	c.lru.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*blockEntry).data, true
}

func (c *BlockCache) put(k blockKey, d colData) {
	sz := approxColBytes(d)
	if sz > c.capB {
		return // a single oversized block would evict everything for nothing
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.entries[k]; dup {
		return
	}
	c.entries[k] = c.lru.PushFront(&blockEntry{key: k, data: d, bytes: sz})
	c.sizeB += sz
	for c.sizeB > c.capB {
		back := c.lru.Back()
		if back == nil {
			break
		}
		ev := back.Value.(*blockEntry)
		c.lru.Remove(back)
		delete(c.entries, ev.key)
		c.sizeB -= ev.bytes
		c.evictions.Add(1)
	}
}

// approxColBytes estimates the in-memory footprint of decoded column data.
// A code-form block is charged its dictionary plus the code stream it will
// occupy once unpacked (codes are memoized on the shared block handle).
func approxColBytes(d colData) int64 {
	n := int64(len(d.i64))*8 + int64(len(d.f64))*8
	n += strColBytes(&d.str)
	if d.pd != nil {
		n += int64(d.pd.Rows())*4 + strSliceBytes(d.pd.Dict.Values)
	}
	return n
}
