// Package kvstore implements an embedded log-structured merge-tree
// key-value store in the RocksDB mold: a skiplist memtable is flushed into
// block-based sorted-string-table (SST) files whose data blocks are
// individually compressed, and background compaction merges tables down the
// level hierarchy, re-compressing the blocks a merge changes and carrying
// the rest unread.
//
// This is the substrate for the paper's KVSTORE1 characterization (§IV-E):
// reads must decompress an entire block to fetch one key, so the block size
// knob trades compression ratio against per-block decompression latency
// (Fig 13), and the (codec, level, block size) triple is exactly the
// configuration space CompOpt's sensitivity study 2 sweeps.
package kvstore

import (
	"bytes"
	"math/rand"
)

const (
	maxHeight  = 12
	arenaChunk = 64 << 10 // bytes per arena chunk; a longer key or value gets memory of its own
	slabNodes  = 128      // nodes per slab
)

type memNode struct {
	key   []byte
	value []byte // empty for a tombstone; its capacity is the arena slot an overwrite that fits reuses
	tomb  bool
	next  [maxHeight]*memNode
}

// memtable is a skiplist-backed sorted map. Not safe for concurrent use;
// the DB serializes access.
//
// It owns the memory of what it holds: keys and values are copied into
// arena chunks, nodes come from slabs, and reset keeps both for the next
// memtable, so a put into a warm store allocates nothing.
type memtable struct {
	head   memNode
	height int
	rng    *rand.Rand
	bytes  int
	count  int

	chunks [][]byte // the arena; chunks[chunk] is being filled, the ones after it are empty
	chunk  int
	used   int // arena bytes handed out since reset, overwritten slots included
	slabs  [][]memNode
	nodes  int // slab nodes handed out since reset
}

func newMemtable(seed int64) *memtable {
	return &memtable{height: 1, rng: rand.New(rand.NewSource(seed))}
}

// reset empties the memtable for reuse as a fresh one seeded with seed: what
// it held must no longer be referenced, because its memory is written again.
func (m *memtable) reset(seed int64) {
	m.head.next = [maxHeight]*memNode{}
	m.height, m.bytes, m.count = 1, 0, 0
	m.rng.Seed(seed)
	for i := range m.chunks[:min(m.chunk+1, len(m.chunks))] {
		m.chunks[i] = m.chunks[i][:0]
	}
	m.chunk, m.used = 0, 0
	for i := 0; i*slabNodes < m.nodes; i++ {
		clear(m.slabs[i])
	}
	m.nodes = 0
}

// copy places b in the arena and returns the copy, whose capacity is its
// length: a slot nothing else is placed in.
func (m *memtable) copy(b []byte) []byte {
	n := len(b)
	m.used += n
	if n > arenaChunk {
		return bytes.Clone(b)
	}
	for m.chunk < len(m.chunks) && cap(m.chunks[m.chunk])-len(m.chunks[m.chunk]) < n {
		m.chunk++
	}
	if m.chunk == len(m.chunks) {
		m.chunks = append(m.chunks, make([]byte, 0, arenaChunk))
	}
	c := m.chunks[m.chunk]
	m.chunks[m.chunk] = append(c, b...)
	return c[len(c) : len(c)+n : len(c)+n]
}

func (m *memtable) newNode() *memNode {
	i := m.nodes / slabNodes
	if i == len(m.slabs) {
		m.slabs = append(m.slabs, make([]memNode, slabNodes))
	}
	n := &m.slabs[i][m.nodes%slabNodes]
	m.nodes++
	return n
}

func (m *memtable) randomHeight() int {
	h := 1
	for h < maxHeight && m.rng.Intn(4) == 0 {
		h++
	}
	return h
}

// findGreaterOrEqual returns the first node with key ≥ k and fills prev
// with the rightmost nodes before it at every height.
func (m *memtable) findGreaterOrEqual(k []byte, prev *[maxHeight]*memNode) *memNode {
	x := &m.head
	for level := m.height - 1; level >= 0; level-- {
		for x.next[level] != nil && bytes.Compare(x.next[level].key, k) < 0 {
			x = x.next[level]
		}
		if prev != nil {
			prev[level] = x
		}
	}
	return x.next[0]
}

// set inserts or replaces key, copying key and value into the arena; a
// tombstone's value is ignored. A replacement that fits the old value's slot
// is written over it.
func (m *memtable) set(key, value []byte, tombstone bool) {
	if tombstone {
		value = nil
	}
	var prev [maxHeight]*memNode
	n := m.findGreaterOrEqual(key, &prev)
	if n != nil && bytes.Equal(n.key, key) {
		m.bytes += len(value) - len(n.value)
		if len(value) <= cap(n.value) {
			n.value = append(n.value[:0], value...)
		} else {
			n.value = m.copy(value)
		}
		n.tomb = tombstone
		return
	}
	h := m.randomHeight()
	for m.height < h {
		prev[m.height] = &m.head
		m.height++
	}
	node := m.newNode()
	node.key, node.value, node.tomb = m.copy(key), m.copy(value), tombstone
	for level := 0; level < h; level++ {
		node.next[level] = prev[level].next[level]
		prev[level].next[level] = node
	}
	m.bytes += len(key) + len(value) + 32
	m.count++
}

// get reports (value, tombstone, found).
func (m *memtable) get(key []byte) ([]byte, bool, bool) {
	n := m.findGreaterOrEqual(key, nil)
	if n != nil && bytes.Equal(n.key, key) {
		return n.value, n.tomb, true
	}
	return nil, false, false
}

// approximateBytes estimates resident size for flush triggering: the live
// keys and values plus a per-node overhead, or the arena bytes handed out
// when overwrites that did not fit their slots have made that larger.
func (m *memtable) approximateBytes() int { return max(m.bytes, m.used) }

// len returns the number of distinct keys (including tombstones).
func (m *memtable) len() int { return m.count }

// sampleValues returns at most limit bytes of the memtable's values, taken
// at even spacing across its key order: the store dictionary's training set.
func (m *memtable) sampleValues(limit int) [][]byte {
	var vals [][]byte
	total := 0
	for n := m.head.next[0]; n != nil; n = n.next[0] {
		if len(n.value) > 0 {
			vals = append(vals, n.value)
			total += len(n.value)
		}
	}
	n, k := len(vals), len(vals)
	if total > limit {
		k = max(1, int(int64(n)*int64(limit)/int64(total)))
	}
	out := make([][]byte, 0, k)
	for i := 0; i < k && limit > 0; i++ {
		v := vals[i*n/k]
		v = v[:min(len(v), limit)]
		out = append(out, v)
		limit -= len(v)
	}
	return out
}

// iterator walks the memtable in key order.
type memIterator struct {
	n *memNode
}

func (m *memtable) iterator() *memIterator { return &memIterator{n: m.head.next[0]} }

func (it *memIterator) valid() bool     { return it.n != nil }
func (it *memIterator) key() []byte     { return it.n.key }
func (it *memIterator) value() []byte   { return it.n.value }
func (it *memIterator) tombstone() bool { return it.n.tomb }
func (it *memIterator) next()           { it.n = it.n.next[0] }
func (it *memIterator) err() error      { return nil }
