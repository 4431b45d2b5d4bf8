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

const maxHeight = 12

type memNode struct {
	key   []byte
	value []byte // nil = tombstone
	next  [maxHeight]*memNode
}

// memtable is a skiplist-backed sorted map. Not safe for concurrent use;
// the DB serializes access.
type memtable struct {
	head   *memNode
	height int
	rng    *rand.Rand
	bytes  int
	count  int
}

func newMemtable(seed int64) *memtable {
	return &memtable{
		head:   &memNode{},
		height: 1,
		rng:    rand.New(rand.NewSource(seed)),
	}
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
	x := m.head
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

// set inserts or replaces key. value nil records a tombstone.
func (m *memtable) set(key, value []byte) {
	var prev [maxHeight]*memNode
	n := m.findGreaterOrEqual(key, &prev)
	if n != nil && bytes.Equal(n.key, key) {
		m.bytes += len(value) - len(n.value)
		n.value = value
		return
	}
	h := m.randomHeight()
	for m.height < h {
		prev[m.height] = m.head
		m.height++
	}
	node := &memNode{key: key, value: value}
	for level := 0; level < h; level++ {
		node.next[level] = prev[level].next[level]
		prev[level].next[level] = node
	}
	m.bytes += len(key) + len(value) + 32
	m.count++
}

// get reports (value, found). A found tombstone returns (nil, true).
func (m *memtable) get(key []byte) ([]byte, bool) {
	n := m.findGreaterOrEqual(key, nil)
	if n != nil && bytes.Equal(n.key, key) {
		return n.value, true
	}
	return nil, false
}

// approximateBytes estimates resident size for flush triggering.
func (m *memtable) approximateBytes() int { return m.bytes }

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
func (it *memIterator) tombstone() bool { return it.n.value == nil }
func (it *memIterator) next()           { it.n = it.n.next[0] }
func (it *memIterator) err() error      { return nil }
