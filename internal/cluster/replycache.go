package cluster

import (
	"bytes"
	"encoding/binary"
	"sync"
	"unsafe"

	"github.com/datacomp/datacomp/internal/xxhash"
)

// What a node keeps to serve reads: nodeCacheBytes in all, replyCacheBytes
// of it the kv.get replies it coded (replyCache), the rest its store's
// decoded blocks. A cold get of a re-read record then neither decodes a
// block nor codes a reply, and a coded reply is ≈ 3× denser than the
// decoded record it stands for; but a store whose records are rewritten
// and re-read soon after, as the serving benchmark's mix-2k-open does,
// reads its blocks again. The split was measured on both (EXPERIMENTS.md):
// 2.5 + 1.5 MiB keeps most of what 3 + 1 saves on get-1k-cold's coded
// bytes without 3 + 1's rise on mix-2k-open's.
const (
	nodeCacheBytes  = 4 << 20
	replyCacheBytes = 5 << 19

	// nodeBlockCacheEntries is the store's block cache in entries, within
	// the rest of nodeCacheBytes: kvstore's block cache reserves one and a
	// half blocks for each, and a node's store keeps the default 8 KiB
	// blocks.
	nodeBlockCacheEntries = (nodeCacheBytes - replyCacheBytes) / (8<<10 + 4<<10)
)

// replyCache keeps coded kv.get replies in one byte arena, allocated at the
// first fill and never again, written as a ring: each fill appends its
// entry at the write position and so overwrites the oldest entries (FIFO),
// and a fill that does not fit before the arena's end starts over at its
// beginning. A hash index of replyWays-way buckets names the entries; a
// name whose entry has since been overwritten is noticed by its position
// and reused. Hits, misses, fills and evictions allocate nothing. The cache
// says nothing about validity: an entry carries the record header and
// dictionary ID its reply was coded from, and the node serves it only while
// both are current (Node.handleGet). Safe for concurrent use.
type replyCache struct {
	mu    sync.Mutex
	arena []byte      // entries; nil until the first fill
	index []replySlot // len(index)/replyWays buckets
	end   uint64      // arena bytes ever written, skips included: the next entry's position
}

// replySlot names an entry: its position in the sequence of arena bytes
// ever written, plus one (0 is an empty slot), and the key hash's high half.
type replySlot struct {
	at  uint64
	tag uint32
}

// Entry layout, at arena[pos % len(arena)]:
//
//	2B key length | 4B coding length | 4B raw reply length | 4B dictionary ID |
//	17B record header | key | coding
const (
	replyEntryHead = 2 + 4 + 4 + 4 + recHeaderLen

	replyWays  = 4
	replySlots = 1 << 14
	// replyArenaBytes is the arena: the cache's bytes less its index's.
	replyArenaBytes = replyCacheBytes - replySlots*int(unsafe.Sizeof(replySlot{}))

	// maxReplyEntry bounds one entry at a sixteenth of the arena, so that
	// one large reply does not evict many small ones.
	maxReplyEntry = replyArenaBytes / 16
)

// release drops the arena and its index, for a node that serves no more.
func (c *replyCache) release() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.arena != nil {
		cmReplyBytes.Add(-int64(replyCacheBytes))
	}
	c.arena, c.index, c.end = nil, nil, 0
}

// live reports whether the entry at pos is still in the arena: no write
// since has reached around to it.
func (c *replyCache) live(pos uint64) bool { return c.end <= pos+uint64(len(c.arena)) }

// find returns the slot naming key's live entry, and the entry, or -1.
func (c *replyCache) find(key []byte, h uint64) (int, []byte) {
	b := int(h&(replySlots/replyWays-1)) * replyWays
	for i := b; i < b+replyWays; i++ {
		s := c.index[i]
		if s.at == 0 || s.tag != uint32(h>>32) || !c.live(s.at-1) {
			continue
		}
		e := c.arena[(s.at-1)%uint64(len(c.arena)):]
		klen := int(binary.LittleEndian.Uint16(e))
		if bytes.Equal(e[replyEntryHead:replyEntryHead+klen], key) {
			return i, e
		}
	}
	return -1, nil
}

// appendHit appends to dst the coding kept for key when its entry was
// coded from the record whose header is hdr against dictionary id, and
// returns dst extended and the raw reply's length.
func (c *replyCache) appendHit(dst, key []byte, hdr *[recHeaderLen]byte, id uint32) ([]byte, int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.arena == nil {
		return dst, 0, false
	}
	_, e := c.find(key, xxhash.Sum64(key))
	if e == nil || binary.LittleEndian.Uint32(e[10:]) != id || [recHeaderLen]byte(e[14:replyEntryHead]) != *hdr {
		return dst, 0, false
	}
	klen, clen := int(binary.LittleEndian.Uint16(e)), int(binary.LittleEndian.Uint32(e[2:]))
	at := replyEntryHead + klen
	return append(dst, e[at:at+clen]...), int(binary.LittleEndian.Uint32(e[6:])), true
}

// fill keeps coding, the reply of raw bytes coded from the record whose
// header is hdr against dictionary id, as key's. It replaces key's entry,
// else takes a bucket slot that is empty or names an overwritten entry,
// else the slot of the bucket's oldest entry.
func (c *replyCache) fill(key, hdr []byte, id uint32, raw int, coding []byte) {
	n := replyEntryHead + len(key) + len(coding)
	if len(key) > 0xffff || n > maxReplyEntry {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.arena == nil {
		c.arena, c.index = make([]byte, replyArenaBytes), make([]replySlot, replySlots)
		cmReplyBytes.Add(int64(replyCacheBytes))
	}
	size := uint64(len(c.arena))
	if off := c.end % size; off+uint64(n) > size {
		c.end += size - off // the arena's tail holds no entry: start over
	}
	pos := c.end
	e := c.arena[pos%size:]
	binary.LittleEndian.PutUint16(e, uint16(len(key)))
	binary.LittleEndian.PutUint32(e[2:], uint32(len(coding)))
	binary.LittleEndian.PutUint32(e[6:], uint32(raw))
	binary.LittleEndian.PutUint32(e[10:], id)
	copy(e[14:], hdr[:recHeaderLen])
	copy(e[replyEntryHead:], key)
	copy(e[replyEntryHead+len(key):], coding)
	c.end += uint64(n)

	h := xxhash.Sum64(key)
	slot, _ := c.find(key, h)
	if slot < 0 {
		b := int(h&(replySlots/replyWays-1)) * replyWays
		slot = b
		for i := b; i < b+replyWays; i++ {
			s := c.index[i]
			if s.at == 0 || !c.live(s.at-1) {
				slot = i
				break
			}
			if s.at < c.index[slot].at {
				slot = i
			}
		}
	}
	c.index[slot] = replySlot{at: pos + 1, tag: uint32(h >> 32)}
}
