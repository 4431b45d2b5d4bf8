package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/container"
	"github.com/datacomp/datacomp/internal/xxhash"
)

// ErrCorrupt is returned for undecodable table blocks.
var ErrCorrupt = errors.New("kvstore: corrupt table block")

const restartInterval = 16

// sstable is one immutable sorted table. Data blocks live in a seekable
// container (one container block per data block), so a point lookup
// decompresses exactly the block covering the key — container.ReaderAt is
// the random-access surface. The table's blob — what the persister holds,
// and what the table is reopened from without decoding a data block — is
// that container followed by a checksummed key index (DESIGN.md §11):
//
//	container | index | 4-byte LE len(index) | 8-byte LE XXH64(index) | "KVTI"
//	index: uvarint numEntries | uvarint klen | smallest key |
//	       uvarint numBlocks | per block: uvarint klen | last key
//
// Block b holds keys in (lastKeys[b-1], lastKeys[b]], block 0 in
// [smallest, lastKeys[0]]; smallest is a lower bound, not necessarily a key
// (a table whose first block was carried records the tightest bound its
// source's index gives). numEntries counts the entries the writer encoded
// plus one per carried block: non-zero for every table, exact only for a
// table that carried nothing.
type sstable struct {
	id         int64
	blob       []byte // container + index + trailer; shared with the persister, never written
	data       []byte // the container: a prefix of blob
	persisted  bool   // the persister holds blob under tableName(id)
	offered    bool   // PutBlob was called with blob, so the persister may hold it even if the call failed
	ra         *container.ReaderAt
	lastKeys   [][]byte // largest key per block, parallel to container blocks
	smallest   []byte
	largest    []byte
	numEntries int
}

const tableTrailerLen = 4 + 8 + 4

var tableMagic = [4]byte{'K', 'V', 'T', 'I'}

// size returns the stored (compressed) size of the table's data blocks, the
// figure level budgets are set in.
func (t *sstable) size() int { return len(t.data) }

// openTable builds a table over blob, which it keeps and aliases (keys
// included): every failure is ErrCorrupt, nothing is allocated beyond one
// slice header per block, and no data block is decoded.
func openTable(id int64, blob []byte, eng codec.Engine) (*sstable, error) {
	bad := func(what string) (*sstable, error) {
		return nil, fmt.Errorf("%w: table %d %s", ErrCorrupt, id, what)
	}
	end := len(blob) - tableTrailerLen
	if end < 0 || [4]byte(blob[end+12:]) != tableMagic {
		return bad("trailer")
	}
	n := int64(binary.LittleEndian.Uint32(blob[end:]))
	if n > int64(end) {
		return bad("index length")
	}
	idx := blob[end-int(n) : end]
	if xxhash.Sum64(idx) != binary.LittleEndian.Uint64(blob[end+4:]) {
		return bad("index checksum")
	}
	t := &sstable{id: id, blob: blob, data: blob[: end-int(n) : end-int(n)]}
	r := metaReader{b: idx}
	t.numEntries = int(min(r.uvarint(), math.MaxInt32))
	t.smallest = r.bytes()
	numBlocks := r.uvarint()
	t.lastKeys = make([][]byte, min(numBlocks, uint64(len(r.b)+1))) // a key takes a byte at least
	for i := range t.lastKeys {
		t.lastKeys[i] = r.bytes()
	}
	if r.bad || len(r.b) != 0 || t.numEntries == 0 || len(t.lastKeys) == 0 {
		return bad("index")
	}
	// Compaction carries blocks on the strength of these bounds alone, so an
	// index that misorders them is refused here rather than copied onward.
	if bytes.Compare(t.smallest, t.lastKeys[0]) > 0 {
		return bad("smallest key past the first block")
	}
	for i := 1; i < len(t.lastKeys); i++ {
		if bytes.Compare(t.lastKeys[i-1], t.lastKeys[i]) >= 0 {
			return bad("block keys out of order")
		}
	}
	t.largest = t.lastKeys[len(t.lastKeys)-1]
	ra, err := container.Open(t.data, container.WithEngine(eng))
	if err != nil {
		return nil, fmt.Errorf("%w: table %d: %v", ErrCorrupt, id, err)
	}
	if ra.NumBlocks() != len(t.lastKeys) {
		return bad("index and container disagree on the block count")
	}
	t.ra = ra
	return t, nil
}

// numBlocks reports the table's data-block count.
func (t *sstable) numBlocks() int { return len(t.lastKeys) }

// lowerBound returns a key no greater than any in block b: the previous
// block's last key, exclusive, or for block 0 the table's smallest,
// inclusive.
func (t *sstable) lowerBound(b int) (key []byte, inclusive bool) {
	if b == 0 {
		return t.smallest, true
	}
	return t.lastKeys[b-1], false
}

// tableWriter accumulates sorted entries into container blocks. A DB has
// one, in its tableScratch, reset for every table it writes.
type tableWriter struct {
	eng       codec.Engine
	blockSize int
	stats     *Stats

	id         int64
	numEntries int      // entries added, plus one per carried block; 0 until the first
	lastKeys   [][]byte // largest key per finished block: in keys, or a carried block's source index
	firstKey   []byte   // in keys

	s        *tableScratch // the container so far is s.out
	bw       *container.Builder
	bwErr    error
	keys     []byte // arena lastKeys and firstKey are copied into
	buf      []byte // current block, uncompressed
	restarts []uint32
	count    int
	prevKey  []byte // the last key added, or a carried block's last; meaningful once numEntries > 0
}

// newTableWriter resets s's table writer to start table id, together with
// the container buffer and Builder it writes through: the finished blob is
// copied out of them, so one writer serves every table a DB writes.
func newTableWriter(id int64, codecName string, eng codec.Engine, blockSize int, stats *Stats, s *tableScratch) *tableWriter {
	s.out.Reset()
	w := &s.w
	clear(w.lastKeys)
	*w = tableWriter{
		eng:       eng,
		blockSize: blockSize,
		stats:     stats,
		id:        id,
		lastKeys:  w.lastKeys[:0],
		s:         s,
		keys:      w.keys[:0],
		buf:       w.buf[:0],
		restarts:  w.restarts[:0],
		prevKey:   w.prevKey[:0],
	}
	if s.bw == nil || s.bwEng != eng {
		s.bw, w.bwErr = container.NewBuilder(&s.out, codecName, eng, blockSize)
		s.bwEng = eng
	} else {
		w.bwErr = s.bw.Reset(&s.out, codecName, blockSize)
	}
	if w.bwErr != nil {
		s.bw = nil
	}
	w.bw = s.bw
	return w
}

// keepKey copies key into the writer's arena, plus a 0 byte if succ: the
// least key above it. The copy stays intact until the writer is reset (an
// arena that grows leaves earlier copies in its old array, which nothing
// writes again).
func (w *tableWriter) keepKey(key []byte, succ bool) []byte {
	start := len(w.keys)
	w.keys = append(w.keys, key...)
	if succ {
		w.keys = append(w.keys, 0)
	}
	return w.keys[start:len(w.keys):len(w.keys)]
}

// tableScratch is the workspace a DB builds and merges its tables in, kept
// across tables (DESIGN.md §11): the container buffer and key index, the
// one table writer and the Builder it writes through, the table iterators
// merges and scans read their inputs with, and the free blobs finished
// tables are copied into.
type tableScratch struct {
	out   bytes.Buffer
	idx   []byte
	w     tableWriter
	bw    *container.Builder
	bwEng codec.Engine // the engine bw codes with
	iters []*tableIterator
	free  [][]byte // at most maxFreeBlobs
}

// maxFreeBlobs bounds the free list above what a merge of L0 into a full L1
// writes at the default sizes (about ten tables), so the blobs one merge
// frees serve the next.
const maxFreeBlobs = 16

// maxKeptBuffer is what a per-block buffer of the workspace may keep once
// the table or merge that grew it is done, unless the store's blocks are
// larger: one oversized block — a large value — does not pin its size for
// the life of the store.
const maxKeptBuffer = 64 << 10

// blob returns an empty buffer of capacity ≥ n: the smallest free blob that
// fits, else a new one an eighth larger than n, so that a later table up to
// that much larger can take it.
func (s *tableScratch) blob(n int) []byte {
	best := -1
	for i, b := range s.free {
		if cap(b) >= n && (best < 0 || cap(b) < cap(s.free[best])) {
			best = i
		}
	}
	if best < 0 {
		tmTableBlobAllocs.Inc()
		return make([]byte, 0, n+n/8)
	}
	b, last := s.free[best], len(s.free)-1
	s.free[best], s.free[last] = s.free[last], nil
	s.free = s.free[:last]
	return b[:0]
}

// recycle takes back the blob of a table that is gone: no live table names
// it, and the persister was never given it or has deleted it. A full free
// list drops it.
func (s *tableScratch) recycle(b []byte) {
	if len(s.free) < maxFreeBlobs {
		s.free = append(s.free, b)
	}
}

// iterators appends to dst an iterator over every table of levels, in
// order, each one of those the workspace keeps: callers hold db.mu, so the
// merge or scan they serve is the only one running.
func (s *tableScratch) iterators(dst []entryIterator, stats *Stats, levels ...[]*sstable) []entryIterator {
	n := 0
	for _, tables := range levels {
		for _, t := range tables {
			if n == len(s.iters) {
				s.iters = append(s.iters, new(tableIterator))
			}
			it := s.iters[n]
			*it = tableIterator{t: t, stats: stats, buf: it.buf, keys: it.keys[:0], entries: it.entries[:0]}
			dst = append(dst, it)
			n++
		}
	}
	return dst
}

// done ends a merge or scan: the iterators let go of their tables, and a
// per-block buffer one oversized block grew past maxKeptBuffer (or twice
// the block size, if larger) is dropped — the Builder too, whose compress
// scratch that block grew.
func (s *tableScratch) done(blockSize int) {
	limit := max(maxKeptBuffer, 2*blockSize)
	for _, it := range s.iters {
		it.t, it.stats = nil, nil
		// A block of limit bytes holds at most limit/4 entries.
		if cap(it.buf) > limit || cap(it.keys) > limit || cap(it.entries) > limit/4 {
			it.buf, it.keys, it.entries = nil, nil, nil
		}
	}
	clear(s.w.lastKeys) // they may alias the blobs of merged tables
	if cap(s.w.buf) > limit {
		s.w.buf, s.w.bw, s.bw, s.bwEng = nil, nil, nil, nil
	}
}

func sharedPrefixLen(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// add appends an entry; keys must arrive in strictly increasing order.
func (w *tableWriter) add(key, value []byte, tombstone bool) error {
	if w.numEntries > 0 && bytes.Compare(key, w.prevKey) <= 0 {
		return fmt.Errorf("kvstore: keys out of order: %q after %q", key, w.prevKey)
	}
	shared := 0
	if w.count%restartInterval == 0 {
		w.restarts = append(w.restarts, uint32(len(w.buf)))
	} else {
		shared = sharedPrefixLen(w.prevKey, key)
	}
	w.buf = binary.AppendUvarint(w.buf, uint64(shared))
	w.buf = binary.AppendUvarint(w.buf, uint64(len(key)-shared))
	if tombstone {
		w.buf = binary.AppendUvarint(w.buf, 0)
	} else {
		w.buf = binary.AppendUvarint(w.buf, uint64(len(value))+1)
	}
	w.buf = append(w.buf, key[shared:]...)
	w.buf = append(w.buf, value...)
	if w.numEntries == 0 {
		w.firstKey = w.keepKey(key, false)
	}
	w.count++
	w.numEntries++
	w.prevKey = append(w.prevKey[:0], key...)
	if len(w.buf) >= w.blockSize {
		return w.flushBlock()
	}
	return nil
}

func (w *tableWriter) flushBlock() error {
	if w.bwErr != nil {
		return w.bwErr
	}
	if len(w.buf) == 0 {
		return nil
	}
	// Append the restart array.
	for _, r := range w.restarts {
		w.buf = binary.LittleEndian.AppendUint32(w.buf, r)
	}
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(w.restarts)))

	before := w.bw.Offset()
	t0 := time.Now()
	err := w.bw.AppendBlock(w.buf)
	dt := time.Since(t0)
	if err != nil {
		return err
	}
	if w.stats != nil {
		w.stats.CompressTime += dt
		w.stats.BlocksWritten++
		w.stats.RawBytesWritten += int64(len(w.buf))
		w.stats.StoredBytesWritten += w.bw.Offset() - before
		tmCompNS.Add(dt.Nanoseconds())
		tmBlocksWritten.Inc()
		tmRawBytesWritten.Add(int64(len(w.buf)))
		tmStoredBytesWritten.Add(w.bw.Offset() - before)
	}
	w.lastKeys = append(w.lastKeys, w.keepKey(w.prevKey, false))
	w.buf = w.buf[:0]
	w.restarts = w.restarts[:0]
	w.count = 0
	return nil
}

// carry appends block b of src as it is stored — its checksum verified,
// neither decoded nor re-compressed — after cutting the block in progress
// short. src must use the writer's codec, and every key added so far must
// sort before the block's. Its keys are known only by their bounds, so a
// carried first block gives the table the tightest smallest key src's
// index allows.
func (w *tableWriter) carry(src *sstable, b int) error {
	lo, inclusive := src.lowerBound(b)
	if c := bytes.Compare(w.prevKey, lo); w.numEntries > 0 && (c > 0 || c == 0 && inclusive) {
		return fmt.Errorf("kvstore: carried block %d of table %d (keys from %q) out of order after %q", b, src.id, lo, w.prevKey)
	}
	if err := w.flushBlock(); err != nil {
		return err
	}
	frame, info, err := src.ra.ReadFrame(b)
	if err != nil {
		return fmt.Errorf("%w: table %d block %d: %v", ErrCorrupt, src.id, b, err)
	}
	before := w.bw.Offset()
	if err := w.bw.AppendFrame(frame, info); err != nil {
		return err
	}
	if w.numEntries == 0 {
		w.firstKey = w.keepKey(lo, !inclusive)
	}
	hi := src.lastKeys[b]
	w.lastKeys = append(w.lastKeys, hi)
	w.prevKey = append(w.prevKey[:0], hi...)
	w.numEntries++
	if w.stats != nil {
		stored := w.bw.Offset() - before
		w.stats.BlocksWritten++
		w.stats.StoredBytesWritten += stored
		w.stats.BlocksCarried++
		w.stats.CarriedBytes += int64(info.RawLen)
		tmBlocksWritten.Inc()
		tmStoredBytesWritten.Add(stored)
		tmBlocksCarried.Inc()
		tmCarriedBytes.Add(int64(info.RawLen))
	}
	return nil
}

// finish seals the table: the container gains its footer, the key index
// and trailer follow it, and the whole is copied out of the scratch buffer
// into a blob of the scratch's — the persister takes ownership of it — and
// opened the way recovery will open it. Returns nil when the table is empty.
func (w *tableWriter) finish() (*sstable, error) {
	if err := w.flushBlock(); err != nil {
		return nil, err
	}
	if w.numEntries == 0 {
		return nil, nil
	}
	if err := w.bw.Close(); err != nil {
		return nil, err
	}
	idx := binary.AppendUvarint(w.s.idx[:0], uint64(w.numEntries))
	idx = appendPrefixed(idx, w.firstKey)
	idx = binary.AppendUvarint(idx, uint64(len(w.lastKeys)))
	for _, k := range w.lastKeys {
		idx = appendPrefixed(idx, k)
	}
	w.s.idx = idx
	blob := w.s.blob(w.s.out.Len() + len(idx) + tableTrailerLen)
	blob = append(blob, w.s.out.Bytes()...)
	blob = append(blob, idx...)
	blob = binary.LittleEndian.AppendUint32(blob, uint32(len(idx)))
	blob = binary.LittleEndian.AppendUint64(blob, xxhash.Sum64(idx))
	blob = append(blob, tableMagic[:]...)
	return openTable(w.id, blob, w.eng)
}

// decodeBlock expands one data block — exactly one container block is read
// and decompressed — into dst's memory, from its start, and returns its
// entry region (the restart array is validated and stripped): a prefix of
// the buffer it decoded into, which is dst unless the block outgrew dst's
// capacity. The caller owns that buffer and decides when it is reused; a
// nil dst allocates one.
func decodeBlock(dst []byte, t *sstable, bi int, stats *Stats) ([]byte, error) {
	t0 := time.Now()
	raw, err := t.ra.DecodeBlock(dst[:0], bi)
	dt := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if stats != nil {
		stats.DecompressTime += dt
		stats.BlocksDecompressed++
		stats.BytesDecompressed += int64(len(raw))
		stats.BlocksRead++
		tmDecompNS.Add(dt.Nanoseconds())
		tmBlocksDecompressed.Inc()
		tmBytesDecompressed.Add(int64(len(raw)))
		tmBlocksRead.Inc()
	}
	if len(raw) < 4 {
		return nil, ErrCorrupt
	}
	numRestarts := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if uint64(numRestarts) > uint64(len(raw)-4)/4 {
		return nil, ErrCorrupt
	}
	return raw[:len(raw)-4-4*int(numRestarts)], nil
}

// blockEntry is one decoded entry.
type blockEntry struct {
	key       []byte
	value     []byte
	tombstone bool
}

// walkBlock scans every entry of a decoded block in order, invoking fn;
// fn returns false to stop early. The block stores keys prefix-compressed,
// so each is materialized by appending it to keys, which is returned grown
// for the caller to reuse: every key fn sees stays intact until the caller
// walks again over the arena it got back. (An arena that grows mid-block
// leaves the keys already placed in its old array, which nothing writes
// again.)
func walkBlock(entries, keys []byte, fn func(blockEntry) bool) ([]byte, error) {
	pos := 0
	var key []byte
	for pos < len(entries) {
		shared, n := binary.Uvarint(entries[pos:])
		if n <= 0 {
			return keys, ErrCorrupt
		}
		pos += n
		unshared, n := binary.Uvarint(entries[pos:])
		if n <= 0 {
			return keys, ErrCorrupt
		}
		pos += n
		vtag, n := binary.Uvarint(entries[pos:])
		if n <= 0 {
			return keys, ErrCorrupt
		}
		pos += n
		if shared > uint64(len(key)) || unshared > uint64(len(entries)-pos) {
			return keys, ErrCorrupt
		}
		start := len(keys)
		keys = append(keys, key[:shared]...)
		keys = append(keys, entries[pos:pos+int(unshared)]...)
		key = keys[start:len(keys):len(keys)]
		pos += int(unshared)
		var e blockEntry
		e.key = key
		if vtag == 0 {
			e.tombstone = true
		} else {
			if vtag-1 > uint64(len(entries)-pos) {
				return keys, ErrCorrupt
			}
			vlen := int(vtag - 1)
			e.value = entries[pos : pos+vlen]
			pos += vlen
		}
		if !fn(e) {
			return keys, nil
		}
	}
	return keys, nil
}

// findBlock locates the block that may contain key (first block whose
// lastKey ≥ key). Returns -1 when key is past the table.
func (t *sstable) findBlock(key []byte) int {
	i := sort.Search(len(t.lastKeys), func(i int) bool {
		return bytes.Compare(t.lastKeys[i], key) >= 0
	})
	if i == len(t.lastKeys) {
		return -1
	}
	return i
}

// get searches the table. Returns (dst with the value appended, tombstone,
// found); the value is copied into dst, never left in the cache buffer a
// later miss decodes over. A tombstone appends nothing, and neither does a
// miss or an error, which return dst as given.
func (t *sstable) get(dst, key []byte, stats *Stats, cache *blockCache) ([]byte, bool, bool, error) {
	bi := t.findBlock(key)
	if bi < 0 || bytes.Compare(key, t.smallest) < 0 {
		return dst, false, false, nil
	}
	entries, err := t.loadBlock(bi, stats, cache)
	if err != nil {
		return dst, false, false, err
	}
	var keys []byte // a table read without a cache allocates its key arena too
	if cache != nil {
		keys = cache.keys[:0]
	}
	out := dst
	var tomb, found bool
	keys, err = walkBlock(entries, keys, func(e blockEntry) bool {
		c := bytes.Compare(e.key, key)
		if c == 0 {
			found = true
			tomb = e.tombstone
			if !tomb {
				out = append(out, e.value...)
			}
			return false
		}
		return c < 0 // keep scanning while behind
	})
	if cache != nil {
		cache.keys = keys
	}
	if err != nil {
		return dst, false, false, err
	}
	return out, tomb, found, nil
}

// loadBlock returns block bi's entry region. On a cache miss the block is
// decoded into a buffer the cache owns and is cached there, so the result is
// valid only until the next miss: callers hold db.mu and copy what they keep.
func (t *sstable) loadBlock(bi int, stats *Stats, cache *blockCache) ([]byte, error) {
	if cache == nil {
		return decodeBlock(nil, t, bi, stats)
	}
	if b, ok := cache.get(t.id, bi); ok {
		if stats != nil {
			stats.BlockCacheHits++
			tmBlockCacheHits.Inc()
		}
		return b, nil
	}
	buf := cache.reclaim(t.ra.Block(bi).RawLen)
	entries, err := decodeBlock(buf, t, bi, stats)
	if err != nil {
		cache.release(buf)
		return nil, err
	}
	if cap(entries) > cap(buf) { // the block outgrew a reused buffer
		cache.own += cap(entries)
	}
	cache.put(t.id, bi, entries)
	return entries, nil
}

// tableIterator walks a whole table in key order — the scan path behind
// compaction and Scan. It decodes each block at most once and
// neither consults nor fills the block cache: a scan touches every block
// of its inputs once, which would only push the point-read working set out.
// The DB's tableScratch keeps its iterators, and with each the one buffer
// every block it loads is decoded into and the one arena its keys
// (prefix-compressed in the block) are materialized into: entry values
// alias the first, keys the second, and both are overwritten when the
// iterator loads its next block. An entry is valid until then, and no
// longer.
//
// A block is decoded only on load: until then the iterator is parked
// before it, known by its bounds alone, and the merge may skip it whole —
// the block carried into compaction's output unread.
type tableIterator struct {
	t       *sstable
	stats   *Stats
	block   int    // the block entries came from, or the one parked before
	loaded  bool   // entries hold block's entries and pos is inside them
	buf     []byte // the loaded block, decoded
	keys    []byte // the loaded block's keys, materialized
	entries []blockEntry
	pos     int
	failed  error
}

// parked reports whether the iterator stands before a block it has not
// decoded; key, value and tombstone are meaningful only after load.
func (it *tableIterator) parked() bool {
	return !it.loaded && it.failed == nil && it.block < it.t.numBlocks()
}

// load decodes the block the iterator is parked before, ending the validity
// of the entries of the block it loaded last.
func (it *tableIterator) load() {
	it.entries = it.entries[:0]
	it.keys = it.keys[:0]
	it.pos = 0
	raw, err := decodeBlock(it.buf, it.t, it.block, it.stats)
	if err != nil {
		it.failed = err
		return
	}
	it.buf = raw
	it.keys, it.failed = walkBlock(raw, it.keys, func(e blockEntry) bool {
		it.entries = append(it.entries, e)
		return true
	})
	if it.failed == nil && len(it.entries) == 0 {
		it.failed = fmt.Errorf("%w: table %d block %d holds no entries", ErrCorrupt, it.t.id, it.block)
	}
	it.loaded = it.failed == nil
}

// skip moves past the block the iterator is parked before without decoding
// it.
func (it *tableIterator) skip() { it.block++ }

func (it *tableIterator) valid() bool {
	return it.failed == nil && it.block < it.t.numBlocks()
}
func (it *tableIterator) err() error      { return it.failed }
func (it *tableIterator) key() []byte     { return it.entries[it.pos].key }
func (it *tableIterator) value() []byte   { return it.entries[it.pos].value }
func (it *tableIterator) tombstone() bool { return it.entries[it.pos].tombstone }
func (it *tableIterator) next() {
	it.pos++
	if it.pos >= len(it.entries) {
		it.loaded = false
		it.block++
	}
}

// blockCache is a bounded FIFO cache of decoded blocks keyed by (table,
// block). It owns the buffers the blocks live in, and never holds more of
// them — cached and free together — than its entry bound: a miss decodes
// into a dropped table's buffer, or, once the cache is full, into the
// buffer of the oldest entry, which it evicts first. While it fills, new
// buffers are cut from reservations the store makes as its tables land
// (reserve), of at most its budget together, so a read allocates none.
type blockCache struct {
	m     map[[2]int64][]byte
	order [][2]int64 // ring of m's keys, oldest first from order[head]; len is the entry bound
	head  int
	free  [][]byte // buffers of dropped tables' blocks
	keys  []byte   // key arena the point reads walk their block with

	blockSize int      // the store's; the budget is the entry bound × bufSize
	spare     [][]byte // the unclaimed rests of the reservations, newest last
	fresh     bool     // nothing is cut from the newest reservation yet
	reserved  int      // bytes of every reservation made
	own       int      // bytes of the buffers allocated outside them
}

func newBlockCache(maxEntries, blockSize int) *blockCache {
	return &blockCache{m: make(map[[2]int64][]byte, maxEntries), order: make([][2]int64, maxEntries), blockSize: blockSize}
}

// bufSize is every buffer the cache cuts from its reservations: one and a
// half block sizes, since a block overruns the block size by its last
// entry, so that any block of values well under the block size fits any
// buffer it is reused for.
func (c *blockCache) bufSize() int { return c.blockSize + c.blockSize/2 }

// retained is what the cache's buffers take: its reservations, and the
// buffers it holds outside them.
func (c *blockCache) retained() int { return c.reserved + c.own }

func (c *blockCache) get(table int64, block int) ([]byte, bool) {
	b, ok := c.m[[2]int64{table, int64(block)}]
	return b, ok
}

// reserve grows the cache's reservations to what blocks blocks — the
// store's tables, as the DB counts them when tables land: a flush, a
// compaction, recovery — can fill, a bufSize each, within the budget (the
// entry bound's). Filling then costs an allocation per table landing, made
// where tables are written, and none per read: a store that never flushes
// reserves nothing. A newest reservation nothing is cut from yet is
// replaced by one of the combined size.
func (c *blockCache) reserve(blocks int) {
	size := c.bufSize()
	grow := min(len(c.order), blocks)*size - c.reserved
	if grow <= 0 {
		return
	}
	if k := len(c.spare); k > 0 && c.fresh {
		last := len(c.spare[k-1])
		grow, c.reserved = grow+last, c.reserved-last
		c.spare = c.spare[:k-1]
	}
	c.spare = append(c.spare, make([]byte, grow))
	c.reserved += grow
	c.fresh = true
}

// reclaim hands a miss the buffer to decode a block of n bytes into: a
// free one, else — while the cache fills — one of bufSize cut from the
// reservations, else the oldest entry's, which is evicted. While the cache
// fills, a block over bufSize holds a value near the block size or larger
// and gets a buffer of its own, with a quarter of slack, and so does a
// miss with nothing to cut or evict. The buffer comes back through put, or
// release if the decode failed.
func (c *blockCache) reclaim(n int) []byte {
	if k := len(c.free); k > 0 {
		b := c.free[k-1]
		c.free = c.free[:k-1]
		return b
	}
	if len(c.m) < len(c.order) {
		size := c.bufSize()
		if k := len(c.spare); n <= size && k > 0 {
			s := c.spare[k-1] // reservations are whole buffers: never empty here
			if c.spare[k-1], c.fresh = s[size:], false; len(s) == size {
				c.spare = c.spare[:k-1]
			}
			return s[:0:size]
		}
		if n > size || len(c.m) == 0 {
			c.own += n + n/4
			return make([]byte, 0, n+n/4)
		}
	}
	k := c.order[c.head]
	c.head = (c.head + 1) % len(c.order)
	b := c.m[k]
	delete(c.m, k)
	return b
}

// put caches the entries of a block that missed, decoded into the buffer
// reclaim returned (or a new one): the cache owns that buffer from here on,
// and reuses it once the entry is evicted or its table dropped.
func (c *blockCache) put(table int64, block int, entries []byte) {
	k := [2]int64{table, int64(block)}
	c.order[(c.head+len(c.m))%len(c.order)] = k
	c.m[k] = entries
}

// release returns a buffer reclaim handed out to the free list.
func (c *blockCache) release(buf []byte) {
	if buf != nil {
		c.free = append(c.free, buf)
	}
}

// dropTable evicts all cached blocks of a table (after compaction), keeping
// their buffers for the next misses.
func (c *blockCache) dropTable(table int64) {
	n, kept := len(c.m), 0
	for i := 0; i < n; i++ {
		k := c.order[(c.head+i)%len(c.order)]
		if k[0] == table {
			c.free = append(c.free, c.m[k])
			delete(c.m, k)
			continue
		}
		c.order[(c.head+kept)%len(c.order)] = k
		kept++
	}
}
