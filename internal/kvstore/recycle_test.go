package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/datacomp/datacomp/internal/corpus"
	"github.com/datacomp/datacomp/internal/xxhash"
)

// blockTable is a store holding n keys in one L0 table of 1 KiB blocks
// behind a block cache of the given entry count, and that table.
func blockTable(t *testing.T, n, cacheEntries int, opts ...Option) (*DB, *sstable) {
	t.Helper()
	db := testDB(t, append([]Option{WithBlockSize(1 << 10), WithMemtableBytes(1 << 30),
		WithL0CompactionTrigger(100), WithBlockCacheEntries(cacheEntries)}, opts...)...)
	for i := 0; i < n; i++ {
		mustPut(t, db, fmt.Sprintf("key-%06d", i), fmt.Sprintf("value-%06d-%048d", i, i))
	}
	if err := db.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	if c := db.TableCounts(); c[0] != 1 {
		t.Fatalf("table layout %v, want one table at L0", c)
	}
	return db, db.levels[0][0]
}

// cacheBuffers is every buffer the block cache holds, cached or free, by
// the address of its backing array.
func cacheBuffers(db *DB) map[*byte]bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := map[*byte]bool{}
	for _, b := range db.cache.m {
		out[&b[:1][0]] = true
	}
	for _, b := range db.cache.free {
		out[&b[:1][0]] = true
	}
	return out
}

// checkCacheBound fails unless the cache's buffers, cached and free, are
// within its entry bound.
func checkCacheBound(t *testing.T, db *DB) {
	t.Helper()
	db.mu.Lock()
	defer db.mu.Unlock()
	if c := db.cache; len(c.m)+len(c.free) > len(c.order) {
		t.Fatalf("block cache holds %d cached + %d free buffers, bound %d", len(c.m), len(c.free), len(c.order))
	}
}

// getBlock reads the last key of block b — a key the block holds — and
// returns its value.
func getBlock(t *testing.T, db *DB, tb *sstable, b int) []byte {
	t.Helper()
	v, ok, err := db.Get(tctx, tb.lastKeys[b])
	if err != nil || !ok {
		t.Fatalf("get %q (block %d): ok=%v err=%v", tb.lastKeys[b], b, ok, err)
	}
	return v
}

// TestRecycledBuffersKeepGetValues: once the cache is full every miss
// decodes over the oldest entry's buffer — no new buffer appears — and a
// value Get returned earlier is unchanged after 2 × the entry bound further
// cold gets have decoded over every buffer the cache holds.
func TestRecycledBuffersKeepGetValues(t *testing.T) {
	const entries = 8
	db, tb := blockTable(t, 2000, entries)
	if tb.numBlocks() < 4*entries {
		t.Fatalf("fixture has %d blocks, want at least %d", tb.numBlocks(), 4*entries)
	}
	kept := getBlock(t, db, tb, 0)
	want := string(kept)
	for b := 1; b < entries; b++ {
		getBlock(t, db, tb, b)
	}
	warm := cacheBuffers(db)
	if len(warm) != entries {
		t.Fatalf("warm cache holds %d buffers, want %d", len(warm), entries)
	}
	hits := db.Stats().BlockCacheHits
	for i := 0; i < 2*entries; i++ {
		getBlock(t, db, tb, entries+i)
		checkCacheBound(t, db)
	}
	if db.Stats().BlockCacheHits != hits {
		t.Fatal("the cold gets hit the cache")
	}
	for buf := range cacheBuffers(db) {
		if !warm[buf] {
			t.Fatal("a miss on a full cache decoded into a new buffer instead of the oldest entry's")
		}
	}
	if string(kept) != want {
		t.Fatalf("a value Get returned changed under later misses: %q, was %q", kept, want)
	}
}

// TestRecycledCacheBoundUnderCompaction: compactions drop their input
// tables' blocks into the free list, later misses draw from it, and the
// cache's buffers — cached and free — never exceed its entry bound.
func TestRecycledCacheBoundUnderCompaction(t *testing.T) {
	const entries = 16
	db := testDB(t, WithBlockSize(1<<10), WithMemtableBytes(16<<10), WithL0CompactionTrigger(2),
		WithBaseLevelBytes(64<<10), WithMaxTableBytes(32<<10), WithBlockCacheEntries(entries))
	drawn := 0
	for i := 0; i < 6000; i++ {
		mustPut(t, db, fmt.Sprintf("key-%05d", (i*7919)%3000), fmt.Sprintf("value-%05d-%040d", i, i))
		if i%50 != 0 {
			continue
		}
		before := len(db.cache.free)
		for j := 0; j < 20; j++ {
			k := fmt.Sprintf("key-%05d", (i+j*131)%3000)
			if _, _, err := db.Get(tctx, []byte(k)); err != nil {
				t.Fatalf("get %s: %v", k, err)
			}
		}
		if after := len(db.cache.free); after < before {
			drawn += before - after
		}
		checkCacheBound(t, db)
	}
	if st := db.Stats(); st.Compactions < 5 || st.TrivialMoves == st.Compactions {
		t.Fatalf("workload too small: %d compactions, %d of them moves", st.Compactions, st.TrivialMoves)
	}
	if drawn == 0 {
		t.Fatal("no miss decoded into a dropped table's buffer")
	}
}

// TestRecycledFillReservation: a filling cache cuts its new buffers from
// the reservation the flush made, so a cold get while it fills — the first
// one included — allocates only the value it returns; the reservation
// covers the blocks the store holds, not the cache's larger entry bound.
func TestRecycledFillReservation(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	db, tb := blockTable(t, 2000, 1<<12)
	blocks := tb.numBlocks()
	reserved := int(db.Stats().BlockCacheBytes)
	if reserved == 0 || reserved > blocks*db.cache.bufSize() {
		t.Fatalf("the flush reserved %d bytes for %d blocks of 1 KiB (entry bound %d)", reserved, blocks, 1<<12)
	}
	b := 0
	get := func() {
		getBlock(t, db, tb, b)
		b++
	}
	if n := testing.AllocsPerRun(blocks-2, get); n > 1 {
		t.Errorf("a Get missing a filling block cache: %v allocs/op, want at most the returned value's", n)
	}
	if hits := db.Stats().BlockCacheHits; hits != 0 {
		t.Fatalf("%d of the gets hit the cache; each should read a new block", hits)
	}
	if got := int(db.Stats().BlockCacheBytes); got != reserved {
		t.Errorf("the gets moved the cache's retained bytes from %d to %d", reserved, got)
	}
	checkCacheBound(t, db)
}

// TestRecycledFlushReserves: the block cache reserves where tables land —
// at a flush, and at Open for the tables a store recovers — and never at a
// read: a store that never flushes holds no reservation however it is
// read, and the first block read after a flush allocates none. The
// reservation stays within the cache's budget however large the store.
func TestRecycledFlushReserves(t *testing.T) {
	const entries = 16
	p := NewMemPersister()
	opts := []Option{WithPersister(p), WithBlockSize(1 << 10), WithMemtableBytes(1 << 30),
		WithL0CompactionTrigger(100), WithBlockCacheEntries(entries)}
	db, err := Open(tctx, "", opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		mustPut(t, db, fmt.Sprintf("key-%06d", i), fmt.Sprintf("value-%06d-%048d", i, i))
	}
	for i := 0; i < 100; i++ {
		if _, _, err := db.Get(tctx, []byte(fmt.Sprintf("key-%06d", i*17))); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.Stats().BlockCacheBytes; got != 0 {
		t.Fatalf("a store that never flushed retains %d block-cache bytes, want 0", got)
	}
	if err := db.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	budget := int64(entries * db.cache.bufSize())
	if got := db.Stats().BlockCacheBytes; got == 0 || got > budget {
		t.Fatalf("after the flush the cache retains %d bytes, want a reservation within the %d-byte budget", got, budget)
	}
	tb := db.levels[0][0]
	// A scan decodes every block outside the cache: the engine's scratch
	// is warm before the read measured below.
	if err := db.Scan(tctx, func(k, v []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	getBlock(t, db, tb, 0)
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d >= uint64(db.cache.bufSize()) {
		t.Errorf("the first block read after the flush allocated %d bytes, want no reservation (%d-byte buffers)", d, db.cache.bufSize())
	}
	for b := 1; b < tb.numBlocks(); b++ {
		getBlock(t, db, tb, b)
	}
	if got := db.Stats().BlockCacheBytes; got > budget {
		t.Fatalf("after reading every block the cache retains %d bytes, over its %d-byte budget", got, budget)
	}
	checkCacheBound(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(tctx, "", opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.Stats().BlockCacheBytes; got == 0 || got > budget {
		t.Fatalf("a reopened store's cache retains %d bytes, want the recovered tables' reservation within %d", got, budget)
	}
}

// TestRecycledFillOversizedBlock: a filling cache cuts its new buffers,
// each of one and a half block sizes, from the reservation its flush made,
// and a block far above the block size — one
// 64 KiB value — gets one buffer of its own, outside the reservation: a
// pass over every block of the table allocates near the budget plus that
// block.
func TestRecycledFillOversizedBlock(t *testing.T) {
	const entries, blockSize, big = 16, 1 << 10, 64 << 10
	const budget = entries * blockSize
	db := testDB(t, WithBlockSize(blockSize), WithMemtableBytes(1<<30),
		WithL0CompactionTrigger(100), WithBlockCacheEntries(entries))
	bigKey := "key-001000"
	for i := 0; i < 2000; i++ {
		k, v := fmt.Sprintf("key-%06d", i), fmt.Sprintf("value-%06d-%048d", i, i)
		if k == bigKey {
			v = strings.Repeat("v", big)
		}
		mustPut(t, db, k, v)
	}
	if err := db.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	tb := db.levels[0][0]
	bigBlock := slices.IndexFunc(tb.lastKeys, func(k []byte) bool { return string(k) == bigKey })
	if bigBlock < 1 || tb.numBlocks() < 4*entries {
		t.Fatalf("fixture: the big value ends block %d of %d", bigBlock, tb.numBlocks())
	}
	// A scan decodes every block outside the cache: the engine's scratch
	// grows to the big block here, not in the gets measured below.
	if err := db.Scan(tctx, func(k, v []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	spare := func() int {
		db.mu.Lock()
		defer db.mu.Unlock()
		n := 0
		for _, s := range db.cache.spare {
			n += len(s)
		}
		return n
	}

	first := allocated(func() { getBlock(t, db, tb, 0) })
	if first > budget+4*blockSize {
		t.Errorf("the first cold get allocated %d bytes, want at most the %d-byte budget and the value", first, budget)
	}
	left := spare()
	oversized := allocated(func() { getBlock(t, db, tb, bigBlock) })
	if oversized > 3*big {
		t.Errorf("the cold get of a %d-byte block allocated %d bytes, want its buffer and value", big, oversized)
	}
	if s := spare(); s != left {
		t.Errorf("the %d-byte block changed the reservation's spare from %d to %d bytes, want a buffer of its own", big, left, s)
	}
	db.mu.Lock()
	for k, b := range db.cache.m {
		if raw := tb.ra.Block(int(k[1])).RawLen; cap(b) < raw+raw/4 {
			t.Errorf("block %d: buffer of %d bytes for %d raw, want a quarter of slack", k[1], cap(b), raw)
		}
	}
	db.mu.Unlock()
	rest := allocated(func() {
		for b := 1; b < tb.numBlocks(); b++ {
			if b != bigBlock {
				getBlock(t, db, tb, b)
			}
		}
	})
	if bound := uint64(2*budget + 256*tb.numBlocks()); first+rest > bound {
		t.Errorf("the first get and the other %d blocks allocated %d bytes, want at most %d (a %d-byte budget with slack, and the values)",
			tb.numBlocks()-2, first+rest, bound, budget)
	}
	t.Logf("allocated: first get %d B, oversized block %d B, the other %d blocks %d B", first, oversized, tb.numBlocks()-2, rest)
	checkCacheBound(t, db)
	// The cache is full and the big block long evicted: reading it again
	// evicts the oldest entry like any miss, and the bound holds.
	if _, ok := db.cache.get(tb.id, bigBlock); ok {
		t.Fatal("fixture: the big block is still cached")
	}
	getBlock(t, db, tb, bigBlock)
	checkCacheBound(t, db)
	if n := len(db.cache.m); n > entries {
		t.Fatalf("the cache holds %d entries, bound %d", n, entries)
	}
}

// spoilingEngine decodes blocks, then, when armed, overwrites the restart
// count at the end of the block it just decoded: a block whose payload
// checksum held but whose content is corrupt, written into whatever buffer
// the decode was handed.
type spoilingEngine struct {
	*countingEngine
	armed bool
}

func (e *spoilingEngine) Decompress(dst, src []byte) ([]byte, error) {
	out, err := e.countingEngine.Decompress(dst, src)
	if err == nil && e.armed && len(out) >= 4 {
		e.armed = false
		binary.LittleEndian.PutUint32(out[len(out)-4:], 1<<31)
	}
	return out, err
}

// TestRecycledBufferCorruptBlock: a corrupt block decoded into the buffer a
// full cache reclaimed is ErrCorrupt, is not cached, and leaves the cache
// serving every other block — its remaining entries as hits, new misses
// correctly — within its bound.
func TestRecycledBufferCorruptBlock(t *testing.T) {
	const entries = 4
	eng := &spoilingEngine{countingEngine: newCountingEngine(t)}
	db, tb := blockTable(t, 600, entries, WithEngine(eng))
	values := map[int]string{}
	for b := 0; b < entries; b++ {
		values[b] = string(getBlock(t, db, tb, b))
	}
	bad := entries + 2
	eng.armed = true
	if _, _, err := db.Get(tctx, tb.lastKeys[bad]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("get from a corrupt block = %v, want ErrCorrupt", err)
	}
	checkCacheBound(t, db)
	if _, ok := db.cache.get(tb.id, bad); ok {
		t.Fatal("the corrupt block was cached")
	}
	// The miss evicted block 0; blocks 1.. are still cached and still hold
	// what they did.
	hits := db.Stats().BlockCacheHits
	for b := 1; b < entries; b++ {
		if v := getBlock(t, db, tb, b); string(v) != values[b] {
			t.Fatalf("block %d now reads %q, want %q", b, v, values[b])
		}
	}
	if got := db.Stats().BlockCacheHits - hits; got != entries-1 {
		t.Fatalf("%d of the %d surviving entries hit", got, entries-1)
	}
	// New misses — the corrupt block's own, now clean, among them — decode
	// into the buffer the failed decode gave back.
	for _, b := range []int{bad, 0, entries + 5} {
		want := fmt.Sprintf("value-%s-", tb.lastKeys[b][len("key-"):])
		if v := getBlock(t, db, tb, b); string(v[:len(want)]) != want {
			t.Fatalf("block %d reads %q, want a value starting %q", b, v, want)
		}
		checkCacheBound(t, db)
	}
}

// TestStoreAllocs gates the store's read paths the way steady_alloc_test.go
// gates the codecs: a Get that misses a warm, full block cache allocates
// only the value it returns, and a Scan's allocations are per table, not
// per block.
func TestStoreAllocs(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	t.Run("GetMiss", func(t *testing.T) {
		const entries = 8
		db, tb := blockTable(t, 2000, entries)
		b := 0
		get := func() {
			getBlock(t, db, tb, b%tb.numBlocks())
			b++
		}
		for i := 0; i < tb.numBlocks(); i++ { // a full cache, and every table scratch warm
			get()
		}
		hits := db.Stats().BlockCacheHits
		if n := testing.AllocsPerRun(100, get); n > 1 {
			t.Errorf("a Get missing a full block cache: %v allocs/op, want at most the returned value's", n)
		}
		if db.Stats().BlockCacheHits != hits {
			t.Fatal("the measured gets hit the cache")
		}
	})
	t.Run("ScanPerTable", func(t *testing.T) {
		scanAllocs := func(n int) (float64, int) {
			db, tb := blockTable(t, n, -1)
			scan := func() {
				if err := db.Scan(tctx, func(k, v []byte) bool { return true }); err != nil {
					t.Fatal(err)
				}
			}
			return testing.AllocsPerRun(5, scan), tb.numBlocks()
		}
		one, blocks1 := scanAllocs(1000)
		four, blocks4 := scanAllocs(4000)
		if blocks4 < 4*blocks1-4 {
			t.Fatalf("fixtures hold %d and %d blocks, want 4×", blocks1, blocks4)
		}
		t.Logf("Scan allocs: %v over %d blocks, %v over %d", one, blocks1, four, blocks4)
		if four > one {
			t.Errorf("Scan over %d blocks: %v allocs, over %d blocks: %v; want no more", blocks4, four, blocks1, one)
		}
	})
}

// tableBlobs is the backing array of every blob the store holds, in a live
// table or on the free list.
func tableBlobs(db *DB) map[*byte]bool {
	out := map[*byte]bool{}
	for _, tables := range db.levels {
		for _, tb := range tables {
			out[&tb.blob[:1][0]] = true
		}
	}
	for _, b := range db.scratch.free {
		out[&b[:1][0]] = true
	}
	return out
}

// TestPutAllocs gates the write path: a Put into a warm store allocates
// nothing until its memtable fills — the batch, the WAL record and the
// memtable's arena and slab are all reused — and once flushes and
// compactions have settled into a cycle, every table they write is copied
// into the blob of a table an earlier cycle dropped.
func TestPutAllocs(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	t.Run("BetweenFlushes", func(t *testing.T) {
		db := testDB(t, WithMemtableBytes(512<<10))
		keys := make([][]byte, 4000)
		for i := range keys {
			keys[i] = fmt.Appendf(nil, "key-%06d", i*7919%len(keys))
		}
		value := make([]byte, 1<<10)
		i := 0
		put := func() {
			binary.LittleEndian.PutUint64(value, uint64(i))
			if err := db.Put(tctx, keys[i%len(keys)], value); err != nil {
				t.Fatal(err)
			}
			i++
		}
		for db.Stats().Flushes < 2 {
			put()
		}
		flushes := db.Stats().Flushes
		// The allocations of 100 puts in total, after 100 more: a mean per
		// put would round away the odd arena chunk or node slab.
		hundred := func() {
			for j := 0; j < 100; j++ {
				put()
			}
		}
		if n := testing.AllocsPerRun(1, hundred); n != 0 {
			t.Errorf("100 Puts between flushes: %v allocations, want 0", n)
		}
		if db.Stats().Flushes != flushes {
			t.Fatal("the measured puts flushed")
		}
	})
	t.Run("FlushCompactBlobs", func(t *testing.T) {
		// Uniform overwrites of a loaded key set: every flush writes a table
		// of about one size, every merge rewrites L1 into tables of about
		// another, and the live data stays the same size.
		db := testDB(t, WithMemtableBytes(32<<10), WithMaxTableBytes(64<<10), WithL0CompactionTrigger(2),
			WithBaseLevelBytes(1<<20))
		pairs := corpus.KVPairs(5, 2000)
		rng := rand.New(rand.NewSource(5))
		for _, i := range rng.Perm(len(pairs)) {
			if err := db.Put(tctx, pairs[i].Key, pairs[i].Value); err != nil {
				t.Fatal(err)
			}
		}
		cycles := func(n int64, each func()) {
			for end := db.Stats().Compactions + n; db.Stats().Compactions < end; {
				kv := pairs[rng.Intn(len(pairs))]
				if err := db.Put(tctx, kv.Key, kv.Value); err != nil {
					t.Fatal(err)
				}
				each()
			}
		}
		cycles(4, func() {})
		known, st := tableBlobs(db), db.Stats()
		cycles(8, func() {
			for _, tables := range db.levels {
				for _, tb := range tables {
					if !known[&tb.blob[:1][0]] {
						t.Fatalf("table %d (%d bytes) was written into a new blob, not a free one", tb.id, len(tb.blob))
					}
				}
			}
		})
		if after := db.Stats(); after.Flushes-st.Flushes < 16 || after.TrivialMoves != st.TrivialMoves {
			t.Fatalf("workload: %d flushes and %d trivial moves in the measured cycles, want ≥ 16 flushes and merges only",
				after.Flushes-st.Flushes, after.TrivialMoves-st.TrivialMoves)
		}
	})
}

// ownershipPersister checks the persister's side of the blob contract:
// it records the XXH64 of every blob it is given and fails the test if a
// blob it may still hold — one whose PutBlob was called, even if it failed,
// and that no DeleteBlobs has since removed — changes, at every call and at
// close. It also counts the blobs it is given whose memory it had once
// deleted: the tables the store wrote into recycled blobs.
type ownershipPersister struct {
	Persister
	t       *testing.T
	held    map[string]ownedBlob
	deleted map[*byte]bool
	reused  int
}

type ownedBlob struct {
	data []byte
	sum  uint64
}

func newOwnershipPersister(t *testing.T, p Persister) *ownershipPersister {
	return &ownershipPersister{Persister: p, t: t, held: map[string]ownedBlob{}, deleted: map[*byte]bool{}}
}

func (p *ownershipPersister) check(when string) {
	p.t.Helper()
	for name, b := range p.held {
		if xxhash.Sum64(b.data) != b.sum {
			p.t.Fatalf("%s: blob %s changed while the persister held it", when, name)
		}
	}
}

func (p *ownershipPersister) PutBlob(name string, data []byte) error {
	p.check("put " + name)
	if len(data) > 0 && p.deleted[&data[0]] {
		p.reused++
		delete(p.deleted, &data[0])
	}
	p.held[name] = ownedBlob{data, xxhash.Sum64(data)}
	return p.Persister.PutBlob(name, data)
}

func (p *ownershipPersister) DeleteBlobs(names ...string) error {
	p.check("delete")
	if err := p.Persister.DeleteBlobs(names...); err != nil {
		return err
	}
	for _, name := range names {
		if b, ok := p.held[name]; ok && len(b.data) > 0 {
			p.deleted[&b.data[0]] = true
		}
		delete(p.held, name)
	}
	return nil
}

func (p *ownershipPersister) Close() error {
	p.check("close")
	return p.Persister.Close()
}

// TestBlobOwnership: a store writes tables into the blobs of tables it
// dropped, and never into one the persister may still hold — through
// merges, commits whose table writes fail, a reopen that takes its tables
// from GetBlob and a close.
func TestBlobOwnership(t *testing.T) {
	fault := NewFaultPersister(NewMemPersister())
	own := newOwnershipPersister(t, fault)
	opts := []Option{WithPersister(own), WithSeed(9), WithMemtableBytes(16 << 10), WithMaxTableBytes(32 << 10),
		WithL0CompactionTrigger(2), WithBaseLevelBytes(64 << 10)}
	db, err := Open(tctx, "", opts...)
	if err != nil {
		t.Fatal(err)
	}
	pairs := corpus.KVPairs(9, 3000)
	rng := rand.New(rand.NewSource(9))
	want := map[string]string{}
	run := func(n int, failing bool) {
		t.Helper()
		for i := 0; i < n; i++ {
			kv := pairs[rng.Intn(len(pairs))]
			err := db.Put(tctx, kv.Key, kv.Value)
			if err != nil && !(failing && errors.Is(err, ErrInjected)) {
				t.Fatal(err)
			}
			want[string(kv.Key)] = string(kv.Value) // a failed commit still applied the put
		}
	}
	run(3000, false)
	// Commits fail while flushes and merges go on in memory: tables whose
	// PutBlob failed are merged away before any commit names them.
	fault.FailBlobs(true)
	run(600, true)
	fault.FailBlobs(false)
	run(1500, false)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(tctx, "", opts...); err != nil {
		t.Fatal(err)
	}
	run(3000, false)
	if got := dump(t, db); !maps.Equal(got, want) {
		t.Fatalf("the store scans to %d keys, want %d (or a value differs)", len(got), len(want))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	t.Logf("%d blobs reused over %d flushes and %d compactions", own.reused, st.Flushes, st.Compactions)
	if own.reused == 0 {
		t.Fatal("no table was written into the blob of a deleted one")
	}
}
