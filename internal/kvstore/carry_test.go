package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/xxhash"
)

// checkTablesLocked decodes every block of every table and checks what
// carry and move rely on: each block's keys increase and lie in
// (lastKeys[b-1], lastKeys[b]], smallest is at most the first key, and the
// tables of every level below L0 are sorted and disjoint.
func checkTablesLocked(t *testing.T, db *DB) {
	t.Helper()
	for lvl, tables := range db.levels {
		for i, tb := range tables {
			if lvl > 0 && i > 0 && bytes.Compare(tables[i-1].largest, tb.smallest) >= 0 {
				t.Fatalf("L%d: table %d [%q, %q] overlaps or precedes table %d [%q, %q]", lvl,
					tb.id, tb.smallest, tb.largest, tables[i-1].id, tables[i-1].smallest, tables[i-1].largest)
			}
			for b := range tb.lastKeys {
				entries, err := decodeBlock(nil, tb, b, nil)
				if err != nil {
					t.Fatalf("L%d table %d block %d: %v", lvl, tb.id, b, err)
				}
				lo, inclusive := tb.lowerBound(b)
				prev := lo
				first := true
				_, err = walkBlock(entries, nil, func(e blockEntry) bool {
					c := bytes.Compare(prev, e.key)
					if c > 0 || c == 0 && !(first && inclusive) {
						t.Fatalf("L%d table %d block %d: key %q after %q", lvl, tb.id, b, e.key, prev)
					}
					if bytes.Compare(e.key, tb.lastKeys[b]) > 0 {
						t.Fatalf("L%d table %d block %d: key %q past the block's last key %q", lvl, tb.id, b, e.key, tb.lastKeys[b])
					}
					prev, first = append([]byte{}, e.key...), false
					return true
				})
				if err != nil || first {
					t.Fatalf("L%d table %d block %d: walk = %v, empty = %v", lvl, tb.id, b, err, first)
				}
			}
		}
	}
}

// checkTables is checkTablesLocked for a caller that does not hold db.mu.
func checkTables(t *testing.T, db *DB) {
	t.Helper()
	db.mu.Lock()
	defer db.mu.Unlock()
	checkTablesLocked(t, db)
}

// compactNow runs one compaction of level lvl's first n tables (n < 0: all
// of them) and checks the tables after it.
func compactNow(t *testing.T, db *DB, lvl, n int) error {
	t.Helper()
	db.mu.Lock()
	defer db.mu.Unlock()
	if n < 0 {
		n = len(db.levels[lvl])
	}
	err := db.compactLocked(tctx, lvl, n)
	if err == nil {
		checkTablesLocked(t, db)
	}
	return err
}

// storedBlock is block b of tb as the container stores it: its header
// (uvarint compLen | uvarint rawLen | XXH64) and payload.
func storedBlock(tb *sstable, b int) []byte {
	info := tb.ra.Block(b)
	hdr := binary.AppendUvarint(nil, uint64(info.CompLen))
	hdr = binary.AppendUvarint(hdr, uint64(info.RawLen))
	return tb.data[info.Off-int64(len(hdr)+8) : info.Off+int64(info.CompLen)]
}

// carryFixture is one L1 table of 1 000 keys in ≈ 70 full 1 KiB blocks and
// one L0 table overwriting six keys in its middle: compacting L0 decodes
// the block or two those keys land in and can carry the rest.
func carryFixture(t *testing.T) (*DB, map[string]string) {
	t.Helper()
	db := testDB(t, WithBlockSize(1<<10), WithMemtableBytes(1<<30), WithL0CompactionTrigger(100),
		WithBaseLevelBytes(1<<30), WithBlockCacheEntries(-1))
	want := map[string]string{}
	put := func(i int, gen string) {
		k, v := fmt.Sprintf("k-%04d", i), fmt.Sprintf("%s-%04d-%s", gen, i, strings.Repeat("v", 50))
		mustPut(t, db, k, v)
		want[k] = v
	}
	for i := 0; i < 1000; i++ {
		put(i, "old")
	}
	if err := db.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	if err := compactNow(t, db, 0, -1); err != nil {
		t.Fatal(err)
	}
	for i := 500; i < 506; i++ {
		put(i, "new")
	}
	if err := db.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	if c := db.TableCounts(); c[0] != 1 || c[1] != 1 {
		t.Fatalf("fixture layout %v, want one table at L0 and one at L1", c)
	}
	return db, want
}

// TestCarriedBlockByteIdentical: the blocks a compaction carries are the
// source's blocks byte for byte, header and payload, and decode to what the
// store held; a source block whose payload no longer matches its checksum
// fails the compaction with ErrCorrupt before a byte of it is copied.
func TestCarriedBlockByteIdentical(t *testing.T) {
	db, want := carryFixture(t)
	src := db.levels[1][0]
	srcBlocks := map[string]bool{}
	for b := range src.lastKeys {
		srcBlocks[string(storedBlock(src, b))] = true
	}
	before := db.Stats()
	if err := compactNow(t, db, 0, -1); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	carried := st.BlocksCarried - before.BlocksCarried
	if carried < int64(src.numBlocks())-4 || st.TrivialMoves != before.TrivialMoves {
		t.Fatalf("carried %d of %d source blocks and moved %d tables, want all but the few the new keys touch, and no move",
			carried, src.numBlocks(), st.TrivialMoves-before.TrivialMoves)
	}
	if decoded := st.BlocksDecompressed - before.BlocksDecompressed; decoded+carried != int64(src.numBlocks())+1 {
		t.Fatalf("decoded %d blocks and carried %d, want the other %d of the inputs' blocks decoded",
			decoded, carried, int64(src.numBlocks())+1-carried)
	}
	if st.RawBytesWritten-before.RawBytesWritten >= st.CarriedBytes-before.CarriedBytes {
		t.Fatalf("re-encoded %d raw bytes, carried %d: the carry should dominate",
			st.RawBytesWritten-before.RawBytesWritten, st.CarriedBytes-before.CarriedBytes)
	}
	identical := int64(0)
	for _, tb := range db.levels[1] {
		for b := range tb.lastKeys {
			if srcBlocks[string(storedBlock(tb, b))] {
				identical++
			}
		}
	}
	if identical != carried {
		t.Fatalf("%d output blocks are byte-identical to a source block, %d were carried", identical, carried)
	}
	if got := dump(t, db); !maps.Equal(got, want) {
		t.Fatalf("after the carrying compaction the store scans to %d keys, want %d", len(got), len(want))
	}

	// The same compaction over a source with a flipped payload byte in a
	// block it carried above.
	db, _ = carryFixture(t)
	src = db.levels[1][0]
	b := src.numBlocks() - 2 // the table's final block may be too short to carry
	info := src.ra.Block(b)
	src.data[info.Off+int64(info.CompLen)/2] ^= 0x20
	flipped := append([]byte{}, src.data[info.Off:info.Off+int64(info.CompLen)]...)
	l0 := db.levels[0][0]
	err := compactNow(t, db, 0, -1)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("table %d block %d", src.id, b)) {
		t.Fatalf("compaction over a corrupt carried block = %v, want ErrCorrupt naming table %d block %d", err, src.id, b)
	}
	if bytes.Contains(db.scratch.out.Bytes(), flipped) {
		t.Fatal("the corrupt block reached the output container")
	}
	if db.levels[0][0] != l0 || db.levels[1][0] != src || len(db.levels[1]) != 1 {
		t.Fatal("a failed compaction changed the levels")
	}
}

// TestTrivialMoveCodesNothing: a sequential bulk load's compactions are all
// moves. A move runs the block engine zero times, keeps its tables' ids and
// blobs, and leaves their cached blocks in the cache, where the next reads
// find them.
func TestTrivialMoveCodesNothing(t *testing.T) {
	p := NewMemPersister()
	eng := newCountingEngine(t)
	db, err := Open(tctx, "", WithPersister(p), WithEngine(eng), WithBlockSize(1<<10),
		WithMemtableBytes(1<<30), WithL0CompactionTrigger(100), WithBaseLevelBytes(1<<30),
		WithBlockCacheEntries(64))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	next := 0
	flushRun := func(n int) {
		for ; n > 0; n-- {
			mustPut(t, db, fmt.Sprintf("key-%05d", next), fmt.Sprintf("value-%05d-%040d", next, next))
			next++
		}
		if err := db.Flush(tctx); err != nil {
			t.Fatal(err)
		}
	}
	get := func(i int) {
		if v, ok, err := db.Get(tctx, []byte(fmt.Sprintf("key-%05d", i))); err != nil || !ok || !strings.HasPrefix(string(v), fmt.Sprintf("value-%05d", i)) {
			t.Fatalf("get %d = %q, %v, %v", i, v, ok, err)
		}
	}
	move := func(lvl int) {
		t.Helper()
		ids := map[int64]*sstable{}
		for _, tb := range db.levels[lvl] {
			ids[tb.id] = tb
		}
		n := len(db.levels[lvl])
		if lvl > 0 {
			n = 1
		}
		warm := cacheKeys(db)
		blobs, err := p.ListBlobs()
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(blobs)
		before, compressed, decompressed := db.Stats(), eng.compress, eng.decompress
		db.mu.Lock()
		err = db.compactLocked(tctx, lvl, n)
		db.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		st := db.Stats()
		if st.TrivialMoves != before.TrivialMoves+1 || st.Compactions != before.Compactions+1 {
			t.Fatalf("L%d compaction: %d moves of %d compactions, want one of one",
				lvl, st.TrivialMoves-before.TrivialMoves, st.Compactions-before.Compactions)
		}
		if eng.compress != compressed || eng.decompress != decompressed || st.BlocksWritten != before.BlocksWritten {
			t.Fatalf("L%d move compressed %d blocks and decoded %d", lvl, eng.compress-compressed, eng.decompress-decompressed)
		}
		if got := cacheKeys(db); !maps.Equal(got, warm) {
			t.Fatalf("L%d move changed the block cache: %d blocks → %d", lvl, len(warm), len(got))
		}
		moved := 0
		for _, tb := range db.levels[lvl+1] {
			if ids[tb.id] == tb {
				moved++
			}
		}
		if moved == 0 || moved != n {
			t.Fatalf("L%d move: %d of its %d tables reached L%d as themselves", lvl, moved, n, lvl+1)
		}
		// checkTables decodes every block, so it runs after the counts; the
		// flush commits the manifest.
		checkTables(t, db)
		if err := db.Flush(tctx); err != nil {
			t.Fatal(err)
		}
		after, err := p.ListBlobs()
		if slices.Sort(after); err != nil || !slices.Equal(after, blobs) {
			t.Fatalf("the move's commit changed the persister's blobs: %v → %v (%v)", blobs, after, err)
		}
	}

	flushRun(300)
	flushRun(300)
	get(10)
	get(450)
	move(0)
	hits := db.Stats().BlockCacheHits
	get(10)
	get(450)
	if db.Stats().BlockCacheHits != hits+2 {
		t.Fatal("reads after the move missed the blocks cached before it")
	}
	flushRun(300)
	flushRun(300)
	move(0)
	move(1)
	if c := db.TableCounts(); c[0] != 0 || c[1] != 3 || c[2] != 1 {
		t.Fatalf("table layout %v, want three at L1 and one at L2", c)
	}

	// Overlapping L0 tables are merged, not moved.
	next = 1200
	flushRun(10)
	next = 1205
	flushRun(10)
	before := db.Stats()
	if err := compactNow(t, db, 0, -1); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.TrivialMoves != before.TrivialMoves || st.BlocksWritten == before.BlocksWritten {
		t.Fatal("two overlapping L0 tables were moved")
	}

	// The automatic path: a sequential load through small memtables
	// compacts only by moves, and so decodes nothing. The load is sized to
	// overflow L1 at the ratio zstd-1 codes these records with.
	auto := testDB(t, WithBlockSize(1<<10), WithMemtableBytes(8<<10), WithL0CompactionTrigger(2),
		WithBaseLevelBytes(32<<10), WithMaxTableBytes(16<<10))
	for i := 0; i < 4000; i++ {
		mustPut(t, auto, fmt.Sprintf("key-%05d", i), fmt.Sprintf("value-%05d-%040d", i, i))
	}
	checkTables(t, auto)
	st := auto.Stats()
	if st.Compactions < 3 || st.TrivialMoves != st.Compactions || st.BlocksDecompressed != 0 || st.BlocksCarried != 0 {
		t.Fatalf("sequential load: %d compactions, %d moves, %d blocks decoded, %d carried; want only moves",
			st.Compactions, st.TrivialMoves, st.BlocksDecompressed, st.BlocksCarried)
	}
	if c := auto.TableCounts(); c[2] == 0 {
		t.Fatalf("table layout %v: nothing moved past L1", c)
	}
}

// carriedTableBlob is a table whose first block was carried from block 1 of
// realTableBlob's table, followed by one encoded entry.
func carriedTableBlob(t testing.TB) []byte {
	t.Helper()
	eng, err := codec.NewEngine("zstd", codec.WithLevel(1))
	if err != nil {
		t.Fatal(err)
	}
	src, err := openTable(7, realTableBlob(t), eng)
	if err != nil {
		t.Fatal(err)
	}
	w := newTableWriter(8, "zstd", eng, 256, nil, new(tableScratch))
	if err := w.carry(src, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.add([]byte("key-900"), []byte("value-900"), false); err != nil {
		t.Fatal(err)
	}
	tb, err := w.finish()
	if err != nil {
		t.Fatal(err)
	}
	if want := append(append([]byte{}, src.lastKeys[0]...), 0); !bytes.Equal(tb.smallest, want) || tb.numBlocks() != 2 {
		t.Fatalf("carried table: smallest %q, %d blocks; want %q and 2", tb.smallest, tb.numBlocks(), want)
	}
	return tb.blob
}

// TestOpenTableRejectsMisorderedIndex: an index whose bounds a carry could
// not trust — smallest past the first block's last key, block keys that do
// not strictly increase — is ErrCorrupt even with a valid checksum, while
// the same container under a well-ordered index opens.
func TestOpenTableRejectsMisorderedIndex(t *testing.T) {
	eng, err := codec.NewEngine("zstd", codec.WithLevel(1))
	if err != nil {
		t.Fatal(err)
	}
	good, err := openTable(7, realTableBlob(t), eng)
	if err != nil {
		t.Fatal(err)
	}
	if good.numBlocks() < 2 {
		t.Fatalf("fixture has %d blocks, want 2 or more", good.numBlocks())
	}
	reindex := func(smallest []byte, lastKeys [][]byte) []byte {
		idx := binary.AppendUvarint(nil, uint64(good.numEntries))
		idx = appendPrefixed(idx, smallest)
		idx = binary.AppendUvarint(idx, uint64(len(lastKeys)))
		for _, k := range lastKeys {
			idx = appendPrefixed(idx, k)
		}
		blob := append(append([]byte{}, good.data...), idx...)
		blob = binary.LittleEndian.AppendUint32(blob, uint32(len(idx)))
		blob = binary.LittleEndian.AppendUint64(blob, xxhash.Sum64(idx))
		return append(blob, tableMagic[:]...)
	}
	keys := func(swap func([][]byte)) [][]byte {
		ks := slices.Clone(good.lastKeys)
		swap(ks)
		return ks
	}
	if _, err := openTable(7, reindex(good.smallest, good.lastKeys), eng); err != nil {
		t.Fatalf("the well-ordered index: %v", err)
	}
	for name, blob := range map[string][]byte{
		"smallest past block 0": reindex(append(slices.Clone(good.lastKeys[0]), 0), good.lastKeys),
		"repeated block key":    reindex(good.smallest, keys(func(ks [][]byte) { ks[1] = ks[0] })),
		"swapped block keys":    reindex(good.smallest, keys(func(ks [][]byte) { ks[0], ks[1] = ks[1], ks[0] })),
	} {
		if _, err := openTable(7, blob, eng); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: open = %v, want ErrCorrupt", name, err)
		}
	}
}
