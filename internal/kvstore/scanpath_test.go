package kvstore

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"github.com/datacomp/datacomp/internal/codec"
)

// cacheKeys snapshots which (table, block) pairs the block cache holds.
func cacheKeys(db *DB) map[[2]int64]bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make(map[[2]int64]bool, len(db.cache.m))
	for k := range db.cache.m {
		out[k] = true
	}
	return out
}

// TestScansBypassBlockCache: Scan and compaction decode every block of their
// inputs, but neither fill the block cache nor read from it — the point-read
// working set and BlockCacheHits stay as the Gets left them. Their decodes
// are still counted. A checkpoint decodes nothing at all.
func TestScansBypassBlockCache(t *testing.T) {
	db := testDB(t, WithBlockCacheEntries(64), WithBlockSize(1<<10),
		WithMemtableBytes(1<<30), WithL0CompactionTrigger(100))
	put := func(prefix string, n int) {
		for i := 0; i < n; i++ {
			mustPut(t, db, fmt.Sprintf("%s-%04d", prefix, i), fmt.Sprintf("value-%s-%04d-%060d", prefix, i, i))
		}
		if err := db.Flush(tctx); err != nil {
			t.Fatal(err)
		}
	}
	compactL0 := func() {
		db.mu.Lock()
		defer db.mu.Unlock()
		if err := db.compactLocked(tctx, 0, len(db.levels[0])); err != nil {
			t.Fatal(err)
		}
	}
	get := func(key string) {
		if _, ok, err := db.Get(tctx, []byte(key)); err != nil || !ok {
			t.Fatalf("get %s: ok=%v err=%v", key, ok, err)
		}
	}

	// One table at L1 holding the z keys, then two L0 tables of a keys that
	// do not overlap it.
	put("z", 200)
	compactL0()
	put("a", 200)
	put("a", 200)
	if c := db.TableCounts(); c[0] != 2 || c[1] != 1 {
		t.Fatalf("table layout %v, want 2 at L0 and 1 at L1", c)
	}
	l1 := db.levels[1][0].id

	get("z-0007")
	get("z-0150")
	get("a-0100")
	get("a-0100") // cache hit
	warm := cacheKeys(db)
	before := db.Stats()
	if len(warm) < 3 || before.BlockCacheHits == 0 {
		t.Fatalf("precondition: cache holds %d blocks after %d hits", len(warm), before.BlockCacheHits)
	}

	step := func(name string, fn func()) Stats {
		t.Helper()
		prev := db.Stats()
		fn()
		st := db.Stats()
		if st.BlockCacheHits != before.BlockCacheHits {
			t.Fatalf("%s moved BlockCacheHits %d → %d", name, before.BlockCacheHits, st.BlockCacheHits)
		}
		if st.BlocksDecompressed <= prev.BlocksDecompressed || st.BytesDecompressed <= prev.BytesDecompressed {
			t.Fatalf("%s decoded blocks without counting them: %d → %d", name, prev.BlocksDecompressed, st.BlocksDecompressed)
		}
		return st
	}

	step("Scan", func() {
		n := 0
		if err := db.Scan(tctx, func(k, v []byte) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		if n != 400 {
			t.Fatalf("scan saw %d keys, want 400", n)
		}
	})
	if got := cacheKeys(db); !maps.Equal(got, warm) {
		t.Fatalf("Scan changed the block cache: %d blocks → %d", len(warm), len(got))
	}

	prev := db.Stats()
	mustPut(t, db, "m-0000", "a third L0 table")
	if err := db.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.ManifestCommits != prev.ManifestCommits+1 || st.BlocksDecompressed != prev.BlocksDecompressed {
		t.Fatalf("checkpoint: %d → %d manifest commits, %d → %d blocks decoded, want one more and no more",
			prev.ManifestCommits, st.ManifestCommits, prev.BlocksDecompressed, st.BlocksDecompressed)
	}
	if got := cacheKeys(db); !maps.Equal(got, warm) {
		t.Fatalf("checkpoint changed the block cache: %d blocks → %d", len(warm), len(got))
	}

	// Compaction drops its input tables' blocks (those tables are gone) and
	// must add nothing: what remains is exactly the untouched L1 table's.
	step("compaction", compactL0)
	want := map[[2]int64]bool{}
	for k := range warm {
		if k[0] == l1 {
			want[k] = true
		}
	}
	if got := cacheKeys(db); !maps.Equal(got, want) || len(want) == 0 {
		t.Fatalf("after compaction the cache holds %v, want only table %d's blocks %v", got, l1, want)
	}
	get("a-0100")
	get("z-0007")
}

// TestGetDoesNotAliasStore: the slice Get returns is the caller's, whether
// the value came from the memtable or from a block the cache now owns, and
// the buffers handed to Put stay the caller's too.
func TestGetDoesNotAliasStore(t *testing.T) {
	db := testDB(t, WithBlockCacheEntries(64))
	key, val := []byte("key-a"), []byte("the stored value")
	if err := db.Put(tctx, key, val); err != nil {
		t.Fatal(err)
	}
	for i := range val {
		val[i] = 'X'
	}
	copy(key, "zzz")
	key = []byte("key-a")

	scribble := func(where string) {
		t.Helper()
		for round := 0; round < 3; round++ { // round 0 may decode, later rounds hit the cache
			v, ok, err := db.Get(tctx, key)
			if err != nil || !ok || string(v) != "the stored value" {
				t.Fatalf("%s round %d: get = %q ok=%v err=%v", where, round, v, ok, err)
			}
			for i := range v {
				v[i] = '!'
			}
		}
	}
	scribble("memtable")
	if err := db.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	hits := db.Stats().BlockCacheHits
	scribble("sstable")
	if db.Stats().BlockCacheHits != hits+2 {
		t.Fatalf("sstable rounds did not go through the block cache (%d → %d hits)", hits, db.Stats().BlockCacheHits)
	}
}

// AppendGet appends exactly what Get returns to dst, and nothing on a miss
// or a tombstone, wherever the key lives: memtable, L0 or a deeper level.
// dst's own bytes are never written, even with spare capacity behind them.
func TestAppendGetContract(t *testing.T) {
	db := testDB(t, WithMemtableBytes(1<<30), WithL0CompactionTrigger(100), WithBaseLevelBytes(1<<30))
	for _, k := range []string{"deep", "deep-shadowed", "l0-shadowed"} {
		mustPut(t, db, k, "value of "+k)
	}
	mustPut(t, db, "deep-empty", "")
	if err := db.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	if err := compactNow(t, db, 0, -1); err != nil {
		t.Fatal(err)
	}
	mustPut(t, db, "l0", "value of l0")
	mustPut(t, db, "l0-shadowed", "newer value of l0-shadowed")
	if err := db.Delete(tctx, []byte("deep-shadowed")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	mustPut(t, db, "mem", "value of mem")
	if err := db.Delete(tctx, []byte("l0-shadowed")); err != nil {
		t.Fatal(err)
	}
	if c := db.TableCounts(); c[0] != 1 || c[1] != 1 {
		t.Fatalf("layout %v, want one table at L0 and one at L1", c)
	}

	prefix := []byte("reply-prefix|")
	for _, k := range []string{"mem", "l0", "deep", "deep-empty", "l0-shadowed", "deep-shadowed", "missing"} {
		want, wantOK, err := db.Get(tctx, []byte(k))
		if err != nil {
			t.Fatal(err)
		}
		for _, spare := range []int{0, 64} {
			dst := append(make([]byte, 0, len(prefix)+spare), prefix...)
			got, ok, err := db.AppendGet(tctx, dst, []byte(k))
			if err != nil || ok != wantOK {
				t.Fatalf("%s (spare %d): ok=%v err=%v, want ok=%v", k, spare, ok, err, wantOK)
			}
			if !bytes.Equal(got, append(append([]byte{}, prefix...), want...)) {
				t.Fatalf("%s (spare %d): AppendGet = %q, want %q + %q", k, spare, got, prefix, want)
			}
			if !bytes.Equal(dst, prefix) {
				t.Fatalf("%s (spare %d): dst's own bytes became %q", k, spare, dst)
			}
		}
	}
}

// TestMergeOutputPinned pins the bytes flush and compaction produce on a
// fixed seed, and that recovery reloads exactly those bytes. The scan digest
// was taken at the commit before scans stopped copying values and filling
// the block cache; the plain tables digest when compaction began carrying
// blocks and moving tables (it was 1a5971fb961345404c9e5b28 before, and
// still is with both switched off — the reuse row is the whole difference).
// The store-dictionary row is the same workload coded against the
// dictionary its first flush trains, entropy tables included: the blocks
// are 1 KiB in both rows, so the whole difference between them is the
// dictionary (the denser tables also shift which compactions run, hence a
// different carried-block count; it was dbcf9c5c7c52e9c5798da3c7 with 135
// blocks carried while the dictionary was content only). The tables and
// reuse rows were re-pinned when zstd's Fast levels began parsing like
// zstd's fast strategy (repeat-offset probe, one-step lazy match, minimum
// match 5 on blocks this small): the encoder writes fewer, longer matches,
// so the tables' bytes, and with their sizes which compactions run and
// which blocks they carry, changed; the scan row, the content, did not
// (b74f46f6131872a6576f1b10 and "125 blocks carried (124625 raw bytes)"
// with the store dictionary, 17acfa7d480c493691279b68 and "134 blocks
// carried (137844 raw bytes)" plain, before). A change here is a format,
// parse or merge-order change, not a refactor.
func TestMergeOutputPinned(t *testing.T) {
	plain, err := codec.NewEngine("zstd", codec.WithLevel(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		opts []Option
		want map[string]string
	}{
		{"store-dictionary", nil, map[string]string{
			"tables": "b31ca19f6fa46a22c64fa94e",
			"scan":   "08a4057a94131b7bee3e02a7",
			"reuse":  "135 blocks carried (137591 raw bytes), 1 trivial moves",
		}},
		{"plain-engine", []Option{WithEngine(plain)}, map[string]string{
			"tables": "09edc327a7cfc9beebb57f10",
			"scan":   "08a4057a94131b7bee3e02a7",
			"reuse":  "117 blocks carried (122456 raw bytes), 1 trivial moves",
		}},
	} {
		t.Run(c.name, func(t *testing.T) { mergeOutputPinned(t, c.opts, c.want) })
	}
}

func mergeOutputPinned(t *testing.T, opts []Option, want map[string]string) {
	p := NewMemPersister()
	open := func() *DB {
		db, err := Open(tctx, "", append([]Option{WithPersister(p), WithSeed(7), WithBlockSize(1 << 10),
			WithMemtableBytes(8 << 10), WithMaxTableBytes(32 << 10), WithL0CompactionTrigger(3),
			WithBaseLevelBytes(24 << 10)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open()
	rng := rand.New(rand.NewSource(20230425))
	words := []string{"compress", "datacenter", "zstd", "block", "warehouse", "cache", "fleet", "cycle"}
	for i := 0; i < 6000; i++ {
		key := []byte(fmt.Sprintf("user:%05d", rng.Intn(1500)))
		if rng.Intn(10) == 0 {
			if err := db.Delete(tctx, key); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var v []byte
		for n := rng.Intn(24); n > 0; n-- {
			v = append(v, words[rng.Intn(len(words))]...)
			v = append(v, byte(rng.Intn(256)))
		}
		if err := db.Put(tctx, key, v); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.Compactions < 5 || st.ManifestCommits < 2 {
		t.Fatalf("workload too small to pin anything: %d compactions, %d manifest commits", st.Compactions, st.ManifestCommits)
	}
	tables := func(db *DB) string {
		sum := sha256.New()
		for lvl, ts := range db.levels {
			for _, tb := range ts {
				fmt.Fprintf(sum, "L%d:%d:%d|", lvl, tb.numEntries, len(tb.data))
				sum.Write(tb.data)
			}
		}
		return fmt.Sprintf("%x", sum.Sum(nil)[:12])
	}
	scan := func(db *DB) string {
		sum := sha256.New()
		err := db.Scan(tctx, func(k, v []byte) bool {
			fmt.Fprintf(sum, "%d:%d|", len(k), len(v))
			sum.Write(k)
			sum.Write(v)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%x", sum.Sum(nil)[:12])
	}
	got := map[string]string{
		"tables": tables(db),
		"scan":   scan(db),
		"reuse":  fmt.Sprintf("%d blocks carried (%d raw bytes), %d trivial moves", st.BlocksCarried, st.CarriedBytes, st.TrivialMoves),
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s digest = %q, pinned %q", name, got[name], w)
		}
	}

	// The final flush puts the memtable in a table too; what reopens is what
	// closed, byte for byte, with nothing left to replay.
	if err := db.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	live := tables(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := open()
	defer db2.Close()
	if recovered := tables(db2); recovered != live {
		t.Errorf("recovered tables digest = %q, the store closed with %q", recovered, live)
	}
	if s := scan(db2); s != got["scan"] {
		t.Errorf("recovered DB scans to %s, original %s", s, got["scan"])
	}
	if st := db2.Stats(); st.ReplayedBatches != 0 || st.BlocksWritten != 0 {
		t.Errorf("recovery replayed %d batches and wrote %d blocks, want neither", st.ReplayedBatches, st.BlocksWritten)
	}
}

// The WAL's record coding time has its own counter.
func TestWALCompressTimeCounted(t *testing.T) {
	db := testDB(t)
	before := tmWALCompNS.Value()
	for i := 0; i < 50; i++ {
		mustPut(t, db, fmt.Sprintf("k%03d", i), string(bytes.Repeat([]byte("wal "), 200)))
	}
	if st := db.Stats(); st.WALCompressTime <= 0 || st.WALAppends != 50 {
		t.Fatalf("WALCompressTime = %v over %d appends", st.WALCompressTime, st.WALAppends)
	}
	if tmWALCompNS.Value() <= before {
		t.Fatal("kvstore_wal_compress_ns_total did not move")
	}
}
