package kvstore

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/datacomp/datacomp/internal/corpus"
)

var tctx = context.Background()

func testDB(t testing.TB, opts ...Option) *DB {
	t.Helper()
	db, err := Open(tctx, "", opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestPutGetSmall(t *testing.T) {
	db := testDB(t)
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("key-%04d", i))
		v := []byte(fmt.Sprintf("value-%d", i*7))
		if err := db.Put(tctx, k, v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("key-%04d", i))
		v, ok, err := db.Get(tctx, k)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || string(v) != fmt.Sprintf("value-%d", i*7) {
			t.Fatalf("key %s: ok=%v v=%q", k, ok, v)
		}
	}
	if _, ok, _ := db.Get(tctx, []byte("absent")); ok {
		t.Fatal("phantom key")
	}
}

func TestEmptyKeyAndValue(t *testing.T) {
	db := testDB(t)
	if err := db.Put(tctx, nil, []byte("v")); err != ErrEmptyKey {
		t.Fatalf("got %v", err)
	}
	if _, _, err := db.Get(tctx, nil); err != ErrEmptyKey {
		t.Fatalf("got %v", err)
	}
	if err := db.Delete(tctx, nil); err != ErrEmptyKey {
		t.Fatalf("got %v", err)
	}
	if err := db.Put(tctx, []byte("k"), nil); err != nil {
		t.Fatal(err)
	}
	v, ok, err := db.Get(tctx, []byte("k"))
	if err != nil || !ok || len(v) != 0 {
		t.Fatalf("empty value: v=%v ok=%v err=%v", v, ok, err)
	}
}

func TestApplyBatchAtomic(t *testing.T) {
	db := testDB(t)
	var b Batch
	for i := 0; i < 64; i++ {
		b.Put([]byte(fmt.Sprintf("b-%03d", i)), []byte(fmt.Sprintf("v-%d", i)))
	}
	b.Delete([]byte("b-007"))
	if b.Len() != 65 {
		t.Fatalf("batch accounting: len=%d", b.Len())
	}
	if err := db.Apply(tctx, &b); err != nil {
		t.Fatal(err)
	}
	// One WAL record for the whole batch.
	if got := db.Stats().WALAppends; got != 1 {
		t.Fatalf("batch produced %d WAL appends, want 1", got)
	}
	if _, ok, _ := db.Get(tctx, []byte("b-007")); ok {
		t.Fatal("later delete in batch did not win over earlier put")
	}
	v, ok, err := db.Get(tctx, []byte("b-042"))
	if err != nil || !ok || string(v) != "v-42" {
		t.Fatalf("batch member lost: ok=%v err=%v", ok, err)
	}
	// An empty-key op rejects the whole batch before any state changes.
	var bad Batch
	bad.Put([]byte("good"), []byte("x"))
	bad.Put(nil, []byte("y"))
	if err := db.Apply(tctx, &bad); err != ErrEmptyKey {
		t.Fatalf("got %v, want ErrEmptyKey", err)
	}
	if _, ok, _ := db.Get(tctx, []byte("good")); ok {
		t.Fatal("rejected batch partially applied")
	}
}

func TestClosedDB(t *testing.T) {
	db := testDB(t)
	if err := db.Put(tctx, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := db.Put(tctx, []byte("k"), []byte("v")); err != ErrClosed {
		t.Fatalf("put after close: %v", err)
	}
	if _, _, err := db.Get(tctx, []byte("k")); err != ErrClosed {
		t.Fatalf("get after close: %v", err)
	}
	if err := db.Scan(tctx, func(k, v []byte) bool { return true }); err != ErrClosed {
		t.Fatalf("scan after close: %v", err)
	}
}

func TestContextCancellation(t *testing.T) {
	db := testDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := db.Put(ctx, []byte("k"), []byte("v")); err != context.Canceled {
		t.Fatalf("put on canceled ctx: %v", err)
	}
	if _, _, err := db.Get(ctx, []byte("k")); err != context.Canceled {
		t.Fatalf("get on canceled ctx: %v", err)
	}
	if _, ok, err := db.Get(tctx, []byte("k")); ok || err != nil {
		t.Fatalf("canceled put leaked state: ok=%v err=%v", ok, err)
	}
}

func TestDeleteAndTombstones(t *testing.T) {
	db := testDB(t, WithMemtableBytes(4<<10)) // force flushes
	for i := 0; i < 500; i++ {
		k := []byte(fmt.Sprintf("key-%04d", i))
		if err := db.Put(tctx, k, bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	// Delete the odd keys after they are on disk.
	for i := 1; i < 500; i += 2 {
		if err := db.Delete(tctx, []byte(fmt.Sprintf("key-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		k := []byte(fmt.Sprintf("key-%04d", i))
		_, ok, err := db.Get(tctx, k)
		if err != nil {
			t.Fatal(err)
		}
		if want := i%2 == 0; ok != want {
			t.Fatalf("key %s: ok=%v want %v", k, ok, want)
		}
	}
}

func TestOverwriteLatestWins(t *testing.T) {
	db := testDB(t, WithMemtableBytes(2<<10))
	k := []byte("hot-key")
	for gen := 0; gen < 50; gen++ {
		if err := db.Put(tctx, k, []byte(fmt.Sprintf("gen-%d", gen))); err != nil {
			t.Fatal(err)
		}
		// Interleave enough other writes to force flushes between
		// generations.
		for j := 0; j < 40; j++ {
			if err := db.Put(tctx, []byte(fmt.Sprintf("filler-%d-%d", gen, j)), bytes.Repeat([]byte{'f'}, 50)); err != nil {
				t.Fatal(err)
			}
		}
	}
	v, ok, err := db.Get(tctx, k)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if string(v) != "gen-49" {
		t.Fatalf("got %q, want newest generation", v)
	}
}

func TestFlushAndCompactionHappen(t *testing.T) {
	db := testDB(t,
		WithMemtableBytes(8<<10),
		WithMaxTableBytes(16<<10),
		WithBaseLevelBytes(32<<10),
		WithL0CompactionTrigger(2),
		WithBlockSize(4<<10),
	)
	pairs := corpus.KVPairs(1, 8000)
	for _, kv := range pairs {
		if err := db.Put(tctx, kv.Key, kv.Value); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.Flushes == 0 {
		t.Fatal("no flushes")
	}
	if st.Compactions == 0 {
		t.Fatal("no compactions")
	}
	if st.CompressTime <= 0 {
		t.Fatal("no compression time recorded")
	}
	// All keys must survive the level churn (last write wins on dup keys).
	want := map[string][]byte{}
	for _, kv := range pairs {
		want[string(kv.Key)] = kv.Value
	}
	checked := 0
	for k, v := range want {
		got, ok, err := db.Get(tctx, []byte(k))
		if err != nil {
			t.Fatal(err)
		}
		if !ok || !bytes.Equal(got, v) {
			t.Fatalf("key %q lost after compaction (ok=%v)", k, ok)
		}
		checked++
		if checked > 2000 {
			break
		}
	}
	counts := db.TableCounts()
	deeper := 0
	for _, c := range counts[1:] {
		deeper += c
	}
	if deeper == 0 {
		t.Fatalf("compaction never moved tables deeper: %v", counts)
	}
}

func TestScan(t *testing.T) {
	db := testDB(t, WithMemtableBytes(4<<10))
	want := map[string]string{}
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("key-%05d", i)
		v := fmt.Sprintf("val-%d", i)
		want[k] = v
		if err := db.Put(tctx, []byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i += 3 {
		k := fmt.Sprintf("key-%05d", i)
		delete(want, k)
		if err := db.Delete(tctx, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]string{}
	var prev []byte
	err := db.Scan(tctx, func(k, v []byte) bool {
		if prev != nil && bytes.Compare(k, prev) <= 0 {
			t.Fatalf("scan out of order: %q after %q", k, prev)
		}
		prev = append(prev[:0], k...)
		got[string(k)] = string(v)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scan saw %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %q: got %q want %q", k, got[k], v)
		}
	}
}

func TestBlockSizeAffectsRatioAndLatency(t *testing.T) {
	load := func(blockSize int) Stats {
		db := testDB(t, WithBlockSize(blockSize), WithMemtableBytes(256<<10))
		pairs := corpus.KVPairs(7, 20000)
		for _, kv := range pairs {
			if err := db.Put(tctx, kv.Key, kv.Value); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(tctx); err != nil {
			t.Fatal(err)
		}
		// Random reads to exercise block decompression (cache disabled by
		// fresh keys each time? use no-cache db instead).
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 300; i++ {
			kv := pairs[rng.Intn(len(pairs))]
			if _, _, err := db.Get(tctx, kv.Key); err != nil {
				t.Fatal(err)
			}
		}
		return db.Stats()
	}
	small := load(1 << 10)
	large := load(64 << 10)
	if large.CompressionRatio() <= small.CompressionRatio() {
		t.Errorf("larger blocks should compress better: 64K %.3f vs 1K %.3f",
			large.CompressionRatio(), small.CompressionRatio())
	}
	if small.BlocksWritten <= large.BlocksWritten {
		t.Errorf("smaller blocks should produce more blocks: %d vs %d",
			small.BlocksWritten, large.BlocksWritten)
	}
}

func TestBlockCacheHits(t *testing.T) {
	db := testDB(t, WithBlockCacheEntries(64))
	pairs := corpus.KVPairs(3, 2000)
	for _, kv := range pairs {
		if err := db.Put(tctx, kv.Key, kv.Value); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	// Repeated reads of the same key hit the decoded-block cache.
	for i := 0; i < 10; i++ {
		if _, _, err := db.Get(tctx, pairs[42].Key); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.BlockCacheHits == 0 {
		t.Fatal("no block cache hits")
	}
	if st.BlocksDecompressed == 0 {
		t.Fatal("no block decompressions recorded")
	}
}

func TestStatsRatios(t *testing.T) {
	var s Stats
	if s.WriteAmplification() != 0 || s.CompressionRatio() != 0 || s.DecompressPerBlock() != 0 {
		t.Fatal("zero stats should report zeros")
	}
}

func TestCodecOptions(t *testing.T) {
	for _, name := range []string{"zstd", "lz4", "zlib"} {
		db, err := Open(tctx, "", WithCodec(name), WithLevel(1))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 0; i < 200; i++ {
			if err := db.Put(tctx, []byte(fmt.Sprintf("k%04d", i)), bytes.Repeat([]byte("data "), 20)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(tctx); err != nil {
			t.Fatal(err)
		}
		v, ok, err := db.Get(tctx, []byte("k0100"))
		if err != nil || !ok || !bytes.Equal(v, bytes.Repeat([]byte("data "), 20)) {
			t.Fatalf("%s: ok=%v err=%v", name, ok, err)
		}
		db.Close()
	}
	if _, err := Open(tctx, "", WithCodec("bogus")); err == nil {
		t.Fatal("bogus codec accepted")
	}
	if _, err := Open(tctx, "", WithWALCodec("bogus")); err == nil {
		t.Fatal("bogus WAL codec accepted")
	}
}

func TestQuickRandomOpsMatchModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db, err := Open(tctx, "",
			WithMemtableBytes(2<<10),
			WithL0CompactionTrigger(2),
			WithBaseLevelBytes(8<<10),
			WithMaxTableBytes(8<<10),
			WithBlockSize(1<<10),
			WithSeed(seed),
		)
		if err != nil {
			return false
		}
		defer db.Close()
		model := map[string][]byte{}
		keys := make([]string, 0, 64)
		for op := 0; op < 600; op++ {
			switch rng.Intn(4) {
			case 0, 1: // put
				k := fmt.Sprintf("k%03d", rng.Intn(200))
				v := make([]byte, rng.Intn(100))
				rng.Read(v)
				if err := db.Put(tctx, []byte(k), v); err != nil {
					return false
				}
				model[k] = v
				keys = append(keys, k)
			case 2: // delete
				k := fmt.Sprintf("k%03d", rng.Intn(200))
				if err := db.Delete(tctx, []byte(k)); err != nil {
					return false
				}
				delete(model, k)
			default: // get
				k := fmt.Sprintf("k%03d", rng.Intn(200))
				v, ok, err := db.Get(tctx, []byte(k))
				if err != nil {
					return false
				}
				want, wantOK := model[k]
				if ok != wantOK {
					return false
				}
				if ok && !bytes.Equal(v, want) {
					return false
				}
			}
		}
		// Final full verification.
		for k, want := range model {
			v, ok, err := db.Get(tctx, []byte(k))
			if err != nil || !ok || !bytes.Equal(v, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPut(b *testing.B) {
	db, err := Open(tctx, "")
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	pairs := corpus.KVPairs(1, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kv := pairs[i%len(pairs)]
		if err := db.Put(tctx, kv.Key, kv.Value); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGet(b *testing.B) {
	db, err := Open(tctx, "")
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	pairs := corpus.KVPairs(1, 50000)
	for _, kv := range pairs {
		if err := db.Put(tctx, kv.Key, kv.Value); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Flush(tctx); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kv := pairs[rng.Intn(len(pairs))]
		if _, _, err := db.Get(tctx, kv.Key); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPointLookupDecodesSingleBlock pins the container integration's point:
// a Get decompresses exactly the one container block covering the key, so
// bytes decompressed per lookup track the block size rather than the table
// size — the selective-decode property the seekable container exists for.
func TestPointLookupDecodesSingleBlock(t *testing.T) {
	db := testDB(t, WithBlockSize(4<<10), WithBlockCacheEntries(-1))
	pairs := corpus.KVPairs(11, 4000)
	for _, kv := range pairs {
		if err := db.Put(tctx, kv.Key, kv.Value); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	whole := db.Stats().RawBytesWritten
	before := db.Stats()
	if v, ok, err := db.Get(tctx, pairs[1234].Key); err != nil || !ok || !bytes.Equal(v, pairs[1234].Value) {
		t.Fatalf("lookup: ok=%v err=%v", ok, err)
	}
	d := db.Stats()
	blocks := d.BlocksDecompressed - before.BlocksDecompressed
	bytesDec := d.BytesDecompressed - before.BytesDecompressed
	if blocks != 1 {
		t.Fatalf("point lookup decompressed %d blocks, want exactly 1", blocks)
	}
	// One block's worth (entries + restart array), far below the table.
	if limit := int64(8 << 10); bytesDec > limit {
		t.Fatalf("point lookup decompressed %d bytes, want ≤ %d", bytesDec, limit)
	}
	if bytesDec*4 > whole {
		t.Fatalf("lookup decoded %d of %d raw table bytes — not selective", bytesDec, whole)
	}
}
