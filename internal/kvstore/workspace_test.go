package kvstore

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/corpus"
)

// compactionCycles loads a store of the given block size and runs it to a
// steady flush + compaction cycle, then measures n more cycles: the
// allocations they make in total, the tables and blocks they write and the
// blobs they allocate because no free one fit.
func compactionCycles(t *testing.T, blockSize int, n int64) (allocs float64, tables, blocks, blobAllocs int64) {
	t.Helper()
	db := testDB(t, WithBlockSize(blockSize), WithMemtableBytes(32<<10), WithMaxTableBytes(64<<10),
		WithL0CompactionTrigger(2), WithBaseLevelBytes(1<<20))
	pairs := corpus.KVPairs(5, 2000)
	rng := rand.New(rand.NewSource(5))
	for _, i := range rng.Perm(len(pairs)) {
		if err := db.Put(tctx, pairs[i].Key, pairs[i].Value); err != nil {
			t.Fatal(err)
		}
	}
	// The keys are drawn ahead, so the measured loop draws none.
	draws := make([]int, 1<<16)
	for i := range draws {
		draws[i] = rng.Intn(len(pairs))
	}
	next := 0
	cycles := func(n int64) {
		for end := db.Stats().Compactions + n; db.Stats().Compactions < end; next++ {
			kv := pairs[draws[next%len(draws)]]
			if err := db.Put(tctx, kv.Key, kv.Value); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycles(6)
	st, id, blobs := db.Stats(), db.nextID, tmTableBlobAllocs.Value()
	allocs = testing.AllocsPerRun(1, func() { cycles(n) })
	after := db.Stats()
	if after.Compactions-st.Compactions != 2*n || after.TrivialMoves != st.TrivialMoves {
		t.Fatalf("workload: %d compactions, %d of them moves; want %d merges",
			after.Compactions-st.Compactions, after.TrivialMoves-st.TrivialMoves, 2*n)
	}
	// AllocsPerRun ran the cycles twice: once to warm up, once measured.
	return allocs, (db.nextID - id) / 2, (after.BlocksWritten - st.BlocksWritten) / 2, (tmTableBlobAllocs.Value() - blobs) / 2
}

// TestCompactionAllocs gates the table workspace: once warm, a flush +
// compaction cycle allocates its table blobs (free-list misses), the index
// openTable builds for each table it writes, and a small constant — the
// block buffer, key arena, Builder and merge iterators are the workspace's,
// so what a cycle allocates does not grow with the blocks it writes.
func TestCompactionAllocs(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	const cycles = 4
	// Per table: openTable's sstable, lastKeys, reader, block index and
	// codec name, the merge's source, the commit's PutBlob and DeleteBlobs
	// names — and, under the race detector, whose sync.Pool drops puts, the
	// printers fmt formats those names with. Per cycle: the merges' and
	// commits' slices and the manifests.
	const perTable, perCycle = 12, 50
	var perBlock []float64
	for _, blockSize := range []int{4 << 10, 1 << 10} {
		allocs, tables, blocks, blobs := compactionCycles(t, blockSize, cycles)
		t.Logf("%d-byte blocks: %v allocs over %d cycles writing %d tables, %d blocks, %d new blobs",
			blockSize, allocs, cycles, tables, blocks, blobs)
		if bound := float64(perTable*tables + perCycle*cycles + blobs); allocs > bound {
			t.Errorf("%d-byte blocks: %v allocs over %d cycles of %d tables and %d blocks, want at most %v",
				blockSize, allocs, cycles, tables, blocks, bound)
		}
		perBlock = append(perBlock, allocs/float64(blocks))
	}
	// Four times the blocks per table must not bring more allocations with
	// them: per block written, the count falls.
	if perBlock[1] > perBlock[0]/2 {
		t.Errorf("allocs per block written: %.3f at 4 KiB blocks, %.3f at 1 KiB; want at most half", perBlock[0], perBlock[1])
	}
}

// TestWorkspaceTablesByteIdentical: the tables a workspace writes after it
// has written others — flushes and merges, carried blocks, an oversized
// value that made it drop its buffers — are byte-identical to those a
// fresh store writes from the same input. Leaked writer state (the first
// key, the first-entry check a reused key buffer would defeat, the key
// arena, the Builder's index) or iterator state would show here.
func TestWorkspaceTablesByteIdentical(t *testing.T) {
	eng, err := codec.NewEngine("zstd", codec.WithLevel(1))
	if err != nil {
		t.Fatal(err)
	}
	opts := []Option{WithEngine(eng), WithBlockSize(1 << 10), WithMemtableBytes(16 << 10), WithMaxTableBytes(32 << 10),
		WithL0CompactionTrigger(2), WithBaseLevelBytes(64 << 10)}
	used := testDB(t, opts...)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4000; i++ {
		k := fmt.Sprintf("z-%05d", rng.Intn(3000))
		if err := used.Put(tctx, []byte(k), fmt.Appendf(nil, "value-%d-%040d", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := used.Put(tctx, []byte("z-big"), corpus.Records(4, 200<<10)); err != nil {
		t.Fatal(err)
	}
	if err := used.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	if st := used.Stats(); st.Compactions-st.TrivialMoves < 3 || st.BlocksCarried == 0 {
		t.Fatalf("warm-up: %d merges, %d carried blocks; want the workspace to have merged and carried", st.Compactions-st.TrivialMoves, st.BlocksCarried)
	}
	// The big value's block grew the writer's block buffer and the merge
	// iterator that read it back; the flush and merge it went through let
	// go of them, and of their tables.
	ws := &used.scratch
	if cap(ws.w.buf) > maxKeptBuffer {
		t.Fatalf("the workspace kept a %d-byte block buffer", cap(ws.w.buf))
	}
	for i, it := range ws.iters {
		if cap(it.buf) > maxKeptBuffer || cap(it.keys) > maxKeptBuffer || it.t != nil {
			t.Fatalf("merge iterator %d kept a %d-byte block buffer, a %d-byte key arena, or its table", i, cap(it.buf), cap(it.keys))
		}
	}
	fresh := testDB(t, opts...)

	// A flush: keys below everything the used writer saw, and a tombstone.
	flushed := func(db *DB) []byte {
		t.Helper()
		for i := 0; i < 150; i++ {
			if err := db.Put(tctx, fmt.Appendf(nil, "a-%04d", i), fmt.Appendf(nil, "flushed-%d-%020d", i, i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Delete(tctx, []byte("a-0007")); err != nil {
			t.Fatal(err)
		}
		db.mu.Lock()
		defer db.mu.Unlock()
		if n := db.mem.len(); n != 150 {
			t.Fatalf("the memtable holds %d entries, want the 150 just written", n)
		}
		out, err := db.writeTablesLocked(tctx, newMergeIterator([]entryIterator{db.mem.iterator()}, nil), math.MaxInt, false)
		if err != nil || len(out) != 1 {
			t.Fatalf("flush wrote %d tables, %v", len(out), err)
		}
		return out[0].blob
	}
	if got, want := flushed(used), flushed(fresh); !bytes.Equal(got, want) {
		t.Fatalf("a flush through a used workspace wrote %d bytes, a fresh store %d, and they differ", len(got), len(want))
	}

	// A merge of the used store's tables, carries included, written by each
	// store's workspace.
	merged := func(db *DB, tables []*sstable) [][]byte {
		t.Helper()
		db.mu.Lock()
		defer db.mu.Unlock()
		out, err := db.mergeTablesLocked(tctx, tables, numLevels-1)
		if err != nil {
			t.Fatal(err)
		}
		blobs := make([][]byte, len(out))
		for i, tb := range out {
			blobs[i] = tb.blob
		}
		return blobs
	}
	var inputs []*sstable
	for _, tables := range used.levels {
		inputs = append(inputs, tables...)
	}
	carried := used.Stats().BlocksCarried
	got := merged(used, inputs)
	if used.Stats().BlocksCarried == carried {
		t.Fatal("the merge carried no block")
	}
	want := merged(fresh, inputs)
	if len(got) != len(want) {
		t.Fatalf("the used workspace wrote %d tables, a fresh one %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("merged table %d: %d bytes from the used workspace, %d from a fresh one, and they differ", i, len(got[i]), len(want[i]))
		}
	}
}
