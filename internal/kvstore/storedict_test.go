package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/corpus"
	"github.com/datacomp/datacomp/internal/dict"
	"github.com/datacomp/datacomp/internal/xxhash"
	"github.com/datacomp/datacomp/internal/zstd"
)

// blobLog records the names of the blobs a store puts, in order.
type blobLog struct {
	Persister
	puts []string
}

func (p *blobLog) PutBlob(name string, data []byte) error {
	p.puts = append(p.puts, name)
	return p.Persister.PutBlob(name, data)
}

// dictOpts is a store that flushes every ≈ 64 KiB and compacts often.
func dictOpts(p Persister, extra ...Option) []Option {
	return append([]Option{WithPersister(p), WithSeed(5), WithMemtableBytes(64 << 10),
		WithMaxTableBytes(128 << 10), WithBaseLevelBytes(256 << 10)}, extra...)
}

// loadPairs puts KV corpus pairs [from, to) and returns what they amount to.
func loadPairs(t *testing.T, db *DB, from, to int) map[string]string {
	t.Helper()
	want := map[string]string{}
	for _, kv := range corpus.KVPairs(11, to)[from:] {
		mustPut(t, db, string(kv.Key), string(kv.Value))
		want[string(kv.Key)] = string(kv.Value)
	}
	return want
}

func storedManifest(t *testing.T, p Persister) manifest {
	t.Helper()
	raw, err := p.GetBlob(manifestName)
	if err != nil {
		t.Fatal(err)
	}
	m, err := decodeManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestStoreDictLifecycle: the first flush trains the store dictionary; the
// first commit persists it before any table and the manifest names it;
// every table is coded against it; a reopen loads the same one and never
// trains or persists another.
func TestStoreDictLifecycle(t *testing.T) {
	p := &blobLog{Persister: NewMemPersister()}
	db, err := Open(tctx, "", dictOpts(p)...)
	if err != nil {
		t.Fatal(err)
	}
	want := loadPairs(t, db, 0, 4000)
	st := db.Stats()
	if st.Flushes < 2 || st.Compactions == 0 {
		t.Fatalf("precondition: %d flushes, %d compactions", st.Flushes, st.Compactions)
	}
	// The content's bound plus its entropy tables, a few hundred bytes.
	if db.dict == nil || len(db.dict) > dictBytes+512 || db.dictID != zstd.DictID(db.dict) {
		t.Fatalf("after the first flush: dictionary of %d bytes, id %08x", len(db.dict), db.dictID)
	}
	if p.puts[0] != dictName || countOf(p.puts, dictName) != 1 {
		t.Fatalf("blob puts %v: want %s first, and once", p.puts[:min(len(p.puts), 4)], dictName)
	}
	if m := storedManifest(t, p); m.dictID != db.dictID {
		t.Fatalf("manifest names dictionary %08x, the store uses %08x", m.dictID, db.dictID)
	}
	for _, tables := range db.levels {
		for _, tb := range tables {
			frame, _, err := tb.ra.ReadFrame(0)
			if err != nil {
				t.Fatal(err)
			}
			if id, required, err := zstd.FrameDictID(frame); err != nil || !required || id != db.dictID {
				t.Fatalf("table %d block 0: dictionary %08x (required=%v, %v), want %08x", tb.id, id, required, err, db.dictID)
			}
			if string(frame[:4]) != "ZSX3" {
				t.Fatalf("table %d block 0: frame %q, want one coded against the dictionary's tables", tb.id, frame[:4])
			}
		}
	}
	id := db.dictID
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	p.puts = nil
	db, err = Open(tctx, "", dictOpts(p)...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.dictID != id || !db.dictPersisted {
		t.Fatalf("reopened with dictionary %08x (persisted=%v), closed with %08x", db.dictID, db.dictPersisted, id)
	}
	maps.Copy(want, loadPairs(t, db, 4000, 6000))
	if err := db.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	if db.dictID != id || countOf(p.puts, dictName) != 0 {
		t.Fatalf("after reopen and more flushes: dictionary %08x (was %08x), %d dictionary puts", db.dictID, id, countOf(p.puts, dictName))
	}
	if got := dump(t, db); !maps.Equal(got, want) {
		t.Fatalf("reopened store holds %d keys, want %d", len(got), len(want))
	}
	checkNoOrphans(t, "after reopen", db, p)
}

// countOf counts name in names.
func countOf(names []string, name string) int {
	n := 0
	for _, s := range names {
		if s == name {
			n++
		}
	}
	return n
}

// TestStoreDictNeverTrained: a store given its engine, or whose first flush
// holds too little to train on, is dictless for life, and its manifest says
// so.
func TestStoreDictNeverTrained(t *testing.T) {
	plain, err := codec.NewEngine("zstd", codec.WithLevel(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		opts  []Option
		first map[string]string // flushed alone before the corpus
	}{
		{"with-engine", []Option{WithEngine(plain)}, nil},
		{"tiny-first-flush", nil, map[string]string{"k": "v"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := NewMemPersister()
			db, err := Open(tctx, "", dictOpts(p, c.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			for k, v := range c.first {
				mustPut(t, db, k, v)
			}
			if err := db.Flush(tctx); err != nil {
				t.Fatal(err)
			}
			want := loadPairs(t, db, 0, 3000)
			maps.Copy(want, c.first)
			if db.Stats().Flushes < 2 || db.dict != nil {
				t.Fatalf("%d flushes, dictionary of %d bytes; want several and none", db.Stats().Flushes, len(db.dict))
			}
			if m := storedManifest(t, p); m.dictID != 0 {
				t.Fatalf("manifest names dictionary %08x", m.dictID)
			}
			checkNoOrphans(t, "dictless", db, p)
			if got := dump(t, db); !maps.Equal(got, want) {
				t.Fatalf("store holds %d keys, want %d", len(got), len(want))
			}
		})
	}
}

// encodeManifestV1 is the manifest as the format before the store
// dictionary wrote it.
func encodeManifestV1(m manifest) []byte {
	b := append([]byte{}, manifestMagicV1[:]...)
	b = binary.AppendUvarint(b, m.seq)
	b = binary.AppendUvarint(b, uint64(m.nextID))
	for _, ids := range m.levels {
		b = binary.AppendUvarint(b, uint64(len(ids)))
		for _, id := range ids {
			b = binary.AppendUvarint(b, uint64(id))
		}
	}
	return binary.LittleEndian.AppendUint64(b, xxhash.Sum64(b))
}

// TestStoreDictKVM1Manifest: a store last committed with a "KVM1" manifest —
// plain zstd tables, no dictionary — reopens with its own engine and stays
// dictless, and its next commit writes the current format.
func TestStoreDictKVM1Manifest(t *testing.T) {
	plain, err := codec.NewEngine("zstd", codec.WithLevel(1))
	if err != nil {
		t.Fatal(err)
	}
	p := NewMemPersister()
	db, err := Open(tctx, "", dictOpts(p, WithEngine(plain))...)
	if err != nil {
		t.Fatal(err)
	}
	want := loadPairs(t, db, 0, 2000)
	if err := db.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.PutBlob(manifestName, encodeManifestV1(storedManifest(t, p))); err != nil {
		t.Fatal(err)
	}

	db, err = Open(tctx, "", dictOpts(p)...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	maps.Copy(want, loadPairs(t, db, 2000, 4000))
	if err := db.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	if db.dict != nil {
		t.Fatalf("a store reopened from a KVM1 manifest trained dictionary %08x", db.dictID)
	}
	if raw, _ := p.GetBlob(manifestName); [4]byte(raw[:4]) != manifestMagic {
		t.Fatalf("the next commit wrote manifest magic %q", raw[:4])
	}
	if got := dump(t, db); !maps.Equal(got, want) {
		t.Fatalf("store holds %d keys, want %d", len(got), len(want))
	}
}

// TestStoreDictRecoveryChecks: a manifest that names a dictionary the store
// cannot produce intact — missing, failing its checksum, or hashing to
// another id — is ErrCorrupt at Open, before any table is opened; and an
// engine given WithEngine cannot take over a dictionary store.
func TestStoreDictRecoveryChecks(t *testing.T) {
	p := NewMemPersister()
	db, err := Open(tctx, "", dictOpts(p)...)
	if err != nil {
		t.Fatal(err)
	}
	loadPairs(t, db, 0, 2000)
	if err := db.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	if db.dict == nil {
		t.Fatal("precondition: no dictionary trained")
	}
	good := encodeDict(db.dict)
	other := encodeDict(append([]byte("another dictionary "), db.dict...))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	flipped := append([]byte{}, good...)
	flipped[len(flipped)/2] ^= 0x20
	for _, c := range []struct {
		name string
		blob []byte // nil: no store.dict at all
	}{
		{"missing", nil},
		{"corrupt", flipped},
		{"truncated", good[:len(good)-1]},
		{"mismatched", other},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.blob == nil {
				if err := p.DeleteBlobs(dictName); err != nil {
					t.Fatal(err)
				}
			} else if err := p.PutBlob(dictName, c.blob); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(tctx, "", dictOpts(p)...); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("open = %v, want ErrCorrupt", err)
			}
		})
	}

	if err := p.PutBlob(dictName, good); err != nil {
		t.Fatal(err)
	}
	plain, err := codec.NewEngine("zstd", codec.WithLevel(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(tctx, "", dictOpts(p, WithEngine(plain))...); err == nil {
		t.Fatal("an engine given WithEngine opened a dictionary store")
	}
	db, err = Open(tctx, "", dictOpts(p)...)
	if err != nil {
		t.Fatalf("the intact dictionary restored: open = %v", err)
	}
	db.Close()
}

// TestStoreDictParentStore: a store written before the store dictionary
// carried entropy tables (testdata/parent_store: 1 200 KV corpus pairs,
// three flushes, a content-only store.dict) reopens, serves every key, and
// keeps coding against the dictionary it has — compaction carries blocks
// between tables only when one dictionary codes them all — so further
// flushes neither retrain nor rewrite it, and write version 2 frames.
func TestStoreDictParentStore(t *testing.T) {
	dir := t.TempDir()
	files, err := os.ReadDir("testdata/parent_store")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join("testdata/parent_store", f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before, err := os.ReadFile(filepath.Join(dir, dictName))
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(tctx, dir, WithSeed(5), WithMemtableBytes(64<<10), WithMaxTableBytes(128<<10), WithBaseLevelBytes(256<<10))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, kv := range corpus.KVPairs(11, 1200) {
		want[string(kv.Key)] = string(kv.Value)
	}
	if got := dump(t, db); !maps.Equal(got, want) {
		t.Fatalf("the parent store serves %d keys, want %d", len(got), len(want))
	}
	id := db.dictID
	maps.Copy(want, loadPairs(t, db, 1200, 3000))
	if err := db.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.Flushes < 2 || db.dictID != id {
		t.Fatalf("%d flushes; dictionary %08x, the parent's %08x", st.Flushes, db.dictID, id)
	}
	for _, tables := range db.levels {
		for _, tb := range tables {
			frame, _, err := tb.ra.ReadFrame(tb.numBlocks() - 1)
			if err != nil {
				t.Fatal(err)
			}
			if got, _, _ := zstd.FrameDictID(frame); got != id || string(frame[:4]) != "ZSX2" {
				t.Fatalf("table %d: frame %q against dictionary %08x, want ZSX2 against %08x", tb.id, frame[:4], got, id)
			}
		}
	}
	if got := dump(t, db); !maps.Equal(got, want) {
		t.Fatalf("store holds %d keys, want %d", len(got), len(want))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if after, err := os.ReadFile(filepath.Join(dir, dictName)); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("%s rewritten (%v)", dictName, err)
	}
}

// servingMemtable fills a memtable with n records shaped as the serving
// benchmark's cluster stores them: "user:%08d" keys, and values of a
// 17-byte record header before a size-byte window of the kind's corpus
// whose first 16 bytes are a hex stamp.
func servingMemtable(kind string, seed int64, n, size int) *memtable {
	var pool []byte
	switch kind {
	case "cache":
		types := corpus.DefaultItemTypes()
		for i := 0; len(pool) < 256*size; i++ {
			for _, it := range corpus.CacheItems(seed+int64(i), types[i%len(types)], 512) {
				pool = append(pool, it...)
			}
		}
	default:
		pool = append(corpus.Records(seed, 128*size), corpus.LogLines(seed, 128*size)...)
	}
	m := newMemtable(seed)
	x := uint64(seed)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		v := binary.LittleEndian.AppendUint64(nil, x)
		v = append(v, 0x01)
		v = binary.LittleEndian.AppendUint64(v, x*31)
		off := int(x>>33) % (len(pool)/size - 1) * size
		v = append(v, pool[off:off+size]...)
		v = fmt.Appendf(v[:17], "%016x", x)[:17+size]
		m.set(fmt.Appendf(nil, "user:%08d", int(x>>40)), v, false)
	}
	return m
}

// TestStoreDictTablesNeverWorse: over serving-shaped blocks — records and
// logs, and cache items — a block coded against the store dictionary is
// never longer with its tables than with its content alone, on the blocks
// of the memtable the tables were trained on and on those of the next one.
func TestStoreDictTablesNeverWorse(t *testing.T) {
	for _, c := range []struct {
		kind string
		size int
	}{{"records", 2 << 10}, {"cache", 1 << 10}} {
		t.Run(c.kind, func(t *testing.T) {
			db, err := Open(tctx, "", WithoutWAL())
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			db.mu.Lock()
			defer db.mu.Unlock()
			db.mem = servingMemtable(c.kind, 1, (1<<20)/c.size, c.size)
			if err := db.trainDictLocked(); err != nil || db.dict == nil {
				t.Fatalf("no dictionary trained (%v)", err)
			}
			content, err := dict.Train(db.mem.sampleValues(dictSampleBytes), dict.DefaultParams(dictBytes))
			if err != nil {
				t.Fatal(err)
			}
			blocks, err := db.rawBlocksLocked(db.mem)
			if err != nil {
				t.Fatal(err)
			}
			next, err := db.rawBlocksLocked(servingMemtable(c.kind, 2, (1<<20)/c.size, c.size))
			if err != nil {
				t.Fatal(err)
			}
			blocks = append(blocks, next...)
			plain, err := codec.NewEngine("zstd", codec.WithLevel(1), codec.WithDict(content))
			if err != nil {
				t.Fatal(err)
			}
			var sum [2]int
			for i, b := range blocks {
				withTables, err := db.eng.Compress(nil, b)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := plain.Compress(nil, b)
				if err != nil {
					t.Fatal(err)
				}
				if len(withTables) > len(ref) {
					t.Fatalf("block %d of %d (%d bytes): %d with the tables, %d with the content alone", i, len(blocks), len(b), len(withTables), len(ref))
				}
				sum[0], sum[1] = sum[0]+len(withTables), sum[1]+len(ref)
			}
			t.Logf("%d blocks: %d bytes with the tables, %d with the content alone (%.2f%% less)",
				len(blocks), sum[0], sum[1], 100*(1-float64(sum[0])/float64(sum[1])))
		})
	}
}

// TestSampleValues: the training sample is bounded and spread over the
// whole memtable in key order, not taken from its first keys.
func TestSampleValues(t *testing.T) {
	m := newMemtable(1)
	total := 0
	for _, kv := range corpus.KVPairs(3, 3000) {
		m.set(kv.Key, kv.Value, false)
		total += len(kv.Value)
	}
	m.set([]byte("zz-tombstone"), nil, true)
	var order []*byte // each value's first byte, in key order
	for it := m.iterator(); it.valid(); it.next() {
		if !it.tombstone() {
			order = append(order, &it.value()[0])
		}
	}
	for _, limit := range []int{1 << 10, 16 << 10, total, 2 * total} {
		sample := m.sampleValues(limit)
		got := 0
		for _, v := range sample {
			got += len(v)
		}
		if got > limit || got < min(limit, total)*3/4 {
			t.Fatalf("limit %d: sampled %d bytes of %d", limit, got, total)
		}
		first, last := slices.Index(order, &sample[0][0]), slices.Index(order, &sample[len(sample)-1][0])
		if first != 0 || last < len(order)/2 {
			t.Fatalf("limit %d: the sample spans values %d..%d of %d", limit, first, last, len(order))
		}
	}
}
