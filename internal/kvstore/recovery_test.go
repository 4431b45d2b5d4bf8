package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/datacomp/datacomp/internal/faultinject"
	"github.com/datacomp/datacomp/internal/zstd"
)

// dump collects the DB's full live state for equivalence checks.
func dump(t testing.TB, db *DB) map[string]string {
	t.Helper()
	got := map[string]string{}
	if err := db.Scan(tctx, func(k, v []byte) bool {
		got[string(k)] = string(v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func mustPut(t testing.TB, db *DB, k, v string) {
	t.Helper()
	if err := db.Put(tctx, []byte(k), []byte(v)); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverFromWAL is the basic durability loop: write, crash without a
// clean Close, reopen on the same persister, read everything back.
func TestRecoverFromWAL(t *testing.T) {
	p := NewMemPersister()
	db, err := Open(tctx, "", WithPersister(p), WithWAL(SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("key-%04d", i)
		v := fmt.Sprintf("val-%d", i*3)
		want[k] = v
		mustPut(t, db, k, v)
	}
	for i := 0; i < 300; i += 5 {
		k := fmt.Sprintf("key-%04d", i)
		delete(want, k)
		if err := db.Delete(tctx, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: the process dies. SyncAlways means every ack is durable.
	p.Crash()

	db2, err := Open(tctx, "", WithPersister(p))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := dump(t, db2); len(got) != len(want) {
		t.Fatalf("recovered %d keys, want %d", len(got), len(want))
	} else {
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("key %q: recovered %q, want %q", k, got[k], v)
			}
		}
	}
	if db2.Seq() != db.Seq() {
		t.Fatalf("recovered seq %d, want %d", db2.Seq(), db.Seq())
	}
	if db2.Stats().ReplayedBatches == 0 {
		t.Fatal("recovery replayed no batches")
	}
}

// TestCrashAfterBatchBoundaries is the kill matrix from the issue: crash
// after zero, a partial (unsynced), and a full synced batch. Acked+synced
// writes survive; unsynced ones vanish atomically.
func TestCrashAfterBatchBoundaries(t *testing.T) {
	for _, tc := range []struct {
		name    string
		batches int // synced batches before the crash
		partial bool
	}{
		{"zero", 0, false},
		{"partial", 2, true},
		{"full", 3, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewMemPersister()
			db, err := Open(tctx, "", WithPersister(p), WithWAL(SyncOnCheckpoint))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.batches; i++ {
				var b Batch
				b.Put([]byte(fmt.Sprintf("synced-%d-a", i)), []byte("x"))
				b.Put([]byte(fmt.Sprintf("synced-%d-b", i)), []byte("y"))
				if err := db.Apply(tctx, &b); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.Sync(); err != nil {
				t.Fatal(err)
			}
			if tc.partial {
				// Acked but not synced: lost as a unit on crash.
				mustPut(t, db, "unsynced", "gone")
			}
			p.Crash()

			db2, err := Open(tctx, "", WithPersister(p))
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			got := dump(t, db2)
			if len(got) != 2*tc.batches {
				t.Fatalf("recovered %d keys, want %d", len(got), 2*tc.batches)
			}
			if _, ok := got["unsynced"]; ok {
				t.Fatal("unsynced write survived the crash")
			}
		})
	}
}

// TestTornRecordEveryOffset tears the log at every byte offset. Whatever
// the cut, recovery must land on a batch boundary: each batch is all-there
// or all-gone, and the store must reopen without error.
func TestTornRecordEveryOffset(t *testing.T) {
	// Build a reference log of batches with known boundaries.
	p := NewMemPersister()
	db, err := Open(tctx, "", WithPersister(p), WithWAL(SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	var bounds []int64 // WAL length after each batch
	const batches = 6
	for i := 0; i < batches; i++ {
		var b Batch
		b.Put([]byte(fmt.Sprintf("k-%d-1", i)), bytes.Repeat([]byte{byte(i)}, 100))
		b.Put([]byte(fmt.Sprintf("k-%d-2", i)), []byte(fmt.Sprintf("val-%d", i)))
		if err := db.Apply(tctx, &b); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, p.WALBytes())
	}
	full := p.walCopy()

	batchesAt := func(cut int64) int {
		n := 0
		for _, b := range bounds {
			if b <= cut {
				n++
			}
		}
		return n
	}
	for cut := int64(0); cut <= int64(len(full)); cut++ {
		p2 := NewMemPersister()
		if err := p2.AppendWAL(full[:cut]); err != nil {
			t.Fatal(err)
		}
		db2, err := Open(tctx, "", WithPersister(p2))
		if err != nil {
			t.Fatalf("cut=%d: open: %v", cut, err)
		}
		want := batchesAt(cut)
		got := dump(t, db2)
		if len(got) != 2*want {
			t.Fatalf("cut=%d: recovered %d keys, want %d (complete batches only)",
				cut, len(got), 2*want)
		}
		// The persister discarded the torn tail, so the store keeps working.
		if err := db2.Put(tctx, []byte("after-tear"), []byte("ok")); err != nil {
			t.Fatalf("cut=%d: put after recovery: %v", cut, err)
		}
		db2.Close()
	}
}

// TestMemPersisterChunks holds MemPersister's chunked log to the one byte
// string it stands for: a log of several chunks, one of them a record
// larger than a chunk, replays every record in order; a cut anywhere, a
// chunk's end included, keeps exactly the whole records before it; and a
// reset log refills the chunks it had without allocating.
func TestMemPersisterChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var recs [][]byte
	var bounds []int // log length after each record
	for n := 0; n < 3*walChunk; {
		size := 1 + rng.Intn(5000)
		if len(recs) == 20 {
			size = walChunk + 100
		}
		payload := make([]byte, size)
		rng.Read(payload)
		rec := appendWALRecord(nil, uint64(len(recs)+1), 0, payload)
		recs = append(recs, rec)
		n += len(rec)
		bounds = append(bounds, n)
	}
	fill := func(p *MemPersister) {
		for _, rec := range recs {
			if err := p.AppendWAL(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	replay := func(p *MemPersister) (got [][]byte) {
		if err := p.ReplayWAL(func(rec []byte) error {
			got = append(got, bytes.Clone(rec))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}

	p := NewMemPersister()
	fill(p)
	if len(p.wal) < 4 {
		t.Fatalf("%d B of log in %d chunks, want several", bounds[len(bounds)-1], len(p.wal))
	}
	cuts := []int{0, bounds[len(bounds)-1]}
	for i, b := range bounds {
		cuts = append(cuts, b-1, b, b+1)
		if i > 0 && b/walChunk != bounds[i-1]/walChunk {
			cuts = append(cuts, b/walChunk*walChunk)
		}
	}
	pos := 0
	for _, c := range p.wal {
		pos += len(c)
		cuts = append(cuts, pos-1, pos)
	}
	for _, cut := range cuts {
		cut = min(cut, bounds[len(bounds)-1])
		p.TruncateWAL(int64(cut))
		whole := 0
		for whole < len(bounds) && bounds[whole] <= cut {
			whole++
		}
		got := replay(p)
		if len(got) != whole {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, len(got), whole)
		}
		for i := range got {
			if !bytes.Equal(got[i], recs[i]) {
				t.Fatalf("cut %d: record %d differs", cut, i)
			}
		}
		want := 0
		if whole > 0 {
			want = bounds[whole-1]
		}
		if p.WALBytes() != int64(want) {
			t.Fatalf("cut %d: replay kept %d B, want the %d B of whole records", cut, p.WALBytes(), want)
		}
		p.TruncateWAL(0)
		fill(p)
	}

	if allocs := testing.AllocsPerRun(5, func() {
		if err := p.ResetWAL(); err != nil {
			t.Fatal(err)
		}
		fill(p)
	}); allocs != 0 {
		t.Fatalf("refilling a reset log allocated %.1f times", allocs)
	}
}

// TestCheckpointWALEquivalence: a store recovered from manifest + tables +
// WAL tail and one recovered from the WAL alone hold identical data, and
// checkpointing at any moment never changes the recovered contents.
func TestCheckpointWALEquivalence(t *testing.T) {
	pCkpt := NewMemPersister()
	pWAL := NewMemPersister()
	dbCkpt, err := Open(tctx, "", WithPersister(pCkpt), WithWAL(SyncAlways),
		WithMemtableBytes(4<<10))
	if err != nil {
		t.Fatal(err)
	}
	dbWAL, err := Open(tctx, "", WithPersister(pWAL), WithWAL(SyncAlways),
		WithMemtableBytes(1<<30)) // never flushes: everything stays in the log
	if err != nil {
		t.Fatal(err)
	}
	apply := func(i int) {
		k := fmt.Sprintf("key-%04d", i%200) // overwrites exercise shadowing
		v := fmt.Sprintf("val-%d", i)
		mustPut(t, dbCkpt, k, v)
		mustPut(t, dbWAL, k, v)
		if i%7 == 0 {
			d := []byte(fmt.Sprintf("key-%04d", (i*3)%200))
			if err := dbCkpt.Delete(tctx, d); err != nil {
				t.Fatal(err)
			}
			if err := dbWAL.Delete(tctx, d); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 400; i++ {
		apply(i)
		if i == 150 || i == 310 {
			if err := dbCkpt.Flush(tctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := dbCkpt.Stats().ManifestCommits; n < 2 {
		t.Fatalf("manifest commits=%d, want the two forced ones at least", n)
	}
	if n := dbWAL.Stats().ManifestCommits; n != 0 {
		t.Fatalf("the WAL-only store committed %d manifests", n)
	}
	db2, err := Open(tctx, "", WithPersister(pCkpt)) // crash both and reopen
	if err != nil {
		t.Fatal(err)
	}
	db3, err := Open(tctx, "", WithPersister(pWAL))
	if err != nil {
		t.Fatal(err)
	}
	a, b := dump(t, db2), dump(t, db3)
	if len(a) != len(b) {
		t.Fatalf("checkpoint path has %d keys, WAL path %d", len(a), len(b))
	}
	for k, v := range b {
		if a[k] != v {
			t.Fatalf("key %q: checkpoint path %q, WAL path %q", k, a[k], v)
		}
	}
	// The checkpoints bounded the replay work.
	if r1, r2 := db2.Stats().ReplayedBatches, db3.Stats().ReplayedBatches; r1 >= r2 {
		t.Fatalf("checkpointed recovery replayed %d batches, WAL-only %d", r1, r2)
	}
}

// TestStaleWALAfterManifest models the crash window between the manifest
// commit and the WAL reset: replaying batches the tables already hold must
// not double-apply or resurrect deleted keys.
func TestStaleWALAfterManifest(t *testing.T) {
	p := NewMemPersister()
	db, err := Open(tctx, "", WithPersister(p), WithWAL(SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, db, "a", "1")
	mustPut(t, db, "b", "2")
	if err := db.Delete(tctx, []byte("a")); err != nil {
		t.Fatal(err)
	}
	// Checkpoint the current state, but resurrect the pre-commit WAL — as if
	// the crash hit after the manifest was renamed in, before the reset.
	staleWAL := p.walCopy()
	if err := db.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	if p.WALBytes() != 0 {
		t.Fatalf("checkpoint left %d bytes in the WAL", p.WALBytes())
	}
	if err := p.AppendWAL(staleWAL); err != nil {
		t.Fatal(err)
	}
	p.Sync()

	db2, err := Open(tctx, "", WithPersister(p))
	if err != nil {
		t.Fatal(err)
	}
	got := dump(t, db2)
	if _, ok := got["a"]; ok {
		t.Fatal(`stale WAL resurrected deleted key "a"`)
	}
	if got["b"] != "2" {
		t.Fatalf(`key "b": got %q, want "2"`, got["b"])
	}
	if db2.Seq() != db.Seq() {
		t.Fatalf("seq %d after stale-WAL recovery, want %d", db2.Seq(), db.Seq())
	}
	if n := db2.Stats().ReplayedBatches; n != 0 {
		t.Fatalf("replayed %d batches the manifest already covers", n)
	}
}

// TestAutoCheckpoint: every memtable flush is a checkpoint, so the WAL never
// outgrows one memtable, and the result still recovers everything.
func TestAutoCheckpoint(t *testing.T) {
	p := NewMemPersister()
	db, err := Open(tctx, "", WithPersister(p), WithWAL(SyncAlways),
		WithMemtableBytes(8<<10))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		mustPut(t, db, fmt.Sprintf("key-%04d", i), fmt.Sprintf("value-%d", i))
		if n := p.WALBytes(); n > 8<<10 {
			t.Fatalf("put %d: the WAL holds %d bytes, more than a memtable", i, n)
		}
	}
	st := db.Stats()
	if st.ManifestCommits == 0 || st.ManifestCommits != st.Flushes {
		t.Fatalf("%d flushes made %d manifest commits", st.Flushes, st.ManifestCommits)
	}
	if db.WALSize() >= st.WALBytes || db.WALSize() != p.WALBytes() {
		t.Fatalf("WALSize %d, persister holds %d, %d appended in all", db.WALSize(), p.WALBytes(), st.WALBytes)
	}
	db2, err := Open(tctx, "", WithPersister(p))
	if err != nil {
		t.Fatal(err)
	}
	if got := dump(t, db2); len(got) != 500 {
		t.Fatalf("recovered %d keys, want 500", len(got))
	}
}

// TestDirPersisterRecovery runs the same loop against real files, including
// a torn tail produced by os.Truncate on wal.log.
func TestDirPersisterRecovery(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	db, err := Open(tctx, dir, WithWAL(SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		mustPut(t, db, fmt.Sprintf("key-%03d", i), fmt.Sprintf("v-%d", i))
	}
	if err := db.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	for i := 200; i < 260; i++ {
		mustPut(t, db, fmt.Sprintf("key-%03d", i), fmt.Sprintf("v-%d", i))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{manifestName, tableName(0)} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("checkpoint file: %v", err)
		}
	}

	// Clean reopen first.
	db2, err := Open(tctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := dump(t, db2); len(got) != 260 {
		t.Fatalf("recovered %d keys, want 260", len(got))
	}
	mustPut(t, db2, "post-reopen", "ok")
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the final record mid-frame with a real file truncate.
	walPath := filepath.Join(dir, walFileName)
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Fatal("test needs a non-empty WAL to tear")
	}
	if err := os.Truncate(walPath, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	db3, err := Open(tctx, dir)
	if err != nil {
		t.Fatalf("open with torn WAL tail: %v", err)
	}
	got := dump(t, db3)
	if len(got) != 260 { // the torn record held only "post-reopen"
		t.Fatalf("recovered %d keys after tear, want 260", len(got))
	}
	if _, ok := got["post-reopen"]; ok {
		t.Fatal("torn record partially applied")
	}
	// Replay truncated the file, so new writes extend a clean log.
	mustPut(t, db3, "after-tear", "ok")
	if err := db3.Close(); err != nil {
		t.Fatal(err)
	}
	db4, err := Open(tctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := dump(t, db4); got["after-tear"] != "ok" {
		t.Fatal("write after torn-tail recovery was lost")
	}
	db4.Close()
}

// TestFaultPersister: a failed WAL append or sync is a failed ack — the
// in-memory state must not advance, and the store stays consistent.
func TestFaultPersister(t *testing.T) {
	inner := NewMemPersister()
	fp := NewFaultPersister(inner)
	db, err := Open(tctx, "", WithPersister(fp), WithWAL(SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, db, "pre", "1")
	seq := db.Seq()

	fp.FailAppendsAfter(0)
	if err := db.Put(tctx, []byte("denied"), []byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("got %v, want ErrInjected", err)
	}
	if _, ok, _ := db.Get(tctx, []byte("denied")); ok {
		t.Fatal("failed append still mutated the memtable")
	}
	if db.Seq() != seq {
		t.Fatal("failed append advanced the sequence")
	}

	fp.FailAppendsAfter(-1)
	fp.FailSync(true)
	if err := db.Put(tctx, []byte("denied2"), []byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("got %v, want ErrInjected on sync", err)
	}
	if _, ok, _ := db.Get(tctx, []byte("denied2")); ok {
		t.Fatal("failed sync still mutated the memtable")
	}
	fp.FailSync(false)

	// A checkpoint whose table or manifest write fails leaves the WAL alone
	// and is retried whole by the next one.
	fp.FailBlobs(true)
	if err := db.Flush(tctx); !errors.Is(err, ErrInjected) {
		t.Fatalf("got %v, want ErrInjected on the table write", err)
	}
	if inner.WALBytes() == 0 || db.Stats().ManifestCommits != 0 {
		t.Fatal("a failed checkpoint reset the WAL or counted as a commit")
	}
	fp.FailBlobs(false)

	// After all faults clear, the store works and recovers cleanly.
	mustPut(t, db, "post", "2")
	if err := db.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	if inner.WALBytes() != 0 || db.Stats().ManifestCommits != 1 {
		t.Fatal("the retried checkpoint did not commit")
	}
	db2, err := Open(tctx, "", WithPersister(inner))
	if err != nil {
		t.Fatal(err)
	}
	got := dump(t, db2)
	if got["pre"] != "1" || got["post"] != "2" {
		t.Fatalf("recovered %v, want pre=1 and post=2", got)
	}
	// "denied" (failed append) must never reappear. "denied2" (failed
	// sync) is indeterminate — the record reached the log before the fsync
	// failed, like any commit that errors after transport — so recovery
	// may legitimately surface it.
	if _, ok := got["denied"]; ok {
		t.Fatal("failed append reappeared after recovery")
	}
}

// FuzzWALReplay feeds arbitrary bytes to recovery: Open must never panic
// and, whatever it salvages, the store must stay usable.
func FuzzWALReplay(f *testing.F) {
	// Seed with a real log and mutations of it.
	p := NewMemPersister()
	db, err := Open(tctx, "", WithPersister(p), WithWAL(SyncAlways))
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := db.Put(tctx, []byte(fmt.Sprintf("k%d", i)), bytes.Repeat([]byte("v"), i*10)); err != nil {
			f.Fatal(err)
		}
	}
	real := p.walCopy()
	f.Add(real)
	f.Add(real[:len(real)/2])
	mut := append([]byte{}, real...)
	mut[len(mut)/3] ^= 0x80
	f.Add(mut)
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x00, 0xff})
	// Each origin of a record, whole and torn: the store's own coding, a
	// kept link coding, the v1 format, and a kept coding against a WAL
	// dictionary, which every fuzzed store holds.
	wd := testWALDict(f, 1)
	if err := db.AddWALDict(wd); err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		key, value := []byte(fmt.Sprintf("o%d", i)), bytes.Repeat([]byte("origin "), 20+i)
		body := putBody(key, value)
		var err error
		switch i {
		case 0:
			err = db.Put(tctx, key, value)
		case 1:
			err = db.ApplyCoded(tctx, body, "lz4", linkCoding(f, body))
		case 2:
			err = p.AppendWAL(appendV1Record(f, nil, db.Seq()+1, body))
		case 3:
			err = db.ApplyCoded(tctx, body, "zstd", dictCoding(f, wd, body))
		}
		if err != nil {
			f.Fatal(err)
		}
		log := p.walCopy()
		f.Add(log[len(real):])
		f.Add(log[:len(log)-5])
		real = log
	}

	f.Fuzz(func(t *testing.T, wal []byte) {
		p := NewMemPersister()
		if err := p.AppendWAL(wal); err != nil {
			t.Fatal(err)
		}
		if err := p.PutBlob(walDictName(zstd.DictID(wd)), encodeDict(wd)); err != nil {
			t.Fatal(err)
		}
		db, err := Open(tctx, "", WithPersister(p))
		if err != nil {
			return // rejecting garbage is fine; panicking is not
		}
		if err := db.Put(tctx, []byte("probe"), []byte("ok")); err != nil {
			t.Fatalf("store unusable after replaying fuzz log: %v", err)
		}
		v, ok, err := db.Get(tctx, []byte("probe"))
		if err != nil || !ok || string(v) != "ok" {
			t.Fatalf("probe lost: ok=%v err=%v", ok, err)
		}
	})
}

// TestFaultInjectedWALRecovery feeds the on-disk WAL through seeded
// faultinject corruption (bit flips and truncation) and checks the replay
// invariant: with every key written exactly once, a clean-close WAL must
// recover to an exact batch prefix — db.Seq() batches, each fully applied,
// every recovered value byte-identical — and the store must stay writable.
func TestFaultInjectedWALRecovery(t *testing.T) {
	dir := t.TempDir()
	const batches = 40
	{
		p, err := NewDirPersister(dir)
		if err != nil {
			t.Fatal(err)
		}
		db, err := Open(tctx, "", WithPersister(p), WithWAL(SyncAlways))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < batches; i++ {
			mustPut(t, db, fmt.Sprintf("fi-%03d", i), fmt.Sprintf("val-%03d", i))
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	walPath := filepath.Join(dir, walFileName)
	pristine, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(name string, mutate func([]byte) []byte) {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(walPath, mutate(append([]byte{}, pristine...)), 0o644); err != nil {
				t.Fatal(err)
			}
			defer os.WriteFile(walPath, pristine, 0o644)

			p, err := NewDirPersister(dir)
			if err != nil {
				t.Fatal(err)
			}
			db, err := Open(tctx, "", WithPersister(p), WithWAL(SyncAlways))
			if err != nil {
				t.Fatalf("recovery must absorb WAL corruption, got %v", err)
			}
			defer db.Close()

			// Exact-prefix invariant: the first Seq() batches, no others.
			replayed := int(db.Seq())
			if replayed > batches {
				t.Fatalf("replayed %d batches, only %d written", replayed, batches)
			}
			got := dump(t, db)
			if len(got) != replayed {
				t.Fatalf("recovered %d keys, want exactly %d (one per replayed batch)", len(got), replayed)
			}
			for i := 0; i < replayed; i++ {
				k := fmt.Sprintf("fi-%03d", i)
				if got[k] != fmt.Sprintf("val-%03d", i) {
					t.Fatalf("batch %d: key %q = %q", i, k, got[k])
				}
			}
			mustPut(t, db, "probe", "alive")
		})
	}

	for seed := uint64(1); seed <= 5; seed++ {
		seed := seed
		corrupt(fmt.Sprintf("bitflips-seed%d", seed), func(wal []byte) []byte {
			conn := faultinject.New(bytes.NewBuffer(wal),
				faultinject.WithSeed(seed), faultinject.WithBitFlips(0.0005))
			flipped, err := io.ReadAll(conn)
			if err != nil {
				t.Fatal(err)
			}
			return flipped
		})
	}
	for _, frac := range []int{1, 3, 7} {
		frac := frac
		corrupt(fmt.Sprintf("truncate-%d8ths", frac), func(wal []byte) []byte {
			return wal[:len(wal)*frac/8]
		})
	}
}
