package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/xxhash"
)

// crashPersister fails the k-th mutating call and every call after it: the
// machine died there. With applyThenFail the k-th call takes effect before
// it reports failure — the crash landed after the write reached the medium
// but before the caller heard. Between them the two modes visit every
// crash point of a protocol built from atomic persister calls.
type crashPersister struct {
	Persister
	left          int // mutating calls still allowed; <0 never crashes
	applyThenFail bool
	calls         int
	crashed       bool
}

var errCrashed = errors.New("crashPersister: machine is down")

func (p *crashPersister) mutate(do func() error) error {
	if p.crashed {
		return errCrashed
	}
	p.calls++
	if p.left == 0 {
		p.crashed = true
		if p.applyThenFail {
			if err := do(); err != nil {
				return err
			}
		}
		return errCrashed
	}
	p.left--
	return do()
}

func (p *crashPersister) AppendWAL(rec []byte) error {
	return p.mutate(func() error { return p.Persister.AppendWAL(rec) })
}
func (p *crashPersister) Sync() error     { return p.mutate(p.Persister.Sync) }
func (p *crashPersister) ResetWAL() error { return p.mutate(p.Persister.ResetWAL) }
func (p *crashPersister) PutBlob(name string, data []byte) error {
	return p.mutate(func() error { return p.Persister.PutBlob(name, data) })
}

// DeleteBlobs is one crash point per blob: a directory loses files one at
// a time, whoever asked for the lot.
func (p *crashPersister) DeleteBlobs(names ...string) error {
	for _, name := range names {
		if err := p.mutate(func() error { return p.Persister.DeleteBlobs(name) }); err != nil {
			return err
		}
	}
	return nil
}

// crashOpts is a store small enough that a few hundred ops flush, compact
// into L1 and L2, and delete compaction inputs many times over.
func crashOpts(p Persister) []Option {
	return []Option{WithPersister(p), WithWAL(SyncAlways), WithSeed(3), WithBlockSize(256),
		WithMemtableBytes(1 << 10), WithMaxTableBytes(2 << 10), WithL0CompactionTrigger(2),
		WithBaseLevelBytes(1 << 10)}
}

// checkNoOrphans: the persister holds exactly the tables the DB's levels
// name, plus the manifest, plus the store dictionary when the DB has one,
// plus its WAL dictionaries.
func checkNoOrphans(t *testing.T, what string, db *DB, p Persister) {
	t.Helper()
	names, err := p.ListBlobs()
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, tables := range db.levels {
		for _, tb := range tables {
			want = append(want, tableName(tb.id))
		}
	}
	if len(want) > 0 {
		want = append(want, manifestName)
	}
	if db.dict != nil {
		want = append(want, dictName)
	}
	for id := range db.walDicts {
		want = append(want, walDictName(id))
	}
	slices.Sort(names)
	slices.Sort(want)
	if !slices.Equal(names, want) {
		t.Fatalf("%s: persister holds %v, the store's levels name %v", what, names, want)
	}
}

// crashSchedule picks the key and the op (r < 1 flush, r < 5 delete, else
// put) of step i of a crash-matrix workload, drawing from the run's rng.
type crashSchedule func(i int) (key string, r int)

// uniformSchedule draws keys uniformly from 60: every compaction merges.
func uniformSchedule(rng *rand.Rand) crashSchedule {
	return func(int) (string, int) {
		return fmt.Sprintf("k%02d", rng.Intn(60)), rng.Intn(20)
	}
}

// bulkThenZipfSchedule loads 100 keys in order — its compactions are
// trivial moves — then overwrites and deletes them with a zipfian skew, so
// merges find blocks of the cold keys nothing touched and carry them.
func bulkThenZipfSchedule(rng *rand.Rand) crashSchedule {
	const bulk = 100
	zipf := rand.NewZipf(rng, 1.2, 1, bulk-1)
	return func(i int) (string, int) {
		if i < bulk {
			return fmt.Sprintf("k%03d", i), 5
		}
		return fmt.Sprintf("k%03d", zipf.Uint64()), rng.Intn(20)
	}
}

// TestCrashPointMatrix runs seeded put/delete/flush workloads — small
// enough tables that they compact constantly, by merges that carry blocks
// and by trivial moves, all coded against the store dictionary the first
// flush trains — and crashes each at every mutating persister call, in both
// modes: before and after the dictionary's PutBlob among them. Whatever the
// crash point, the reopened store decodes every table, holds every
// acknowledged write, resurrects no deleted key and leaves no table or
// dictionary the manifest does not name. The one op in flight at the crash
// may have landed or not.
func TestCrashPointMatrix(t *testing.T) {
	for _, sc := range []struct {
		name     string
		ops      int
		schedule func(*rand.Rand) crashSchedule
		reuse    bool // the uncrashed run must carry blocks and move tables
	}{
		{"uniform", 150, uniformSchedule, false},
		{"bulk-then-zipf", 220, bulkThenZipfSchedule, true},
	} {
		t.Run(sc.name, func(t *testing.T) { crashPointMatrix(t, sc.ops, sc.schedule, sc.reuse) })
	}
}

func crashPointMatrix(t *testing.T, ops int, schedule func(*rand.Rand) crashSchedule, reuse bool) {
	trained := 0 // seeds whose first flush trained a dictionary; the others take the dictless path
	for seed := int64(1); seed <= 2; seed++ {
		// run drives the workload until the persister crashes and reports
		// the acknowledged state plus the key in flight with its two
		// legal outcomes.
		type outcome struct {
			acked    map[string]string
			inflight string
			old, new *string
			stats    Stats
			dictID   uint32
		}
		run := func(cp *crashPersister) (out outcome) {
			out.acked = map[string]string{}
			db, err := Open(tctx, "", crashOpts(cp)...)
			if err != nil {
				t.Fatalf("seed %d: open of an empty store: %v", seed, err)
			}
			defer func() { out.stats, out.dictID = db.Stats(), db.dictID }()
			rng := rand.New(rand.NewSource(seed))
			step := schedule(rng)
			for i := 0; i < ops; i++ {
				key, r := step(i)
				var err error
				var next *string
				switch {
				case r == 0:
					key = ""
					err = db.Flush(tctx)
				case r < 5:
					err = db.Delete(tctx, []byte(key))
				default:
					v := fmt.Sprintf("%d-%s", i, strings.Repeat("v", rng.Intn(120)))
					next = &v
					err = db.Put(tctx, []byte(key), []byte(v))
				}
				if err != nil {
					if !errors.Is(err, errCrashed) {
						t.Fatalf("seed %d op %d: %v", seed, i, err)
					}
					if key != "" {
						out.inflight, out.new = key, next
						if v, ok := out.acked[key]; ok {
							out.old = &v
						}
					}
					return out
				}
				if key == "" {
					continue
				}
				if next == nil {
					delete(out.acked, key)
				} else {
					out.acked[key] = *next
				}
			}
			return out
		}

		// Uncrashed: how many mutating calls there are to crash at.
		probe := &crashPersister{Persister: NewMemPersister(), left: -1}
		uncrashed := run(probe)
		st := uncrashed.stats
		if probe.calls < 2*ops {
			t.Fatalf("seed %d: only %d mutating calls", seed, probe.calls)
		}
		if uncrashed.dictID != 0 {
			trained++
		}
		t.Logf("seed %d: %d crash points; dictionary %08x; %d compactions, %d of them moves, %d blocks carried",
			seed, probe.calls, uncrashed.dictID, st.Compactions, st.TrivialMoves, st.BlocksCarried)
		if reuse && (st.BlocksCarried == 0 || st.TrivialMoves == 0) {
			t.Fatalf("seed %d: the workload carried %d blocks and moved %d times; the matrix must cover both",
				seed, st.BlocksCarried, st.TrivialMoves)
		}
		var sawCompaction bool
		for k := 0; k < probe.calls; k++ {
			for _, applyThenFail := range []bool{false, true} {
				what := fmt.Sprintf("seed %d, crash at call %d (applied=%v)", seed, k, applyThenFail)
				inner := NewMemPersister()
				out := run(&crashPersister{Persister: inner, left: k, applyThenFail: applyThenFail})
				inner.Crash()

				db, err := Open(tctx, "", crashOpts(inner)...)
				if err != nil {
					t.Fatalf("%s: reopen: %v", what, err)
				}
				got := dump(t, db)
				for key, v := range got {
					if key == out.inflight && ((out.new != nil && v == *out.new) || (out.old != nil && v == *out.old)) {
						continue
					}
					if want, ok := out.acked[key]; !ok {
						t.Fatalf("%s: key %s = %q is back from the dead", what, key, v)
					} else if v != want {
						t.Fatalf("%s: key %s = %q, acknowledged %q", what, key, v, want)
					}
				}
				for key, want := range out.acked {
					if _, ok := got[key]; !ok && !(key == out.inflight && out.new == nil) {
						t.Fatalf("%s: acknowledged key %s = %q is gone", what, key, want)
					}
				}
				checkNoOrphans(t, what, db, inner)
				sawCompaction = sawCompaction || len(db.levels[2]) > 0
				// The recovered store takes writes and checkpoints again.
				mustPut(t, db, "after", "crash")
				if err := db.Flush(tctx); err != nil {
					t.Fatalf("%s: flush after recovery: %v", what, err)
				}
				checkNoOrphans(t, what+", after a flush", db, inner)
				db.Close()
			}
		}
		if !sawCompaction {
			t.Fatalf("seed %d: the workload never compacted into L2", seed)
		}
	}
	if trained == 0 {
		t.Fatal("no seed trained a store dictionary; the matrix must cover its commit")
	}
}

// longWAL fills p's log with several memtables' worth of batches (as
// measured by crashOpts' 1 KiB memtable) without ever flushing, and returns
// what they amount to.
func longWAL(t *testing.T, p Persister) map[string]string {
	t.Helper()
	db, err := Open(tctx, "", WithPersister(p), WithWAL(SyncAlways), WithMemtableBytes(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for i := 0; i < 300; i++ {
		k, v := fmt.Sprintf("key-%03d", i%120), fmt.Sprintf("val-%d-%s", i, strings.Repeat("x", i%90))
		mustPut(t, db, k, v)
		want[k] = v
		if i%9 == 0 {
			d := fmt.Sprintf("key-%03d", (i*5)%120)
			if err := db.Delete(tctx, []byte(d)); err != nil {
				t.Fatal(err)
			}
			delete(want, d)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestRecoverLongWAL: replaying a log several memtables long flushes on the
// way, from inside the persister's replay callback. Those flushes touch no
// persister (it is holding its lock and walking the log a commit would
// reset); the tables and one manifest are written after the walk, the WAL
// ends empty, and the next open has nothing to replay.
func TestRecoverLongWAL(t *testing.T) {
	for _, medium := range []string{"mem", "dir"} {
		t.Run(medium, func(t *testing.T) {
			newPersister := func() Persister { return NewMemPersister() }
			if medium == "dir" {
				dir := t.TempDir()
				newPersister = func() Persister {
					p, err := NewDirPersister(dir)
					if err != nil {
						t.Fatal(err)
					}
					return p
				}
			}
			p := newPersister()
			want := longWAL(t, p)
			if medium == "dir" {
				p = newPersister() // longWAL closed the file
			}
			db, err := Open(tctx, "", crashOpts(p)...)
			if err != nil {
				t.Fatal(err)
			}
			st := db.Stats()
			if st.Flushes < 3 || st.ManifestCommits != 1 {
				t.Fatalf("replay made %d flushes and %d manifest commits, want several and one", st.Flushes, st.ManifestCommits)
			}
			if db.WALSize() != 0 || db.mem.len() != 0 {
				t.Fatalf("after recovery the WAL holds %d bytes and the memtable %d keys", db.WALSize(), db.mem.len())
			}
			if got := dump(t, db); !maps.Equal(got, want) {
				t.Fatalf("recovered %d keys, want %d", len(got), len(want))
			}
			checkNoOrphans(t, "after recovery", db, p)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if medium == "dir" {
				p = newPersister()
			}
			db2, err := Open(tctx, "", crashOpts(p)...)
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			if st := db2.Stats(); st.ReplayedBatches != 0 || st.Flushes != 0 {
				t.Fatalf("second open replayed %d batches and flushed %d times", st.ReplayedBatches, st.Flushes)
			}
			if got := dump(t, db2); !maps.Equal(got, want) {
				t.Fatalf("second open holds %d keys, want %d", len(got), len(want))
			}
		})
	}
}

// TestCrashDuringRecovery crashes that same long-WAL recovery at each of its
// own persister writes; the open after that still finds everything.
func TestCrashDuringRecovery(t *testing.T) {
	for k := 0; ; k++ {
		for _, applyThenFail := range []bool{false, true} {
			inner := NewMemPersister()
			want := longWAL(t, inner)
			cp := &crashPersister{Persister: inner, left: k, applyThenFail: applyThenFail}
			db, err := Open(tctx, "", crashOpts(cp)...)
			if err == nil {
				db.Close()
				if k == 0 {
					t.Fatal("recovery of a long WAL wrote nothing")
				}
				return // k is past recovery's last write
			}
			if !errors.Is(err, errCrashed) {
				t.Fatalf("crash at call %d: open: %v", k, err)
			}
			inner.Crash()
			db, err = Open(tctx, "", crashOpts(inner)...)
			if err != nil {
				t.Fatalf("crash at call %d (applied=%v): reopen: %v", k, applyThenFail, err)
			}
			if got := dump(t, db); !maps.Equal(got, want) {
				t.Fatalf("crash at call %d (applied=%v): recovered %d keys, want %d", k, applyThenFail, len(got), len(want))
			}
			checkNoOrphans(t, fmt.Sprintf("crash at call %d (applied=%v)", k, applyThenFail), db, inner)
			db.Close()
		}
	}
}

// TestDirPersisterSweepsOrphans: a table file the manifest does not name and
// a temp file from a torn PutBlob are gone after Open; the manifest's own
// tables are not. The directory's name is taken literally: glob characters
// in it reach no sibling directory.
func TestDirPersisterSweepsOrphans(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "a[b]")
	bystander := filepath.Join(root, "ab", "keep"+tmpSuffix)
	if err := os.Mkdir(filepath.Dir(bystander), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bystander, []byte("someone else's"), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(tctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, db, "k", "v")
	if err := db.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{tableName(41), manifestName + tmpSuffix} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("left behind by a crash"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db, err = Open(tctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := dump(t, db); got["k"] != "v" {
		t.Fatalf("recovered %v", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{tableName(0), manifestName, walFileName}; !slices.Equal(names, want) {
		t.Fatalf("directory holds %v, want %v", names, want)
	}
	if _, err := os.Stat(bystander); err != nil {
		t.Fatalf("the sweep of %s reached a sibling directory: %v", dir, err)
	}
}

// TestLegacySnapshotRefused: a store last written by the snapshot format is
// refused with a typed error, on either medium, and left untouched.
func TestLegacySnapshotRefused(t *testing.T) {
	mem := NewMemPersister()
	if err := mem.PutBlob(legacySnapshotName, []byte("ZSXS...")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(tctx, "", WithPersister(mem)); !errors.Is(err, ErrLegacySnapshot) {
		t.Fatalf("MemPersister: open = %v, want ErrLegacySnapshot", err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, legacySnapshotName)
	if err := os.WriteFile(path, []byte("ZSXS..."), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(tctx, dir); !errors.Is(err, ErrLegacySnapshot) {
		t.Fatalf("DirPersister: open = %v, want ErrLegacySnapshot", err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "ZSXS..." {
		t.Fatalf("the refused snapshot was touched: %q, %v", b, err)
	}
}

// countingEngine counts the block engine's calls.
type countingEngine struct {
	codec.Engine
	compress, decompress int
}

func (e *countingEngine) Compress(dst, src []byte) ([]byte, error) {
	e.compress++
	return e.Engine.Compress(dst, src)
}

func (e *countingEngine) Decompress(dst, src []byte) ([]byte, error) {
	e.decompress++
	return e.Engine.Decompress(dst, src)
}

func newCountingEngine(t *testing.T) *countingEngine {
	t.Helper()
	eng, err := codec.NewEngine("zstd", codec.WithLevel(1))
	if err != nil {
		t.Fatal(err)
	}
	return &countingEngine{Engine: eng}
}

// TestScanAndReopenCodeNothing: Scan merges the memtable in place — the
// block engine compresses nothing — and reopening a store decodes no block:
// the table index comes from the blob's own checksummed trailer.
func TestScanAndReopenCodeNothing(t *testing.T) {
	p := NewMemPersister()
	eng := newCountingEngine(t)
	db, err := Open(tctx, "", WithPersister(p), WithEngine(eng), WithBlockSize(1<<10), WithMemtableBytes(16<<10))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		mustPut(t, db, fmt.Sprintf("key-%04d", i%400), fmt.Sprintf("value-%d-%040d", i, i))
	}
	if db.mem.len() == 0 || db.Stats().Flushes == 0 {
		t.Fatalf("precondition: %d keys in the memtable after %d flushes, want both non-zero", db.mem.len(), db.Stats().Flushes)
	}
	compressed := eng.compress
	before := dump(t, db)
	if len(before) != 400 {
		t.Fatalf("scan saw %d keys, want 400", len(before))
	}
	if eng.compress != compressed {
		t.Fatalf("Scan over a non-empty memtable compressed %d blocks", eng.compress-compressed)
	}
	if err := db.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	closed := map[int64][]byte{}
	for _, tables := range db.levels {
		for _, tb := range tables {
			closed[tb.id] = tb.blob
		}
	}
	diskBytes := db.DiskBytes()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	eng2 := newCountingEngine(t)
	db2, err := Open(tctx, "", WithPersister(p), WithEngine(eng2), WithBlockSize(1<<10), WithMemtableBytes(16<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if eng2.decompress != 0 || eng2.compress != 0 || db2.Stats().BlocksDecompressed != 0 {
		t.Fatalf("reopening decoded %d blocks and compressed %d", eng2.decompress, eng2.compress)
	}
	reopened := 0
	for _, tables := range db2.levels {
		for _, tb := range tables {
			reopened++
			if !bytes.Equal(tb.blob, closed[tb.id]) {
				t.Fatalf("table %d reopened with different bytes", tb.id)
			}
		}
	}
	if reopened != len(closed) || reopened == 0 {
		t.Fatalf("reopened %d tables, closed with %d", reopened, len(closed))
	}
	var containers int64
	for _, tables := range db2.levels {
		containers += levelBytes(tables)
	}
	if db2.DiskBytes() != diskBytes || diskBytes <= containers {
		t.Fatalf("DiskBytes %d after reopen, %d before; it counts the key indexes, so more than the containers' %d",
			db2.DiskBytes(), diskBytes, containers)
	}
	if got := dump(t, db2); !maps.Equal(got, before) {
		t.Fatalf("reopened store scans to %d keys, want the same %d", len(got), len(before))
	}
}

// closeRecorder reports whether Close reached the persister.
type closeRecorder struct {
	*FaultPersister
	closed int
}

func (p *closeRecorder) Close() error {
	p.closed++
	return p.FaultPersister.Close()
}

// TestCloseClosesPersisterWhenSyncFails: the final sync's failure is
// reported, and the persister is closed all the same.
func TestCloseClosesPersisterWhenSyncFails(t *testing.T) {
	p := &closeRecorder{FaultPersister: NewFaultPersister(NewMemPersister())}
	db, err := Open(tctx, "", WithPersister(p))
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, db, "k", "v")
	p.FailSync(true)
	if err := db.Close(); !errors.Is(err, ErrInjected) {
		t.Fatalf("close = %v, want the injected sync failure", err)
	}
	if p.closed != 1 {
		t.Fatalf("persister closed %d times after a failed final sync, want once", p.closed)
	}
	if err := db.Close(); err != nil || p.closed != 1 {
		t.Fatalf("second close = %v, persister closed %d times", err, p.closed)
	}
}

// realTableBlob is one small table as flush writes it.
func realTableBlob(t testing.TB) []byte {
	t.Helper()
	eng, err := codec.NewEngine("zstd", codec.WithLevel(1))
	if err != nil {
		t.Fatal(err)
	}
	w := newTableWriter(7, "zstd", eng, 256, nil, new(tableScratch))
	for i := 0; i < 40; i++ {
		if err := w.add([]byte(fmt.Sprintf("key-%03d", i)), []byte(fmt.Sprintf("value-%d", i)), false); err != nil {
			t.Fatal(err)
		}
	}
	tb, err := w.finish()
	if err != nil {
		t.Fatal(err)
	}
	return tb.blob
}

// FuzzTableOpen feeds hostile blobs to the table index parser (ROADMAP 5(b)'s
// contract): no panic, every rejection is ErrCorrupt, what it allocates is
// bounded by the input, a table it accepts has the ordered bounds compaction
// carries blocks on, and answers lookups without panicking.
func FuzzTableOpen(f *testing.F) {
	blob := realTableBlob(f)
	f.Add(blob)
	f.Add(carriedTableBlob(f))
	f.Add(blob[:len(blob)-1])
	f.Add(blob[len(blob)-tableTrailerLen:])
	mut := append([]byte{}, blob...)
	mut[len(mut)-tableTrailerLen-3] ^= 0x40
	f.Add(mut)
	f.Add([]byte{})
	eng, err := codec.NewEngine("zstd", codec.WithLevel(1))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		tb, err := openTable(1, blob, eng)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if len(tb.lastKeys) > len(blob) || len(tb.data) > len(blob) {
			t.Fatalf("%d block keys from %d bytes", len(tb.lastKeys), len(blob))
		}
		if bytes.Compare(tb.smallest, tb.lastKeys[0]) > 0 {
			t.Fatalf("accepted smallest %q past the first block's last key %q", tb.smallest, tb.lastKeys[0])
		}
		for i := 1; i < len(tb.lastKeys); i++ {
			if bytes.Compare(tb.lastKeys[i-1], tb.lastKeys[i]) >= 0 {
				t.Fatalf("accepted block keys out of order: %q then %q", tb.lastKeys[i-1], tb.lastKeys[i])
			}
		}
		for _, key := range [][]byte{tb.smallest, tb.largest, []byte("key-020"), {0xff}} {
			if _, _, _, err := tb.get(nil, key, nil, nil); err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("get(%q): untyped error: %v", key, err)
			}
		}
	})
}

// FuzzManifest: same contract for the manifest parser, and whatever decodes
// survives a round trip through the encoder — the dictionary id included, and
// a "KVM1" manifest decoding as dictless.
func FuzzManifest(f *testing.F) {
	m := manifest{seq: 812, nextID: 40, dictID: 0xb0d612a3}
	m.levels[0] = []int64{39, 37}
	m.levels[1] = []int64{12, 30, 31}
	m.levels[6] = []int64{2}
	enc := m.encode()
	f.Add(enc)
	f.Add(enc[:len(enc)-1])
	f.Add((&manifest{}).encode())
	f.Add(encodeManifestV1(m))
	mut := append([]byte{}, enc...)
	mut[6] ^= 0x01
	f.Add(mut)
	// A dictionary id past 32 bits, with a valid checksum.
	wide := binary.AppendUvarint(append([]byte{}, manifestMagic[:]...), 1)
	wide = binary.AppendUvarint(binary.AppendUvarint(wide, 1), 1<<32)
	wide = append(wide, make([]byte, numLevels)...)
	f.Add(binary.LittleEndian.AppendUint64(wide, xxhash.Sum64(wide)))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeManifest(b)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		n := 0
		for _, ids := range m.levels {
			n += len(ids)
			for _, id := range ids {
				if id < 0 || id >= m.nextID {
					t.Fatalf("table id %d outside [0, nextID=%d)", id, m.nextID)
				}
			}
		}
		if n > len(b) {
			t.Fatalf("%d table ids from %d bytes", n, len(b))
		}
		if [4]byte(b[:4]) == manifestMagicV1 && m.dictID != 0 {
			t.Fatalf("a KVM1 manifest decoded with dictionary %08x", m.dictID)
		}
		if again, err := decodeManifest(m.encode()); err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("round trip of %+v = %+v, %v", m, again, err)
		}
	})
}

// BenchmarkDirPutFlushCompact times puts on real files with flushes and
// compactions inside the loop: 2 KiB values over 2 000 keys at the default
// options (a flush every ≈ 600 puts, an L0→L1 compaction every fourth), so
// run it with -benchtime=12000x or more.
func BenchmarkDirPutFlushCompact(b *testing.B) {
	db, err := Open(tctx, b.TempDir(), WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(1))
	val := make([]byte, 2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng.Read(val[:256]) // an eighth incompressible, the rest zeros
		if err := db.Put(tctx, []byte(fmt.Sprintf("key-%06d", rng.Intn(2000))), val); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := db.Stats()
	b.ReportMetric(float64(st.Flushes), "flushes")
	b.ReportMetric(float64(st.Compactions), "compactions")
}
