package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/corpus"
	"github.com/datacomp/datacomp/internal/dict"
	"github.com/datacomp/datacomp/internal/zstd"
)

// testWALDict trains a 2 KiB zstd dictionary on put bodies of records, as
// a cluster trains the one its puts are coded against.
func testWALDict(t testing.TB, seed int64) []byte {
	t.Helper()
	var samples [][]byte
	for i := int64(0); i < 32; i++ {
		samples = append(samples, putBody(fmt.Appendf(nil, "user:%08d", seed+i), corpus.Records(seed+i, 2<<10)))
	}
	d, err := dict.TrainZstd(-3, 2<<10, samples, samples)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// dictCoding codes body against d as a cluster's put link does (zstd -3
// with checksums) and cuts the checksum header off, as the rpc server
// hands a coded handler the request's coding.
func dictCoding(t testing.TB, d, body []byte) []byte {
	t.Helper()
	eng, err := codec.NewEngine("zstd", codec.WithLevel(-3), codec.WithDict(d), codec.WithChecksum(true))
	if err != nil {
		t.Fatal(err)
	}
	frame, err := eng.Compress(nil, body)
	if err != nil {
		t.Fatal(err)
	}
	return codec.StripChecksum(frame)
}

// TestStoreDictWALKeepsCoding: once a store holds a WAL dictionary, a batch
// that arrived zstd-coded against it is logged as it came, in the record
// form that names the dictionary, and the store codes nothing; one coded
// against a dictionary it does not hold it codes itself. A crash and a
// reopen load the dictionary from its blob and replay both records.
func TestStoreDictWALKeepsCoding(t *testing.T) {
	p := NewMemPersister()
	db, err := Open(tctx, "", WithPersister(p), WithWAL(SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	d, other := testWALDict(t, 1), testWALDict(t, 500)
	id := zstd.DictID(d)
	for i := 0; i < 2; i++ { // the second add is a no-op
		if err := db.AddWALDict(d); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.WALDict(id); !bytes.Equal(got, d) || db.WALDict(zstd.DictID(other)) != nil {
		t.Fatalf("WALDict: %d bytes for the added dictionary, want %d, and none for another", len(got), len(d))
	}
	k1, v1 := []byte("user:00000001"), corpus.Records(900, 2<<10)
	k2, v2 := []byte("user:00000002"), corpus.Records(901, 2<<10)
	b1, b2 := putBody(k1, v1), putBody(k2, v2)
	kept := dictCoding(t, d, b1)
	if err := db.ApplyCoded(tctx, b1, "zstd", kept); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.WALAppends != 1 || st.WALCoded != 0 {
		t.Fatalf("a batch coded against the WAL dictionary: %d appends, %d coded by the store; want 1 and 0", st.WALAppends, st.WALCoded)
	}
	if log, want := p.walCopy(), appendWALRecord(nil, 1, id, kept); !bytes.Equal(log, want) {
		t.Fatalf("the log holds %d bytes, want the %d of the dictionary-form record", len(log), len(want))
	}
	if err := db.ApplyCoded(tctx, b2, "zstd", dictCoding(t, other, b2)); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.WALCoded != 1 {
		t.Fatalf("a batch coded against a dictionary the store lacks: %d coded by the store, want 1", st.WALCoded)
	}
	names, err := p.ListBlobs()
	if err != nil || len(names) != 1 || names[0] != walDictName(id) {
		t.Fatalf("blobs %v, %v: want the dictionary's alone", names, err)
	}

	p.Crash()
	db, err = Open(tctx, "", WithPersister(p), WithWAL(SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	if db.Stats().ReplayedBatches != 2 || !bytes.Equal(db.WALDict(id), d) {
		t.Fatalf("reopen replayed %d batches, dictionary held %v", db.Stats().ReplayedBatches, db.WALDict(id) != nil)
	}
	if got := dump(t, db); got[string(k1)] != string(v1) || got[string(k2)] != string(v2) {
		t.Fatal("a replayed record differs from its batch")
	}
	// A flush empties the log; the dictionary stays, durable, for the
	// batches that come coded against it later.
	if err := db.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyCoded(tctx, b1, "zstd", kept); err != nil || db.Stats().WALCoded != 0 {
		t.Fatalf("after a flush: %v, %d coded by the store", err, db.Stats().WALCoded)
	}
	checkNoOrphans(t, "after a flush", db, p)
}

// TestStoreDictWALZstdCodec: on a store whose WAL codec is zstd, a batch
// coded against its WAL dictionary is still logged in the record form that
// names the dictionary, not in the WAL codec's form, whose engine holds no
// dictionary and would refuse the frame on replay; one coded against a
// dictionary the store lacks is coded by the store, and a plain zstd frame
// is logged as it came. A crash and a reopen replay all three.
func TestStoreDictWALZstdCodec(t *testing.T) {
	p := NewMemPersister()
	opts := []Option{WithPersister(p), WithWAL(SyncAlways), WithWALCodec("zstd")}
	db, err := Open(tctx, "", opts...)
	if err != nil {
		t.Fatal(err)
	}
	d, other := testWALDict(t, 1), testWALDict(t, 500)
	id := zstd.DictID(d)
	if err := db.AddWALDict(d); err != nil {
		t.Fatal(err)
	}
	plain, err := codec.NewEngine("zstd", codec.WithLevel(1))
	if err != nil {
		t.Fatal(err)
	}
	var bodies [][]byte
	for i := 0; i < 3; i++ {
		bodies = append(bodies, putBody(fmt.Appendf(nil, "user:%08d", i), corpus.Records(int64(900+i), 2<<10)))
	}
	kept := dictCoding(t, d, bodies[0])
	plainCoding, err := plain.Compress(nil, bodies[2])
	if err != nil {
		t.Fatal(err)
	}
	for i, coding := range [][]byte{kept, dictCoding(t, other, bodies[1]), plainCoding} {
		if err := db.ApplyCoded(tctx, bodies[i], "zstd", coding); err != nil {
			t.Fatal(err)
		}
	}
	if st := db.Stats(); st.WALAppends != 3 || st.WALCoded != 1 {
		t.Fatalf("%d appends, %d coded by the store; want 3 and 1 (the batch against a dictionary the store lacks)", st.WALAppends, st.WALCoded)
	}
	if log, want := p.walCopy(), appendWALRecord(nil, 1, id, kept); !bytes.HasPrefix(log, want) {
		t.Fatal("the batch coded against the WAL dictionary is not logged in the record form that names it")
	}

	p.Crash()
	if db, err = Open(tctx, "", opts...); err != nil {
		t.Fatal(err)
	}
	if n := db.Stats().ReplayedBatches; n != 3 {
		t.Fatalf("reopen replayed %d batches, want 3", n)
	}
	got := dump(t, db)
	for i := range bodies {
		if k := fmt.Sprintf("user:%08d", i); got[k] != string(corpus.Records(int64(900+i), 2<<10)) {
			t.Fatalf("%s: replayed value differs from its batch", k)
		}
	}
}

// TestStoreDictWALBlobCorrupt: a WAL dictionary blob that is missing while
// the log names it, fails its checksum, or holds another dictionary than
// its name says makes Open fail with ErrCorrupt, not drop the records
// coded against it as a torn tail.
func TestStoreDictWALBlobCorrupt(t *testing.T) {
	d, other := testWALDict(t, 1), testWALDict(t, 500)
	id := zstd.DictID(d)
	build := func() *MemPersister {
		p := NewMemPersister()
		db, err := Open(tctx, "", WithPersister(p), WithWAL(SyncAlways))
		if err != nil {
			t.Fatal(err)
		}
		if err := db.AddWALDict(d); err != nil {
			t.Fatal(err)
		}
		body := putBody([]byte("k"), corpus.Records(3, 1<<10))
		if err := db.ApplyCoded(tctx, body, "zstd", dictCoding(t, d, body)); err != nil {
			t.Fatal(err)
		}
		return p
	}
	flipped := encodeDict(d)
	flipped[len(flipped)/2] ^= 1
	for name, mutate := range map[string]func(p *MemPersister) error{
		"missing":       func(p *MemPersister) error { return p.DeleteBlobs(walDictName(id)) },
		"flipped":       func(p *MemPersister) error { return p.PutBlob(walDictName(id), flipped) },
		"another's":     func(p *MemPersister) error { return p.PutBlob(walDictName(id), encodeDict(other)) },
		"not a blob":    func(p *MemPersister) error { return p.PutBlob(walDictName(id), []byte("KVD1")) },
		"renamed other": func(p *MemPersister) error { return p.PutBlob(walDictName(zstd.DictID(other)+1), encodeDict(other)) },
	} {
		p := build()
		if err := mutate(p); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(tctx, "", WithPersister(p)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: Open returned %v, want ErrCorrupt", name, err)
		}
	}
	if db, err := Open(tctx, "", WithPersister(build())); err != nil || db.Stats().ReplayedBatches != 1 {
		t.Fatalf("untouched: %v", err)
	}
}

// TestCrashPointWALDict crashes a store at every mutating persister call
// of a workload that adds a WAL dictionary, logs batches coded against it
// among its own, flushes and logs more: a reopened store holds every
// acknowledged batch, the dictionary whenever a batch coded against it was
// acknowledged, and nothing the persister does not name.
func TestCrashPointWALDict(t *testing.T) {
	d := testWALDict(t, 1)
	id := zstd.DictID(d)
	const ops = 24
	run := func(cp *crashPersister) (acked map[string]string, inflight string, needDict bool) {
		acked = map[string]string{}
		db, err := Open(tctx, "", crashOpts(cp)...)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.AddWALDict(d); err != nil {
			return acked, "", false
		}
		for i := 0; i < ops; i++ {
			key := fmt.Sprintf("user:%08d", i%17)
			value := string(corpus.Records(int64(i), 300+40*i))
			body := putBody([]byte(key), []byte(value))
			switch {
			case i == ops/2:
				err = db.Flush(tctx)
				key = ""
			case i%3 == 2:
				err = db.Put(tctx, []byte(key), []byte(value))
			default:
				err = db.ApplyCoded(tctx, body, "zstd", dictCoding(t, d, body))
				needDict = needDict || err == nil
			}
			if err != nil {
				if !errors.Is(err, errCrashed) {
					t.Fatalf("op %d: %v", i, err)
				}
				return acked, key, needDict
			}
			if key != "" {
				acked[key] = value
			}
		}
		return acked, "", needDict
	}
	probe := &crashPersister{Persister: NewMemPersister(), left: -1}
	run(probe)
	for k := 0; k < probe.calls; k++ {
		for _, applyThenFail := range []bool{false, true} {
			what := fmt.Sprintf("crash at call %d (applied=%v)", k, applyThenFail)
			inner := NewMemPersister()
			acked, inflight, needDict := run(&crashPersister{Persister: inner, left: k, applyThenFail: applyThenFail})
			inner.Crash()
			db, err := Open(tctx, "", crashOpts(inner)...)
			if err != nil {
				t.Fatalf("%s: reopen: %v", what, err)
			}
			got := dump(t, db)
			for key, want := range acked {
				if got[key] != want && key != inflight {
					t.Fatalf("%s: acknowledged %s lost or changed (%d bytes, want %d)", what, key, len(got[key]), len(want))
				}
			}
			for key := range got {
				if _, ok := acked[key]; !ok && key != inflight {
					t.Fatalf("%s: %s was never acknowledged", what, key)
				}
			}
			if needDict && db.WALDict(id) == nil {
				t.Fatalf("%s: a batch coded against the dictionary was acknowledged and the dictionary is gone", what)
			}
			checkNoOrphans(t, what, db, inner)
			db.Close()
		}
	}
	if probe.calls < ops {
		t.Fatalf("only %d crash points", probe.calls)
	}
}
