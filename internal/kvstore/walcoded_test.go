package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"testing"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/container"
	"github.com/datacomp/datacomp/internal/corpus"
)

// linkCoding codes body as a default cluster link does (lz4-1 with
// checksums) and cuts the checksum header off, as the rpc server hands a
// coded handler the request's coding.
func linkCoding(t testing.TB, body []byte) []byte {
	t.Helper()
	eng, err := codec.NewEngine("lz4", codec.WithLevel(1), codec.WithChecksum(true))
	if err != nil {
		t.Fatal(err)
	}
	frame, err := eng.Compress(nil, body)
	if err != nil {
		t.Fatal(err)
	}
	return codec.StripChecksum(frame)
}

// walCopy returns a copy of p's whole log.
func (p *MemPersister) walCopy() []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	var log []byte
	for _, c := range p.wal {
		log = append(log, c...)
	}
	return log
}

// appendV1Record appends the record the format before this one wrote for a
// batch: container-framed, the sequence number coded ahead of the body.
func appendV1Record(t testing.TB, dst []byte, seq uint64, body []byte) []byte {
	t.Helper()
	eng, err := codec.NewEngine("lz4", codec.WithLevel(1))
	if err != nil {
		t.Fatal(err)
	}
	dst, _, err = container.AppendRecord(dst, nil, eng, append(binary.AppendUvarint(nil, seq), body...))
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// putBody is the batch body of the one put key→value.
func putBody(key, value []byte) []byte {
	return append(AppendPutHead(nil, key, len(value)), value...)
}

// TestWALv1FixtureReplays opens a log the previous WAL format wrote
// (testdata/compat/wal_v1.bin: three puts, a delete, a three-op batch, then
// a put torn halfway through its record) and checks that recovery applies
// exactly the five acknowledged batches, drops the torn one, and goes on
// appending in the current format behind them.
func TestWALv1FixtureReplays(t *testing.T) {
	log, err := os.ReadFile("testdata/compat/wal_v1.bin")
	if err != nil {
		t.Fatal(err)
	}
	const intact = 183 // the five acknowledged records; the rest is torn
	want := map[string]string{"k-beta": "beta-2", "k-delta": "delta"}
	p := NewMemPersister()
	if err := p.AppendWAL(log); err != nil {
		t.Fatal(err)
	}
	db, err := Open(tctx, "", WithPersister(p), WithWAL(SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	if got := dump(t, db); !maps.Equal(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	if db.Seq() != 5 || db.Stats().ReplayedBatches != 5 {
		t.Fatalf("seq %d, replayed %d: want 5 and 5", db.Seq(), db.Stats().ReplayedBatches)
	}
	if p.WALBytes() != intact || db.WALSize() != intact {
		t.Fatalf("log kept %d bytes (WALSize %d), want the %d intact ones", p.WALBytes(), db.WALSize(), intact)
	}
	mustPut(t, db, "k-zeta", "zeta")
	db2, err := Open(tctx, "", WithPersister(p))
	if err != nil {
		t.Fatal(err)
	}
	want["k-zeta"] = "zeta"
	if got := dump(t, db2); !maps.Equal(got, want) || db2.Seq() != 6 {
		t.Fatalf("after a current-format append: recovered %v at seq %d, want %v at 6", got, db2.Seq(), want)
	}
}

// TestWALRecordNoLarger: a record the store codes itself is no larger than
// the v1 record of the same batch, and a record that keeps a default link's
// coding is the same bytes, so no origin grows the log.
func TestWALRecordNoLarger(t *testing.T) {
	values := [][]byte{nil, []byte("v"), bytes.Repeat([]byte("abc"), 100)}
	for _, n := range []int{64, 128, 200, 1 << 10, 2 << 10, 4 << 10} {
		values = append(values, corpus.Records(int64(n), n))
		random := make([]byte, n)
		rand.New(rand.NewSource(int64(n))).Read(random)
		values = append(values, random)
	}
	for _, seq := range []uint64{1, 200, 1 << 20} {
		for i, v := range values {
			key := []byte(fmt.Sprintf("user:%06d", i))
			body := putBody(key, v)
			p := NewMemPersister()
			db, err := Open(tctx, "", WithPersister(p), WithWAL(SyncAlways), WithMemtableBytes(1<<30))
			if err != nil {
				t.Fatal(err)
			}
			db.seq = seq - 1
			if err := db.Put(tctx, key, v); err != nil {
				t.Fatal(err)
			}
			stored := p.walCopy()
			if err := db.ApplyCoded(tctx, body, "lz4", linkCoding(t, body)); err != nil {
				t.Fatal(err)
			}
			linked := p.walCopy()[len(stored):]
			v1 := appendV1Record(t, nil, seq, body)
			if len(stored) > len(v1) {
				t.Errorf("seq %d, %d B value %d: store-coded record %d B, v1 record %d B", seq, len(v), i, len(stored), len(v1))
			}
			// Same bytes but the sequence number, one higher.
			if want := appendWALRecord(nil, seq+1, 0, linkCoding(t, body)); !bytes.Equal(linked, want) ||
				!bytes.Equal(linkCoding(t, body), db.walComp) {
				t.Errorf("seq %d, value %d: the link-coded record is not the store-coded one's coding", seq, i)
			}
			if st := db.Stats(); st.WALCoded != 1 || st.WALAppends != 2 {
				t.Errorf("WALCoded %d of %d appends, want 1 of 2", st.WALCoded, st.WALAppends)
			}
		}
	}
}

// TestApplyCoded: a coding by the WAL codec is logged as it came, one by
// another codec is ignored and the body coded again, and a malformed body is
// refused before anything reaches the log.
func TestApplyCoded(t *testing.T) {
	p := NewMemPersister()
	db, err := Open(tctx, "", WithPersister(p), WithWAL(SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	body := putBody([]byte("k"), bytes.Repeat([]byte("value "), 64))
	if err := db.ApplyCoded(tctx, body, "lz4", linkCoding(t, body)); err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyCoded(tctx, body, "zstd", []byte("not lz4")); err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyCoded(tctx, body, "", nil); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.WALCoded != 2 || st.WALAppends != 3 || st.Puts != 3 {
		t.Fatalf("stats %+v: want 2 of 3 appends coded by the store, 3 puts", st)
	}
	var b Batch
	b.Put([]byte("a"), []byte("1"))
	b.Delete([]byte("k"))
	b.Put([]byte("b"), nil)
	multi := appendBatchBody(nil, &b)
	if err := db.ApplyCoded(tctx, multi, "lz4", linkCoding(t, multi)); err != nil {
		t.Fatal(err)
	}
	size := p.WALBytes()
	for _, bad := range [][]byte{
		{}, {1}, {1, opPut, 0, 0}, // no op; a truncated op; an empty key
		{1, 9, 1, 'k'},                       // unknown kind
		append(append([]byte{}, body...), 0), // trailing byte
		{0xff, 0xff, 0xff, 0xff, 0x0f},       // a count past the body
	} {
		if err := db.ApplyCoded(tctx, bad, "lz4", linkCoding(t, bad)); err == nil {
			t.Fatalf("body %x applied", bad)
		}
	}
	if p.WALBytes() != size || db.Seq() != 4 {
		t.Fatalf("malformed bodies reached the log: %d → %d bytes, seq %d", size, p.WALBytes(), db.Seq())
	}
	if _, _, err := ParsePutBody(multi); err == nil {
		t.Fatal("ParsePutBody accepted a three-op body")
	}
	want := map[string]string{"a": "1", "b": ""}
	db2, err := Open(tctx, "", WithPersister(p))
	if err != nil {
		t.Fatal(err)
	}
	if got := dump(t, db2); !maps.Equal(got, want) || db2.Seq() != 4 {
		t.Fatalf("recovered %v at seq %d, want %v at 4", got, db2.Seq(), want)
	}
}

// TestWALOriginsTornEveryOffset writes a log that interleaves v1 records,
// records the store coded and records that kept a link's coding, then cuts
// it at every byte offset of its last three records: a put and a delete the
// store coded, then a put that kept a link's coding. Each cut recovers
// exactly the acknowledged prefix, and a second reopen reads the same Seq().
func TestWALOriginsTornEveryOffset(t *testing.T) {
	var log []byte
	var bounds []int // log length after each batch
	var states []map[string]string
	state := map[string]string{}
	add := func(rec []byte) {
		log = append(log, rec...)
		bounds = append(bounds, len(log))
		states = append(states, maps.Clone(state))
	}
	// Two batches in the old format lead, as on a node upgraded in place.
	for i := 1; i <= 2; i++ {
		key, value := fmt.Sprintf("old-%d", i), fmt.Sprintf("v1 value %d", i)
		state[key] = value
		add(appendV1Record(t, nil, uint64(i), putBody([]byte(key), []byte(value))))
	}
	p := NewMemPersister()
	if err := p.AppendWAL(log); err != nil {
		t.Fatal(err)
	}
	db, err := Open(tctx, "", WithPersister(p), WithWAL(SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("k-%d", i%5)
		value := string(corpus.Records(int64(i), 300+50*i))
		body := putBody([]byte(key), []byte(value))
		if i%2 == 1 {
			err = db.ApplyCoded(tctx, body, "lz4", linkCoding(t, body))
		} else {
			err = db.Put(tctx, []byte(key), []byte(value))
		}
		if err != nil {
			t.Fatal(err)
		}
		state[key] = value
		add(p.walCopy()[len(log):])
		if i == 6 {
			if err := db.Delete(tctx, []byte("old-1")); err != nil {
				t.Fatal(err)
			}
			delete(state, "old-1")
			add(p.walCopy()[len(log):])
		}
	}
	if st := db.Stats(); st.WALCoded != 5 || st.WALAppends != 9 {
		t.Fatalf("WALCoded %d of %d appends, want 5 of 9", st.WALCoded, st.WALAppends)
	}
	// The last record kept a link's coding; the two before it, a put and a
	// delete, the store coded.
	for cut := bounds[len(bounds)-4]; cut <= len(log); cut++ {
		acked := 0
		for acked < len(bounds) && bounds[acked] <= cut {
			acked++
		}
		for reopen := 0; reopen < 2; reopen++ {
			p2 := NewMemPersister()
			if err := p2.AppendWAL(log[:cut]); err != nil {
				t.Fatal(err)
			}
			if reopen == 1 {
				if _, err := Open(tctx, "", WithPersister(p2)); err != nil {
					t.Fatalf("cut %d: %v", cut, err)
				}
			}
			db2, err := Open(tctx, "", WithPersister(p2))
			if err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
			if got := dump(t, db2); !maps.Equal(got, states[acked-1]) || db2.Seq() != uint64(acked) {
				t.Fatalf("cut %d, open %d: recovered %d keys at seq %d, want the %d of the %d acked batches",
					cut, reopen+1, len(got), db2.Seq(), len(states[acked-1]), acked)
			}
		}
	}
}
