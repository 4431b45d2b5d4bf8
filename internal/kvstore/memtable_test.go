package kvstore

import (
	"bytes"
	"fmt"
	"maps"
	"testing"
)

// memGet reads key from m, failing unless it holds exactly want (nil: a
// tombstone).
func memGet(t *testing.T, m *memtable, key string, want []byte) {
	t.Helper()
	v, tomb, ok := m.get([]byte(key))
	switch {
	case !ok:
		t.Fatalf("%s: not found", key)
	case want == nil && !tomb:
		t.Fatalf("%s = %q, want a tombstone", key, v)
	case want != nil && (tomb || !bytes.Equal(v, want)):
		t.Fatalf("%s = %q (tombstone %v), want %q", key, v, tomb, want)
	}
}

// TestArenaOverwriteInPlace: an overwrite that fits the old value's slot —
// shorter, or as long as the longest value the slot held — is written over
// it; a longer one moves to a new slot, which the next overwrites reuse.
// The flush measure counts the live value, not the slot.
func TestArenaOverwriteInPlace(t *testing.T) {
	m := newMemtable(1)
	m.set([]byte("k"), bytes.Repeat([]byte("a"), 100), false)
	slot := valueAddr(m, "k")
	base := m.approximateBytes()
	for _, c := range []struct {
		n     int
		moved bool
	}{{50, false}, {100, false}, {1, false}, {150, true}, {120, false}, {150, false}} {
		v := bytes.Repeat([]byte{byte('a' + c.n%26)}, c.n)
		m.set([]byte("k"), v, false)
		memGet(t, m, "k", v)
		if got := valueAddr(m, "k"); (got != slot) != c.moved {
			t.Fatalf("overwrite with %d bytes: moved=%v, want %v", c.n, got != slot, c.moved)
		}
		slot = valueAddr(m, "k")
		if m.bytes != base+c.n-100 {
			t.Fatalf("overwrite with %d bytes: %d live bytes, want %d", c.n, m.bytes, base+c.n-100)
		}
	}
	if m.len() != 1 {
		t.Fatalf("%d keys after overwrites of one", m.len())
	}
}

// valueAddr is the address of the slot key's value is in.
func valueAddr(m *memtable, key string) *byte {
	v, _, _ := m.get([]byte(key))
	return &v[:1][0]
}

// TestArenaTombstoneCycle: a value, its tombstone, a value again in the
// same slot and another tombstone, each read back as itself, iterated as
// itself and counted as itself.
func TestArenaTombstoneCycle(t *testing.T) {
	m := newMemtable(1)
	v := []byte("the first value")
	m.set([]byte("k"), v, false)
	slot := valueAddr(m, "k")
	for i, tomb := range []bool{true, false, true, false} {
		want := []byte(nil)
		if !tomb {
			want = fmt.Appendf(nil, "value %d", i)
		}
		m.set([]byte("k"), want, tomb)
		memGet(t, m, "k", want)
		it := m.iterator()
		if !it.valid() || it.tombstone() != tomb || !tomb && !bytes.Equal(it.value(), want) {
			t.Fatalf("step %d: the iterator reads tombstone=%v value %q", i, it.tombstone(), it.value())
		}
		if want := len("k") + len(want) + 32; m.approximateBytes() != want {
			t.Fatalf("step %d: approximateBytes %d, want %d", i, m.approximateBytes(), want)
		}
		if !tomb && valueAddr(m, "k") != slot {
			t.Fatalf("step %d: a value that fits the slot a tombstone kept moved", i)
		}
	}
	m.set([]byte("gone"), nil, true)
	memGet(t, m, "gone", nil)
	m.set([]byte("gone"), []byte("back"), false)
	memGet(t, m, "gone", []byte("back"))
}

// TestArenaEmptyValueIsNotTombstone: an empty value — nil or not — is a
// value, in the memtable, after a tombstone, through a flush and a reopen.
func TestArenaEmptyValueIsNotTombstone(t *testing.T) {
	m := newMemtable(1)
	m.set([]byte("nil"), nil, false)
	m.set([]byte("empty"), []byte{}, false)
	m.set([]byte("was-deleted"), nil, true)
	m.set([]byte("was-deleted"), nil, false)
	for _, k := range []string{"nil", "empty", "was-deleted"} {
		memGet(t, m, k, []byte{})
	}

	p := NewMemPersister()
	db := testDB(t, WithPersister(p))
	for _, k := range []string{"a", "b"} {
		if err := db.Delete(tctx, []byte(k)); err != nil {
			t.Fatal(err)
		}
		if err := db.Put(tctx, []byte(k), nil); err != nil {
			t.Fatal(err)
		}
	}
	check := func(what string, db *DB) {
		t.Helper()
		for _, k := range []string{"a", "b"} {
			if v, ok, err := db.Get(tctx, []byte(k)); err != nil || !ok || len(v) != 0 {
				t.Fatalf("%s: %s = %q ok=%v err=%v, want an empty value", what, k, v, ok, err)
			}
		}
	}
	check("in the memtable", db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = testDB(t, WithPersister(p))
	check("replayed from the WAL", db)
	if err := db.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	check("in a table", db)
}

// TestArenaReuseKeepsValues: after a flush the next memtable writes into the
// chunks and slab the last one used, and AppendGet and Scan read back every
// value — the flushed ones from tables, the new ones from the reused arena —
// while a value Get returned before the reuse is unchanged.
func TestArenaReuseKeepsValues(t *testing.T) {
	db := testDB(t, WithMemtableBytes(64<<10), WithL0CompactionTrigger(100))
	want := map[string]string{}
	put := func(k, v string) {
		t.Helper()
		mustPut(t, db, k, v)
		want[k] = v
	}
	for i := 0; db.Stats().Flushes == 0; i++ {
		put(fmt.Sprintf("first-%05d", i), fmt.Sprintf("first value %05d %0200d", i, i))
	}
	kept, _, err := db.Get(tctx, []byte("first-00000"))
	if err != nil {
		t.Fatal(err)
	}
	keptWant := string(kept)
	chunk0, slab0 := &db.mem.chunks[0][:1][0], &db.mem.slabs[0][0]
	for i := 0; i < 100; i++ {
		put(fmt.Sprintf("second-%05d", i), fmt.Sprintf("second value %05d %0200d", i, 7*i))
		put(fmt.Sprintf("first-%05d", i), fmt.Sprintf("overwritten %05d %0100d", i, 3*i))
	}
	if db.Stats().Flushes != 1 {
		t.Fatalf("%d flushes; the second memtable must stay in memory", db.Stats().Flushes)
	}
	// The first key put after the flush went to the front of the first
	// chunk, in the first node of the first slab.
	if n := db.mem.findGreaterOrEqual([]byte("second-00000"), nil); &n.key[0] != chunk0 || n != slab0 {
		t.Fatal("the first put after the flush did not land at the front of the reused arena and slab")
	}
	var buf []byte
	for k, v := range want {
		var ok bool
		if buf, ok, err = db.AppendGet(tctx, buf[:0], []byte(k)); err != nil || !ok || string(buf) != v {
			t.Fatalf("AppendGet %s = %q ok=%v err=%v, want %q", k, buf, ok, err, v)
		}
	}
	if got := dump(t, db); !maps.Equal(got, want) {
		t.Fatalf("Scan returns %d keys, want %d (or a value differs)", len(got), len(want))
	}
	if string(kept) != keptWant {
		t.Fatalf("a value Get returned changed when the arena was reused: %q, was %q", kept, keptWant)
	}
}

// TestArenaBoundedUnderGrowingOverwrites: rewriting one key with ever-longer
// values, none of which fits the slot before it, fills the arena and not the
// live measure; the arena is counted, so the memtable flushes and the chunks
// it keeps stay within one memtable plus a chunk.
func TestArenaBoundedUnderGrowingOverwrites(t *testing.T) {
	const memBytes = 64 << 10
	db := testDB(t, WithMemtableBytes(memBytes), WithL0CompactionTrigger(2))
	var v []byte
	for n := 1; n <= 8<<10; n += 13 {
		v = bytes.Repeat([]byte{byte(n)}, n)
		if err := db.Put(tctx, []byte("k"), v); err != nil {
			t.Fatal(err)
		}
		held := 0
		for _, c := range db.mem.chunks {
			held += cap(c)
		}
		if held > memBytes+2*arenaChunk {
			t.Fatalf("after a %d-byte value the arena holds %d bytes, bound %d", n, held, memBytes+2*arenaChunk)
		}
	}
	if db.Stats().Flushes < 10 {
		t.Fatalf("%d flushes: overwrites that do not fit their slot must count toward the flush", db.Stats().Flushes)
	}
	if got, ok, err := db.Get(tctx, []byte("k")); err != nil || !ok || !bytes.Equal(got, v) {
		t.Fatalf("get after the overwrites: %d bytes ok=%v err=%v, want %d", len(got), ok, err, len(v))
	}
}
