package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"github.com/datacomp/datacomp/internal/corpus"
	"github.com/datacomp/datacomp/internal/kvstore"
	"github.com/datacomp/datacomp/internal/rpc"
)

// smallStore makes a node flush and compact after a few dozen records, so
// the puts under test land on SST-resident records, not only the memtable.
func smallStore() NodeOption {
	return WithNodeStoreOptions(
		kvstore.WithMemtableBytes(4<<10),
		kvstore.WithBlockSize(512),
		kvstore.WithMaxTableBytes(8<<10),
		kvstore.WithL0CompactionTrigger(2),
	)
}

func testNode(t *testing.T, opts ...NodeOption) *Node {
	t.Helper()
	n, err := newNode(tctx, "solo", defaultCompression, opts...)
	if err != nil {
		t.Fatalf("newNode: %v", err)
	}
	t.Cleanup(func() { n.Stop() })
	return n
}

// putRec sends one replica put straight to the node's handler.
func putRec(t *testing.T, n *Node, key string, rec []byte) {
	t.Helper()
	if _, err := n.handlePut(tctx, appendKeyRecord(nil, []byte(key), rec), rpc.Coded{}); err != nil {
		t.Fatalf("put %s: %v", key, err)
	}
}

// delRec applies a tombstone at version for key, the request Cluster.Delete
// sends.
func delRec(t *testing.T, n *Node, key string, version uint64) {
	t.Helper()
	if _, err := n.handlePut(tctx, appendPutRequest(nil, []byte(key), version, true, nil), rpc.Coded{}); err != nil {
		t.Fatalf("delete %s: %v", key, err)
	}
}

// stored reads key's raw record from the node's store (nil when absent).
func stored(t *testing.T, n *Node, key string) []byte {
	t.Helper()
	raw, ok, err := n.Store().Get(tctx, []byte(key))
	if err != nil {
		t.Fatalf("direct get %s: %v", key, err)
	}
	if !ok {
		return nil
	}
	return raw
}

// corruptInPlace damages key's stored record through Store() without
// touching its version bytes (the checksum does not cover the header, and a
// Store() writer must not raise a version — see DESIGN.md §11).
func corruptInPlace(t *testing.T, n *Node, key string) []byte {
	t.Helper()
	bad := append([]byte{}, stored(t, n, key)...)
	bad[len(bad)-1] ^= 0xFF // last payload byte, or last checksum byte of a tombstone
	if _, ok := validRecord(bad); ok {
		t.Fatalf("corruption of %s left a valid record", key)
	}
	if err := n.Store().Put(tctx, []byte(key), bad); err != nil {
		t.Fatalf("corrupt put: %v", err)
	}
	return bad
}

// tracked reports whether the node's version table holds key.
func tracked(n *Node, key string) bool {
	n.putMu.Lock()
	defer n.putMu.Unlock()
	_, ok := n.versions[key]
	return ok
}

// tableLen is the number of keys the node's version table holds.
func tableLen(n *Node) int {
	n.putMu.Lock()
	defer n.putMu.Unlock()
	return len(n.versions)
}

// digestOf calls the digest handler directly.
func digestOf(n *Node, key string) ([]byte, error) { return n.handleDigest(tctx, nil, []byte(key)) }

// TestNodePutModel drives one node with a seeded interleaving of fresh puts,
// deletes, duplicates, stale versions, read-repair re-puts, digests, in-place
// corruption, checkpoints, graceful restarts and crashes that lose the WAL
// tail, and checks the store against a model of the put rule: a record
// replaces the stored one iff that one is absent, checksum-invalid, or of a
// lower version. Blind and compared puts must be indistinguishable, and
// while a key is tracked its digest is the header of what a get returns.
func TestNodePutModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			n := testNode(t, smallStore(), WithNodeStoreOptions(kvstore.WithWAL(kvstore.SyncOnCheckpoint)))
			base := counted()

			model := map[string][]byte{}   // what the store must hold, raw
			durable := map[string][]byte{} // model as of the last sync or checkpoint
			var version uint64
			const keys = 40
			payload := func() []byte {
				p := make([]byte, rng.Intn(300))
				rng.Read(p)
				return p
			}
			// settle runs after every store write: one that filled the
			// memtable flushed it, and a flush is a checkpoint — that write
			// and everything before it now survive a crash.
			var commits int64
			settle := func() {
				if c := n.Store().Stats().ManifestCommits; c != commits {
					commits = c
					durable = maps.Clone(model)
				}
			}
			apply := func(key string, rec []byte) {
				in, _ := parseRecord(rec)
				if cur, ok := validRecord(model[key]); !ok || in.version > cur.version {
					model[key] = rec
				}
				settle()
			}
			// digest checks one key's digest against the model: the stored
			// header when the record is whole (and the key is tracked from
			// then on), 0x00 when there is none, an error — and no entry —
			// when an untracked key's record is corrupt.
			digest := func(step int, key string) {
				t.Helper()
				want, was := model[key], tracked(n, key)
				got, err := digestOf(n, key)
				_, whole := validRecord(want)
				switch {
				case want == nil:
					if err != nil || !bytes.Equal(got, []byte{0x00}) || tracked(n, key) {
						t.Fatalf("step %d: digest of absent %s = %x, %v (tracked=%v)", step, key, got, err, tracked(n, key))
					}
				case whole:
					if err != nil || !bytes.Equal(got, append([]byte{0x01}, want[:recHeaderLen]...)) || !tracked(n, key) {
						t.Fatalf("step %d: digest of %s = %x, %v (tracked %v→%v), want header %x", step, key, got, err, was, tracked(n, key), want[:recHeaderLen])
					}
				default:
					if !errors.Is(err, errStoredCorrupt) || tracked(n, key) {
						t.Fatalf("step %d: digest of corrupt untracked %s = %x, %v (tracked=%v)", step, key, got, err, tracked(n, key))
					}
				}
			}
			check := func(step int, op string) {
				t.Helper()
				for key, want := range model {
					if got := stored(t, n, key); !bytes.Equal(got, want) {
						gr, _ := parseRecord(got)
						wr, _ := parseRecord(want)
						t.Fatalf("step %d (%s): %s holds version %d (%d B), model has version %d (%d B)",
							step, op, key, gr.version, len(got), wr.version, len(want))
					}
				}
				// The table invariant: a tracked key's digest is the header
				// of the record a get returns.
				n.putMu.Lock()
				table := map[string][recHeaderLen]byte{}
				for key, hdr := range n.versions {
					table[key] = *hdr
				}
				n.putMu.Unlock()
				for key, hdr := range table {
					got, err := n.handleGet(tctx, nil, []byte(key))
					if err != nil || len(got) < 1+recHeaderLen || !bytes.Equal(got[1:1+recHeaderLen], hdr[:]) {
						t.Fatalf("step %d (%s): %s tracked with header %x, get returns %x (%v)", step, op, key, hdr, got, err)
					}
					if d, err := digestOf(n, key); err != nil || !bytes.Equal(d[1:], hdr[:]) {
						t.Fatalf("step %d (%s): digest of tracked %s = %x, %v, table holds %x", step, op, key, d, err, hdr)
					}
				}
			}

			for step := 0; step < 3000; step++ {
				key := fmt.Sprintf("k%02d", rng.Intn(keys))
				op := "put"
				switch r := rng.Intn(115); {
				case r >= 100: // digest, as a get's non-first owners send
					op = "digest"
					digest(step, key)
				case r < 50: // fresh put
					version++
					rec := appendRecord(nil, version, false, payload())
					putRec(t, n, key, rec)
					apply(key, rec)
				case r < 58: // delete
					op = "delete"
					version++
					delRec(t, n, key, version)
					apply(key, appendRecord(nil, version, true, nil))
				case r < 70: // stale writer: any version up to the newest minted
					op = "stale"
					if version == 0 {
						continue
					}
					rec := appendRecord(nil, 1+uint64(rng.Int63n(int64(version))), false, payload())
					putRec(t, n, key, rec)
					apply(key, rec)
				case r < 82: // duplicate delivery / read-repair or rebalance re-put
					op = "re-put"
					rec, ok := validRecord(model[key])
					if !ok {
						continue
					}
					raw := appendRecord(nil, rec.version, rec.tombstone, rec.payload)
					putRec(t, n, key, raw)
					apply(key, raw)
				case r < 90: // bit rot under the store, then sometimes the repair
					op = "corrupt"
					good, ok := validRecord(model[key])
					if !ok {
						continue
					}
					model[key] = corruptInPlace(t, n, key)
					settle()
					// A backdoor writer owes the table an invalidation: by
					// hand, or by the data read that finds the damage.
					if rng.Intn(2) == 0 {
						n.forget([]byte(key))
					} else if got, err := n.handleGet(tctx, nil, []byte(key)); err != nil || !bytes.Equal(got[1:], model[key]) {
						t.Fatalf("step %d: get of corrupt %s = %x, %v", step, key, got, err)
					}
					if tracked(n, key) {
						t.Fatalf("step %d: corrupt %s still tracked", step, key)
					}
					if rng.Intn(2) == 0 {
						raw := appendRecord(nil, good.version, good.tombstone, good.payload)
						putRec(t, n, key, raw)
						apply(key, raw)
					}
				case r < 94: // checkpoint: everything so far survives a crash
					op = "checkpoint"
					if err := n.Store().Flush(tctx); err != nil {
						t.Fatalf("checkpoint: %v", err)
					}
					durable, commits = maps.Clone(model), n.Store().Stats().ManifestCommits
				case r < 97: // graceful restart: Close syncs the WAL
					op = "restart"
					if err := n.Stop(); err != nil {
						t.Fatalf("stop: %v", err)
					}
					if err := n.Restart(tctx); err != nil {
						t.Fatalf("restart: %v", err)
					}
					durable = maps.Clone(model)
				default: // crash: the unsynced WAL tail is gone
					op = "crash"
					n.Crash()
					if err := n.Restart(tctx); err != nil {
						t.Fatalf("restart after crash: %v", err)
					}
					for key := range model {
						if _, kept := durable[key]; !kept && stored(t, n, key) != nil {
							t.Fatalf("step %d: %s survived a crash without a sync", step, key)
						}
					}
					model = maps.Clone(durable)
				}
				if op == "crash" || op == "restart" {
					commits = n.Store().Stats().ManifestCommits // a new store counts from its recovery
					// The table is rebuilt empty; the first digest of a key
					// is served from the recovered store.
					if size := tableLen(n); size != 0 {
						t.Fatalf("step %d: %d keys tracked across a %s", step, size, op)
					}
					gets := n.Store().Stats().Gets
					digest(step, key)
					if d := n.Store().Stats().Gets - gets; d != 1 {
						t.Fatalf("step %d: first digest after a %s read the store %d times, want 1", step, op, d)
					}
				}
				if step%25 == 0 || op == "crash" || op == "restart" {
					check(step, op)
				}
			}
			check(3000, "end")
			st := since(base)
			if st.Blind == 0 || st.Compared == 0 {
				t.Fatalf("model run took one path only: %+v", st)
			}
		})
	}
}

// TestNodeBlindPutCounters proves the blind path is actually taken: on a
// node whose table is not exhaustive the first put of a key compares (the
// table has not seen it), and every strictly newer put after that is blind.
func TestNodeBlindPutCounters(t *testing.T) {
	n := testNode(t, smallStore())
	n.endExhaustive()
	base := counted()
	const keys, rounds = 20, 30
	var version uint64
	for r := 0; r < rounds; r++ {
		for k := 0; k < keys; k++ {
			version++
			putRec(t, n, fmt.Sprintf("key-%02d", k), appendRecord(nil, version, false, bytes.Repeat([]byte{byte(r)}, 200)))
		}
	}
	if st := since(base); st.Compared != keys || st.Blind != keys*(rounds-1) {
		t.Fatalf("put paths = %+v, want %d compared and %d blind", st, keys, keys*(rounds-1))
	}
	// Blind puts skip the store's read path entirely.
	if gets := n.Store().Stats().Gets; gets != keys {
		t.Fatalf("store served %d gets for %d puts, want one per first put (%d)", gets, keys*rounds, keys)
	}
	for k := 0; k < keys; k++ {
		rec, ok := validRecord(stored(t, n, fmt.Sprintf("key-%02d", k)))
		if want := uint64((rounds-1)*keys + k + 1); !ok || rec.version != want {
			t.Fatalf("key-%02d holds version %d (valid=%v), want %d", k, rec.version, ok, want)
		}
	}
}

// An older put after a blind put is a no-op, and so is a duplicate of it.
// (TestFreshNodeBlindPuts covers the same on a node whose table is
// exhaustive.)
func TestNodeOlderPutAfterBlindPutIsNoop(t *testing.T) {
	n := testNode(t)
	base := counted()
	// With the table's exhaustive claim ended, a first sight compares.
	n.endExhaustive()
	putRec(t, n, "k", appendRecord(nil, 10, false, []byte("ten")))    // compared (first sight)
	putRec(t, n, "k", appendRecord(nil, 20, false, []byte("twenty"))) // blind
	if st := since(base); st.Blind != 1 {
		t.Fatalf("second put not blind: %+v", st)
	}
	putRec(t, n, "k", appendRecord(nil, 15, false, []byte("fifteen")))
	putRec(t, n, "k", appendRecord(nil, 20, false, []byte("twenty")))
	delRec(t, n, "k", 19)
	rec, ok := validRecord(stored(t, n, "k"))
	if !ok || rec.version != 20 || string(rec.payload) != "twenty" || rec.tombstone {
		t.Fatalf("stored = version %d %q tombstone=%v valid=%v, want version 20 \"twenty\"", rec.version, rec.payload, rec.tombstone, ok)
	}
	if st := since(base); st.Blind != 1 || st.Compared != 4 {
		t.Fatalf("put paths = %+v, want 1 blind and 4 compared", st)
	}
}

// A corrupt stored record is repaired by a same-version re-put even though
// the table holds exactly that version, and by an older one too: a corrupt
// record vetoes nothing.
func TestNodeCorruptRecordRepairedBySameVersion(t *testing.T) {
	n := testNode(t)
	good := appendRecord(nil, 7, false, []byte("intact"))
	putRec(t, n, "k", appendRecord(nil, 3, false, []byte("old")))
	putRec(t, n, "k", good) // blind: the table now holds 7
	corruptInPlace(t, n, "k")
	putRec(t, n, "k", good)
	if got := stored(t, n, "k"); !bytes.Equal(got, good) {
		t.Fatalf("same-version re-put did not repair the corrupt record: %x", got)
	}
	corruptInPlace(t, n, "k")
	older := appendRecord(nil, 5, false, []byte("older but whole"))
	putRec(t, n, "k", older)
	if got := stored(t, n, "k"); !bytes.Equal(got, older) {
		t.Fatalf("older put did not replace the corrupt record: %x", got)
	}
	// The table follows the store down to 5 (it holds the stored header, not
	// the highest version seen), so the digest says 5 and version 6 wins.
	if d, err := digestOf(n, "k"); err != nil || !bytes.Equal(d[1:], older[:recHeaderLen]) {
		t.Fatalf("digest after the older put = %x, %v, want the header of version 5", d, err)
	}
	six := appendRecord(nil, 6, false, []byte("six"))
	putRec(t, n, "k", six)
	if got := stored(t, n, "k"); !bytes.Equal(got, six) {
		t.Fatalf("version 6 did not replace version 5: %x", got)
	}
}

// A full table drops entries instead of growing; the dropped keys fall back
// to the compared path and stay correct. On a fresh node the first puts are
// blind until the first eviction ends the table's exhaustive claim, and
// compared after it.
func TestNodeVersionTableOverflow(t *testing.T) {
	n := testNode(t)
	base := counted()
	const extra = 500
	total := maxTrackedVersions + extra
	val := []byte("v")
	for i := 0; i < total; i++ {
		putRec(t, n, fmt.Sprintf("key-%06d", i), appendRecord(nil, uint64(i+1), false, val))
	}
	if size := tableLen(n); size != maxTrackedVersions {
		t.Fatalf("table holds %d entries, bound is %d", size, maxTrackedVersions)
	}
	before := since(base)
	// The put that makes the first eviction is decided before it evicts.
	if before.Blind != maxTrackedVersions+1 || before.Compared != extra-1 {
		t.Fatalf("first puts: %+v, want %d blind until the first eviction and %d compared after it", before, maxTrackedVersions+1, extra-1)
	}
	// A second, newer round: keys still in the table go blind, the evicted
	// ones compare; an older record loses on every key either way.
	for i := 0; i < total; i++ {
		key := fmt.Sprintf("key-%06d", i)
		putRec(t, n, key, appendRecord(nil, uint64(total+i+1), false, val))
	}
	after := since(base)
	if compared := after.Compared - before.Compared; compared < extra || compared == int64(total) {
		t.Fatalf("second round compared %d puts, want at least the %d evicted keys and not all %d", compared, extra, total)
	}
	for i := 0; i < total; i += 97 {
		key := fmt.Sprintf("key-%06d", i)
		putRec(t, n, key, appendRecord(nil, uint64(i+1), false, []byte("stale")))
		rec, ok := validRecord(stored(t, n, key))
		if !ok || rec.version != uint64(total+i+1) {
			t.Fatalf("%s holds version %d (valid=%v), want %d", key, rec.version, ok, total+i+1)
		}
	}
	// Digests agree with the store for evicted and resident keys alike; an
	// evicted key re-enters by evicting another, so the table stays full.
	gets := n.Store().Stats().Gets
	for i := 0; i < total; i++ {
		key := fmt.Sprintf("key-%06d", i)
		want := appendRecord(nil, uint64(total+i+1), false, val)[:recHeaderLen]
		if d, err := digestOf(n, key); err != nil || !bytes.Equal(d[1:], want) {
			t.Fatalf("digest of %s = %x, %v, want header %x", key, d, err, want)
		}
	}
	if reads := n.Store().Stats().Gets - gets; reads < extra || reads == int64(total) {
		t.Fatalf("%d digests read the store %d times, want at least the %d evicted keys and not all", total, reads, extra)
	}
	if size := tableLen(n); size != maxTrackedVersions {
		t.Fatalf("table holds %d entries after the digests, bound is %d", size, maxTrackedVersions)
	}
}

// A put whose store write fails may still have reached the store (here: the
// flush it triggers builds the table, then the checkpoint's table write
// fails). The version table must forget the key, or the next in-between
// version would overwrite the newer record blind.
func TestNodeFailedPutForgetsVersion(t *testing.T) {
	fp := kvstore.NewFaultPersister(kvstore.NewMemPersister())
	n := testNode(t, WithNodePersister(fp), WithNodeStoreOptions(kvstore.WithMemtableBytes(1)))
	putRec(t, n, "k", appendRecord(nil, 1, false, []byte("one")))
	putRec(t, n, "k", appendRecord(nil, 2, false, []byte("two")))

	fp.FailBlobs(true)
	_, err := n.handlePut(tctx, appendKeyRecord(nil, []byte("k"), appendRecord(nil, 9, false, []byte("nine"))), rpc.Coded{})
	if !errors.Is(err, kvstore.ErrInjected) {
		t.Fatalf("put with a failing checkpoint: err = %v, want the injected fault", err)
	}
	fp.FailBlobs(false)
	if rec, ok := validRecord(stored(t, n, "k")); !ok || rec.version != 9 {
		t.Fatalf("precondition: the failed put should sit in the store, found version %d", rec.version)
	}
	if tracked(n, "k") {
		t.Fatal("the failed put left its key in the table")
	}
	// A digest now reads the store, so it reports what is there, not what
	// the table last believed.
	if d, err := digestOf(n, "k"); err != nil || binary.LittleEndian.Uint64(d[1:9]) != 9 {
		t.Fatalf("digest after the failed put = %x, %v, want version 9", d, err)
	}
	n.forget([]byte("k")) // the rest checks the put path from a cold entry
	putRec(t, n, "k", appendRecord(nil, 5, false, []byte("five")))
	if rec, ok := validRecord(stored(t, n, "k")); !ok || rec.version != 9 {
		t.Fatalf("version 5 overwrote version 9 after a failed put (stored version %d)", rec.version)
	}
}

// Restart begins with a cold table: the first put of each key after a crash
// compares, whatever the table held before.
func TestNodeRestartColdTable(t *testing.T) {
	n := testNode(t, WithNodeStoreOptions(kvstore.WithWAL(kvstore.SyncOnCheckpoint)))
	putRec(t, n, "k", appendRecord(nil, 1, false, []byte("one")))
	if err := n.Store().Flush(tctx); err != nil {
		t.Fatal(err)
	}
	putRec(t, n, "k", appendRecord(nil, 8, false, []byte("eight"))) // blind, unsynced
	n.Crash()
	if err := n.Restart(tctx); err != nil {
		t.Fatal(err)
	}
	if rec, ok := validRecord(stored(t, n, "k")); !ok || rec.version != 1 {
		t.Fatalf("after crash the store holds version %d, want the checkpointed 1", rec.version)
	}
	before := counted()
	putRec(t, n, "k", appendRecord(nil, 4, false, []byte("four")))
	after := counted()
	if after.Compared != before.Compared+1 || after.Blind != before.Blind {
		t.Fatalf("first put after restart: %+v → %+v, want one compared put", before, after)
	}
	if rec, ok := validRecord(stored(t, n, "k")); !ok || rec.version != 4 {
		t.Fatalf("version 4 not stored after restart (stored version %d)", rec.version)
	}
}

// On a healthy cluster every overwrite of a known key is blind on all of
// its replicas: the counters sum to replication × puts. So is the preload:
// the nodes are fresh, so their tables hold every key their stores do.
func TestClusterOverwritesAreBlind(t *testing.T) {
	c := testCluster(t, 3)
	base := counted()
	const keys, rounds = 50, 4
	put := func(round int) {
		for k := 0; k < keys; k++ {
			if err := c.Put(tctx, []byte(fmt.Sprintf("user:%04d", k)), []byte(fmt.Sprintf("round-%d", round))); err != nil {
				t.Fatal(err)
			}
		}
	}
	put(0)
	preload := since(base)
	if preload.Blind != 3*keys || preload.Compared != 0 {
		t.Fatalf("preload: %+v, want %d blind puts", preload, 3*keys)
	}
	for r := 1; r <= rounds; r++ {
		put(r)
	}
	if st := since(base); st.Blind-preload.Blind != 3*keys*rounds || st.Compared != preload.Compared {
		t.Fatalf("overwrites: %+v, want %d blind and no more compared than the preload's %d", st, 3*keys*rounds, preload.Compared)
	}
	// A healthy read repairs nothing and so puts nothing.
	for k := 0; k < keys; k++ {
		v, ok, err := c.Get(tctx, []byte(fmt.Sprintf("user:%04d", k)))
		if err != nil || !ok || string(v) != fmt.Sprintf("round-%d", rounds) {
			t.Fatalf("get user:%04d = %q ok=%v err=%v", k, v, ok, err)
		}
	}
	if st := since(base); st.Blind-preload.Blind != 3*keys*rounds || st.Compared != preload.Compared {
		t.Fatalf("reads changed the put counters: %+v", st)
	}
}

// TestPutRequestFraming: the kv.put request a coordinator builds in one
// buffer is byte for byte the two-step framing (record, then a batch body
// holding key → record), growing its buffer at most once and
// a buffer that fits not at all, and so is a re-framed record (read-repair,
// rebalance) and a replica's tombstone put.
func TestPutRequestFraming(t *testing.T) {
	for _, c := range []struct {
		key       []byte
		version   uint64
		tombstone bool
		payload   []byte
	}{
		{[]byte("k"), 1, false, []byte("v")},
		{[]byte("user:0042"), 1 << 40, false, bytes.Repeat([]byte("2 KiB value "), 170)},
		{bytes.Repeat([]byte("long-key"), 40), 7, false, nil}, // a two-byte key length
		{[]byte("gone"), 9, true, nil},
	} {
		twoStep := appendKeyRecord(nil, c.key, appendRecord(nil, c.version, c.tombstone, c.payload))
		req := appendPutRequest(nil, c.key, c.version, c.tombstone, c.payload)
		if !bytes.Equal(req, twoStep) {
			t.Fatalf("key %.12q: appendPutRequest = %d bytes, want the %d of the two-step framing", c.key, len(req), len(twoStep))
		}
		if again := appendPutRequest(req[:1], c.key, c.version, c.tombstone, c.payload); !bytes.Equal(again[1:], twoStep) {
			t.Fatalf("key %.12q: appended behind a prefix, the request differs from the two-step framing", c.key)
		}
		_, rec, err := kvstore.ParsePutBody(twoStep)
		if err != nil {
			t.Fatalf("key %.12q: %v", c.key, err)
		}
		if reframed := appendKeyRecord(nil, c.key, rec); !bytes.Equal(reframed, twoStep) {
			t.Fatalf("key %.12q: re-framed record differs from the two-step framing", c.key)
		}
		if testing.CoverMode() != "" {
			continue
		}
		if got := testing.AllocsPerRun(10, func() { appendPutRequest(nil, c.key, c.version, c.tombstone, c.payload) }); got > 1 {
			t.Fatalf("key %.12q: appendPutRequest into nil makes %v allocations, want one", c.key, got)
		}
		if got := testing.AllocsPerRun(10, func() { appendPutRequest(req[:0], c.key, c.version, c.tombstone, c.payload) }); got != 0 {
			t.Fatalf("key %.12q: appendPutRequest into a buffer that fits makes %v allocations, want none", c.key, got)
		}
	}

	n := testNode(t)
	putRec(t, n, "k", appendRecord(nil, 3, false, []byte("three")))
	delRec(t, n, "k", 4)
	if got, want := stored(t, n, "k"), appendRecord(nil, 4, true, nil); !bytes.Equal(got, want) {
		t.Fatalf("after a delete the replica stores %x, want tombstone %x", got, want)
	}
}

// storeOf returns the node's live store without Store(), whose call would
// end the version table's exhaustive claim.
func storeOf(t *testing.T, n *Node) *kvstore.DB {
	t.Helper()
	db, err := n.store()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestFreshNodeBlindPuts: a node whose store opened empty holds every stored
// key in its version table, so a put of a new key is blind and a digest of
// an unknown key answers "none" without reading the store. An eviction, a
// failed put, a corrupt read or a Store() call ends that for good, and a
// restart over a non-empty store never starts it. Blind or not, an older
// record never replaces a newer one.
func TestFreshNodeBlindPuts(t *testing.T) {
	// expect digests an unknown key and puts a new one, and checks both
	// against the table's claim: no store read and a blind put while it is
	// exhaustive, a read for each and a compared put once it is not.
	expect := func(t *testing.T, n *Node, key string, exhaustive bool) {
		t.Helper()
		gets, before := storeOf(t, n).Stats().Gets, counted()
		if d, err := digestOf(n, "unknown-"+key); err != nil || !bytes.Equal(d, []byte{0x00}) {
			t.Fatalf("digest of an unknown key = %x, %v, want 00", d, err)
		}
		putRec(t, n, key, appendRecord(nil, 1, false, []byte(key)))
		after, reads := counted(), storeOf(t, n).Stats().Gets-gets
		blind, compared := after.Blind-before.Blind, after.Compared-before.Compared
		if exhaustive && (blind != 1 || compared != 0 || reads != 0) {
			t.Fatalf("exhaustive table: new %s took %d blind and %d compared puts and %d store reads, want 1 blind and no read", key, blind, compared, reads)
		}
		if !exhaustive && (blind != 0 || compared != 1 || reads != 2) {
			t.Fatalf("table no longer exhaustive: new %s took %d blind and %d compared puts and %d store reads, want 1 compared and 2 reads", key, blind, compared, reads)
		}
	}
	// holds checks what the store holds for key, read without Store().
	holds := func(t *testing.T, n *Node, key string, version uint64, payload string) {
		t.Helper()
		raw, _, err := storeOf(t, n).Get(tctx, []byte(key))
		if rec, ok := validRecord(raw); err != nil || !ok || rec.version != version || string(rec.payload) != payload || rec.tombstone {
			t.Fatalf("%s holds version %d %q (valid=%v, err=%v), want version %d %q", key, rec.version, rec.payload, ok, err, version, payload)
		}
	}

	t.Run("older-loses", func(t *testing.T) {
		n := testNode(t)
		base := counted()
		expect(t, n, "a", true)
		putRec(t, n, "k", appendRecord(nil, 10, false, []byte("ten"))) // blind: new key
		putRec(t, n, "k", appendRecord(nil, 5, false, []byte("five")))
		putRec(t, n, "k", appendRecord(nil, 10, false, []byte("ten")))
		delRec(t, n, "k", 7)
		holds(t, n, "k", 10, "ten")
		if st := since(base); st.Blind != 2 || st.Compared != 3 {
			t.Fatalf("put paths = %+v, want 2 blind (two new keys) and 3 compared", st)
		}
		if d, err := digestOf(n, "k"); err != nil || binary.LittleEndian.Uint64(d[1:9]) != 10 {
			t.Fatalf("digest of k = %x, %v, want version 10", d, err)
		}
		expect(t, n, "b", true) // none of that ended the claim
	})
	t.Run("restart", func(t *testing.T) {
		n := testNode(t)
		if err := n.Stop(); err != nil {
			t.Fatal(err)
		}
		if err := n.Restart(tctx); err != nil {
			t.Fatal(err)
		}
		expect(t, n, "a", true) // an empty store reopens empty
		if err := n.Stop(); err != nil {
			t.Fatal(err)
		}
		if err := n.Restart(tctx); err != nil {
			t.Fatal(err)
		}
		holds(t, n, "a", 1, "a")
		expect(t, n, "b", false)
		expect(t, n, "c", false)
	})
	t.Run("eviction", func(t *testing.T) {
		n := testNode(t)
		for i := 0; i < maxTrackedVersions-1; i++ {
			putRec(t, n, fmt.Sprintf("key-%06d", i), appendRecord(nil, 1, false, nil))
		}
		expect(t, n, "last", true) // fills the table
		expect(t, n, "over", true) // decided blind, then evicts
		expect(t, n, "after", false)
		holds(t, n, "over", 1, "over")
	})
	t.Run("failed-put", func(t *testing.T) {
		fp := kvstore.NewFaultPersister(kvstore.NewMemPersister())
		n := testNode(t, WithNodePersister(fp), WithNodeStoreOptions(kvstore.WithMemtableBytes(1)))
		expect(t, n, "a", true)
		fp.FailBlobs(true)
		if _, err := n.handlePut(tctx, appendKeyRecord(nil, []byte("b"), appendRecord(nil, 9, false, []byte("nine"))), rpc.Coded{}); !errors.Is(err, kvstore.ErrInjected) {
			t.Fatalf("put with a failing checkpoint: err = %v, want the injected fault", err)
		}
		fp.FailBlobs(false)
		expect(t, n, "c", false)
		// b may sit in the store untracked: an older b must compare and lose.
		putRec(t, n, "b", appendRecord(nil, 4, false, []byte("four")))
		holds(t, n, "b", 9, "nine")
	})
	t.Run("corrupt-read", func(t *testing.T) {
		n := testNode(t)
		expect(t, n, "a", true)
		bad := appendRecord(nil, 1, false, []byte("a"))
		bad[len(bad)-1] ^= 0xFF
		if err := storeOf(t, n).Put(tctx, []byte("a"), bad); err != nil { // rot under the store
			t.Fatal(err)
		}
		if got, err := n.handleGet(tctx, nil, []byte("a")); err != nil || !bytes.Equal(got[1:], bad) {
			t.Fatalf("get of the rotten record = %x, %v", got, err)
		}
		expect(t, n, "b", false)
	})
	t.Run("store-call", func(t *testing.T) {
		n := testNode(t)
		expect(t, n, "a", true)
		n.Store()
		expect(t, n, "b", false)
	})
}

// TestClusterDictPutWALCodings: a put coded against the cluster dictionary
// is logged by every replica as it arrived, in the WAL's dictionary form:
// each put adds one record to each log and wal_codings_per_put, the
// records the replicas code themselves, reads 0.
func TestClusterDictPutWALCodings(t *testing.T) {
	c := testCluster(t, 3)
	keys, acked := putDictKeys(t, c, 40)
	type logged struct{ appends, coded int64 }
	logs := func() (l []logged) {
		for _, name := range c.Nodes() {
			st := storeOf(t, c.Node(name)).Stats()
			l = append(l, logged{st.WALAppends, st.WALCoded})
		}
		return l
	}
	before := logs()
	for i, k := range keys {
		putAcked(t, c, acked, k, corpus.Records(int64(2000+i), 2<<10))
	}
	for i, now := range logs() {
		if now.appends-before[i].appends != int64(len(keys)) || now.coded != before[i].coded {
			t.Fatalf("node %d: %d records for %d puts, %d coded by the replica; want one each and none",
				i, now.appends-before[i].appends, len(keys), now.coded-before[i].coded)
		}
	}
}
