package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"unsafe"

	"github.com/datacomp/datacomp/internal/corpus"
	"github.com/datacomp/datacomp/internal/kvstore"
	"github.com/datacomp/datacomp/internal/rpc"
	"github.com/datacomp/datacomp/internal/trace"
)

// replyCounts are the reply-cache counters' growth since a replyCounted().
type replyCounts struct{ hits, misses int64 }

func replyCounted() replyCounts {
	return replyCounts{cmReplyHits.Value(), cmReplyMisses.Value()}
}

func replySince(before replyCounts) replyCounts {
	now := replyCounted()
	return replyCounts{now.hits - before.hits, now.misses - before.misses}
}

// cachedKey returns a key of keys whose first owner is node-0, and that
// node, after a get of another such key: the coordinator has fetched the
// node's dictionary, so the key's first get is one kv.get, not a get the
// fetch sends again.
func cachedKey(t *testing.T, c *Cluster, keys [][]byte) ([]byte, *Node) {
	t.Helper()
	ks := firstOwnedBy(t, c, keys, "node-0")
	if _, _, err := c.Get(tctx, ks[1]); err != nil {
		t.Fatal(err)
	}
	return ks[0], c.Node("node-0")
}

// retained is what the cache holds: the arena and its index once
// allocated, nothing before.
func (c *replyCache) retained() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.arena) + len(c.index)*int(unsafe.Sizeof(replySlot{}))
}

// storeGets is how many reads the node's store served.
func storeGets(t *testing.T, n *Node) int64 {
	t.Helper()
	return storeOf(t, n).Stats().Gets
}

// TestReplyCachePutAfterGet: a second get of a record is served from its
// first owner's reply cache without a store read, and a put after it makes
// the next get miss and return the new value, which is then cached in turn.
func TestReplyCachePutAfterGet(t *testing.T) {
	c := testCluster(t, 3)
	keys, acked := dictKeys(t, c, 60)
	k, n := cachedKey(t, c, keys)
	base := replyCounted()
	getAcked(t, c, acked, k)
	if d := replySince(base); d.hits != 0 || d.misses != 1 {
		t.Fatalf("first get: %+v, want one miss", d)
	}
	reads := storeGets(t, n)
	getAcked(t, c, acked, k)
	if d := replySince(base); d.hits != 1 {
		t.Fatalf("second get: %+v, want one hit", d)
	}
	if r := storeGets(t, n) - reads; r != 0 {
		t.Fatalf("a cached get read the first owner's store %d times", r)
	}
	putAcked(t, c, acked, k, dictValue(999, 1))
	base = replyCounted()
	getAcked(t, c, acked, k)
	if d := replySince(base); d.hits != 0 || d.misses != 1 {
		t.Fatalf("get after the put: %+v, want a miss", d)
	}
	getAcked(t, c, acked, k)
	if d := replySince(base); d.hits != 1 {
		t.Fatalf("get after the new record was cached: %+v, want a hit", d)
	}
}

// TestReplyCacheRestartAndDrop: a restart, crash or not, leaves the node's
// kept replies unreachable until its version table vouches for the stored
// record again, and a drop from the table does the same: no get after
// either is served from the cache, and every get returns the last acked
// write.
func TestReplyCacheRestartAndDrop(t *testing.T) {
	c := testCluster(t, 3)
	keys, acked := dictKeys(t, c, 60)
	k, n := cachedKey(t, c, keys)
	getAcked(t, c, acked, k)
	getAcked(t, c, acked, k)
	for _, step := range []string{"stop", "crash", "drop"} {
		switch step {
		case "stop":
			if err := n.Stop(); err != nil {
				t.Fatal(err)
			}
		case "crash":
			n.Crash()
		case "drop":
			n.putMu.Lock()
			n.drop(k)
			n.putMu.Unlock()
		}
		if step != "drop" {
			if err := n.Restart(tctx); err != nil {
				t.Fatal(err)
			}
		}
		base := replyCounted()
		getAcked(t, c, acked, k)
		if d := replySince(base); d.hits != 0 {
			t.Fatalf("%s: a get hit the reply cache (%+v)", step, d)
		}
		// A put vouches for the new record; its reply is cached again.
		putAcked(t, c, acked, k, dictValue(500, len(step)))
		getAcked(t, c, acked, k)
		getAcked(t, c, acked, k)
		if d := replySince(base); d.hits != 1 {
			t.Fatalf("%s: after a put and two gets %+v, want one hit", step, d)
		}
	}
}

// TestReplyCacheCorruptNeverCached: a stored record that fails its checksum
// is not kept, whatever the version table says of it; the read is escalated
// and repaired as before, and only the repaired record is cached.
func TestReplyCacheCorruptNeverCached(t *testing.T) {
	c := testCluster(t, 3)
	keys, acked := dictKeys(t, c, 60)
	k, n := cachedKey(t, c, keys)
	db := storeOf(t, n)
	raw, ok, err := db.Get(tctx, k)
	if err != nil || !ok {
		t.Fatalf("direct read: ok=%v err=%v", ok, err)
	}
	hdr := [recHeaderLen]byte(raw)
	bad := bytes.Clone(raw)
	bad[len(bad)-1] ^= 0xFF
	if err := db.Put(tctx, k, bad); err != nil { // rot under the store, the table untold
		t.Fatal(err)
	}
	id := db.Dict().ID
	base, rc := counted(), replyCounted()
	getAcked(t, c, acked, k)
	if st := since(base); st.CorruptReplicas != 1 || st.ReadRepairs != 1 {
		t.Fatalf("corrupt first owner: %+v, want one corrupt replica, repaired", st)
	}
	if _, _, hit := n.replies.appendHit(nil, k, &hdr, id); hit {
		t.Fatal("the corrupt record's reply was kept")
	}
	getAcked(t, c, acked, k)
	getAcked(t, c, acked, k)
	if d := replySince(rc); d.hits != 1 {
		t.Fatalf("gets of the repaired record: %+v, want the last one a hit", d)
	}
}

// TestReplyCacheUntrackedMisses: a key the version table does not hold is
// read from the store and its reply is not kept, and a reply kept before the
// key left the table is not served.
func TestReplyCacheUntrackedMisses(t *testing.T) {
	c := testCluster(t, 3)
	keys, acked := dictKeys(t, c, 60)
	ks := firstOwnedBy(t, c, keys, "node-0")
	n := c.Node("node-0")
	kept, untracked := ks[0], ks[1]
	getAcked(t, c, acked, kept) // kept before its key leaves the table
	n.forget(kept)
	n.forget(untracked)
	base := replyCounted()
	for i := 0; i < 3; i++ {
		reads := storeGets(t, n)
		getAcked(t, c, acked, kept)
		getAcked(t, c, acked, untracked)
		if r := storeGets(t, n) - reads; r != 2 {
			t.Fatalf("round %d: %d store reads for two untracked keys, want 2", i, r)
		}
	}
	if d := replySince(base); d.hits != 0 || d.misses != 0 {
		t.Fatalf("untracked keys: %+v, want no lookup at all", d)
	}
	hdr := [recHeaderLen]byte(stored(t, n, string(untracked)))
	if _, _, hit := n.replies.appendHit(nil, untracked, &hdr, storeOf(t, n).Dict().ID); hit {
		t.Fatal("an untracked key's reply was kept")
	}
}

// TestReplyCacheWrapAround: once fills have gone around the arena several
// times, every key the index still names but whose entry was overwritten
// misses, every key that hits returns its own coding and raw length, the
// newest entries all hit, a key's refill replaces its entry, and a fill
// that cannot fit before the arena's end starts over at its beginning.
func TestReplyCacheWrapAround(t *testing.T) {
	var c replyCache
	hdrOf := func(i int) []byte {
		h := make([]byte, recHeaderLen)
		binary.LittleEndian.PutUint64(h, uint64(i))
		return h
	}
	codingOf := func(i int) []byte {
		return append(fmt.Appendf(nil, "coding-%d|", i), bytes.Repeat([]byte{byte(i)}, 200+i%300)...)
	}
	keyOf := func(i int) []byte { return fmt.Appendf(nil, "key-%06d", i) }
	const n = 30000 // ≈ 5 passes over the arena
	for i := 0; i < n; i++ {
		c.fill(keyOf(i), hdrOf(i), 7, 1000+i, codingOf(i))
	}
	if c.end < 2*uint64(len(c.arena)) {
		t.Fatalf("%d bytes written, want at least two passes over %d", c.end, len(c.arena))
	}
	hits := 0
	for i := 0; i < n; i++ {
		hdr := [recHeaderLen]byte(hdrOf(i))
		got, raw, ok := c.appendHit(nil, keyOf(i), &hdr, 7)
		if !ok {
			if i >= n-1000 {
				t.Fatalf("key %d of the newest thousand missed", i)
			}
			continue
		}
		hits++
		if !bytes.Equal(got, codingOf(i)) || raw != 1000+i {
			t.Fatalf("key %d hit another entry's bytes (raw %d)", i, raw)
		}
		if _, _, ok := c.appendHit(nil, keyOf(i), &hdr, 8); ok {
			t.Fatalf("key %d hit under another dictionary", i)
		}
	}
	if hits >= n/2 {
		t.Fatalf("%d of %d keys hit: the arena holds only the newest few thousand", hits, n)
	}
	// The first keys' entries were overwritten long ago; the index may still
	// name some of them.
	for i := 0; i < 100; i++ {
		hdr := [recHeaderLen]byte(hdrOf(i))
		if _, _, ok := c.appendHit(nil, keyOf(i), &hdr, 7); ok {
			t.Fatalf("key %d, overwritten, still hits", i)
		}
	}
	// A refill replaces the key's entry: the old header misses.
	last := n - 1
	c.fill(keyOf(last), hdrOf(last+1), 7, 1, []byte("newer"))
	old, cur := [recHeaderLen]byte(hdrOf(last)), [recHeaderLen]byte(hdrOf(last+1))
	if _, _, ok := c.appendHit(nil, keyOf(last), &old, 7); ok {
		t.Fatal("the replaced entry still hits")
	}
	if got, _, ok := c.appendHit(nil, keyOf(last), &cur, 7); !ok || string(got) != "newer" {
		t.Fatalf("the refilled entry: %q, %v", got, ok)
	}
	// Every entry lies whole inside the arena.
	size := uint64(len(c.arena))
	for _, s := range c.index {
		if s.at == 0 || !c.live(s.at-1) {
			continue
		}
		e := c.arena[(s.at-1)%size:]
		klen, clen := int(binary.LittleEndian.Uint16(e)), int(binary.LittleEndian.Uint32(e[2:]))
		if (s.at-1)%size+uint64(replyEntryHead+klen+clen) > size {
			t.Fatalf("an entry at %d runs past the arena's end", (s.at-1)%size)
		}
	}
	if got := c.retained(); got != replyCacheBytes {
		t.Fatalf("the cache retains %d bytes, want %d", got, replyCacheBytes)
	}
}

// TestReplyCacheDictlessNode: a node whose store has no dictionary codes
// its replies as the link does, keeps none of them and never allocates its
// arena.
func TestReplyCacheDictlessNode(t *testing.T) {
	c := testCluster(t, 3, WithNodeDefaults(WithNodeStoreOptions(kvstore.WithCodec("lz4"))))
	keys, acked := dictKeys(t, c, 60)
	base := replyCounted()
	for i := 0; i < 2; i++ {
		for _, k := range keys {
			getAcked(t, c, acked, k)
		}
	}
	if d := replySince(base); d.hits != 0 || d.misses != 0 {
		t.Fatalf("dictless stores: %+v, want no lookup", d)
	}
	for _, name := range c.Nodes() {
		if r := c.Node(name).replies.retained(); r != 0 {
			t.Fatalf("%s retains %d reply-cache bytes, want 0", name, r)
		}
	}
}

// TestReplyCacheHitIsFreshCoding: the coding a hit sends is byte-identical
// to what a fresh Coder's CodeDict makes of the stored record against the
// store dictionary, with the same raw length, for every key — so a cached
// reply's frame is the frame a miss sends.
func TestReplyCacheHitIsFreshCoding(t *testing.T) {
	c := testCluster(t, 3)
	keys, _ := dictKeys(t, c, 60)
	n := c.Node("node-0")
	db := storeOf(t, n)
	sd := db.Dict()
	d := rpc.Dict{Bytes: sd.Bytes, ID: sd.ID, Level: sd.Level}
	served, err := rpc.NewCoder(n.cfg.comp)
	if err != nil {
		t.Fatal(err)
	}
	defer served.Close()
	fresh, err := rpc.NewCoder(n.cfg.comp)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	base := replyCounted()
	for _, k := range keys {
		for pass := 0; pass < 2; pass++ {
			resp, b, err := n.handleGet(tctx, served, nil, k)
			if err != nil {
				t.Fatal(err)
			}
			want, ok, err := db.AppendGet(tctx, []byte{0x01}, k)
			if err != nil || !ok {
				t.Fatalf("%s: direct read ok=%v err=%v", k, ok, err)
			}
			fb, err := fresh.CodeDict(tctx, MethodGet, want, d)
			if err != nil {
				t.Fatal(err)
			}
			if fb.DictCoding() == nil || !bytes.Equal(b.DictCoding(), fb.DictCoding()) {
				t.Fatalf("%s pass %d: the reply's coding differs from a fresh one", k, pass)
			}
			if pass == 0 && !bytes.Equal(resp, want) {
				t.Fatalf("%s: a miss's reply is not the stored record", k)
			}
			// A hit's reply buffer holds the coding it sends; the raw
			// length it counts is the record's reply's.
			if hb := served.DictBody(MethodGet, len(want), fb.DictCoding()); pass == 1 && !bytes.Equal(hb.DictCoding(), resp) {
				t.Fatalf("%s: the hit's Body does not send its reply buffer", k)
			}
		}
	}
	if d := replySince(base); d.hits != int64(len(keys)) || d.misses != int64(len(keys)) {
		t.Fatalf("%+v over %d keys twice, want one miss then one hit each", d, len(keys))
	}
}

// TestReplyCacheConcurrent: gets and puts of a few 1 KiB records from
// several goroutines at once, so that fills, hits and puts race; every get
// returns a version between the last acked and the last issued put of its
// key. Run under -race.
func TestReplyCacheConcurrent(t *testing.T) {
	c := testCluster(t, 3)
	dictKeys(t, c, 60)
	const writers, keys, ops = 3, 3, 120
	var mu sync.Mutex
	acked, issued := make([]int, keys), make([]int, keys)
	key := func(k int) []byte { return fmt.Appendf(nil, "race-%d", k) }
	value := func(k, v int) []byte { return append(fmt.Appendf(nil, "%08d|", v), corpus.Records(int64(k), 1<<10)...) }
	for k := 0; k < keys; k++ {
		if err := c.Put(tctx, key(k), value(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	base := replyCounted()
	var wg sync.WaitGroup
	for w := 0; w < writers+2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := (w + i) % keys
				if w < writers && k == w && i%4 == 0 {
					mu.Lock()
					issued[k]++
					v := issued[k]
					mu.Unlock()
					if err := c.Put(tctx, key(k), value(k, v)); err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					acked[k] = v
					mu.Unlock()
					continue
				}
				mu.Lock()
				lo := acked[k]
				mu.Unlock()
				got, ok, err := c.Get(tctx, key(k))
				mu.Lock()
				hi := issued[k]
				mu.Unlock()
				if err != nil || !ok {
					t.Errorf("get %d: ok=%v err=%v", k, ok, err)
					return
				}
				v, err := strconv.Atoi(string(got[:8]))
				if err != nil || v < lo || v > hi || !bytes.Equal(got, value(k, v)) {
					t.Errorf("get %d returned version %d (%v), want %d..%d and its value", k, v, err, lo, hi)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if d := replySince(base); d.hits == 0 {
		t.Fatalf("no get hit the reply cache: %+v", d)
	}
}

// TestReplyCacheTracedHit: a get served under a traced span marks a hit on
// it, and a miss marks nothing.
func TestReplyCacheTracedHit(t *testing.T) {
	c := testCluster(t, 3)
	keys, _ := dictKeys(t, c, 60)
	k, n := cachedKey(t, c, keys)
	cd, err := rpc.NewCoder(n.cfg.comp)
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Close()
	rec := trace.NewRecorder(0, 8)
	tracer := trace.New(trace.Config{SampleEvery: 1, Recorder: rec})
	for i := 0; i < 2; i++ {
		ctx, sp := tracer.StartRoot(tctx, "rpc.serve")
		if _, _, err := n.handleGet(ctx, cd, nil, k); err != nil {
			t.Fatal(err)
		}
		sp.End()
	}
	marks := 0
	for _, td := range rec.Snapshot() {
		for _, a := range td.Root().Attrs {
			if a.Key == "reply_cache" && a.Str == "hit" {
				marks++
			}
		}
	}
	if marks != 1 {
		t.Fatalf("%d of a miss and a hit marked a hit, want 1", marks)
	}
}

// TestReplyCacheHitAllocs: a get served from the reply cache allocates
// nothing, and neither does a get that misses, reads the store and fills
// the cache, once the arena exists.
func TestReplyCacheHitAllocs(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	c := testCluster(t, 3)
	keys, _ := dictKeys(t, c, 60)
	k, n := cachedKey(t, c, keys)
	cd, err := rpc.NewCoder(n.cfg.comp)
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Close()
	buf := make([]byte, 0, 4<<10)
	get := func() {
		if _, b, err := n.handleGet(tctx, cd, buf, k); err != nil || b.DictCoding() == nil {
			t.Fatalf("get: %v (coded %v)", err, b.DictCoding() != nil)
		}
	}
	get()
	base := replyCounted()
	if a := testing.AllocsPerRun(200, get); a != 0 {
		t.Errorf("a cached get: %v allocs/op, want 0", a)
	}
	if d := replySince(base); d.misses != 0 {
		t.Fatalf("the hits missed: %+v", d)
	}
	evictAll := func() {
		n.replies.mu.Lock()
		n.replies.end += uint64(len(n.replies.arena))
		n.replies.mu.Unlock()
	}
	missFill := func() {
		evictAll()
		get()
	}
	base = replyCounted()
	if a := testing.AllocsPerRun(200, missFill); a != 0 {
		t.Errorf("a get that misses and fills: %v allocs/op, want 0", a)
	}
	if d := replySince(base); d.hits != 0 {
		t.Fatalf("the evicted gets hit: %+v", d)
	}
}

// TestReplyCacheNodeBudget: a node's reply cache and its store's block
// cache together retain at most nodeCacheBytes, read over a store several
// times larger than either.
func TestReplyCacheNodeBudget(t *testing.T) {
	n := testNode(t)
	const records = 3000 // ≈ 3 MiB of records: three flushes of the default memtable
	keys := make([][]byte, records)
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "budget-%05d", i)
		putRec(t, n, string(keys[i]), appendRecord(nil, 1, false, dictValue(i, 0)))
	}
	flushNode(t, n)
	if storeOf(t, n).Dict().Bytes == nil {
		t.Fatal("the store trained no dictionary")
	}
	cd, err := rpc.NewCoder(n.cfg.comp)
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Close()
	for _, k := range keys {
		if _, _, err := n.handleGet(tctx, cd, nil, k); err != nil {
			t.Fatal(err)
		}
	}
	replies, blocks := n.replies.retained(), int(storeOf(t, n).Stats().BlockCacheBytes)
	t.Logf("reply cache %d B, block cache %d B, budget %d B", replies, blocks, nodeCacheBytes)
	if replies != replyCacheBytes || blocks < (nodeCacheBytes-replyCacheBytes)/2 {
		t.Fatalf("reply cache %d B, block cache %d B: the read should fill both", replies, blocks)
	}
	if replies+blocks > nodeCacheBytes {
		t.Fatalf("reply cache %d B + block cache %d B = %d B, over the node's %d B", replies, blocks, replies+blocks, nodeCacheBytes)
	}
}
