package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/corpus"
	"github.com/datacomp/datacomp/internal/kvstore"
	"github.com/datacomp/datacomp/internal/rpc"
	"github.com/datacomp/datacomp/internal/telemetry"
)

var tctx = context.Background()

// testCluster builds an n-node cluster with mem persisters and registers
// cleanup.
func testCluster(t *testing.T, n int, opts ...Option) *Cluster {
	t.Helper()
	c := New(opts...)
	t.Cleanup(func() { c.Close() })
	for i := 0; i < n; i++ {
		if _, err := c.AddNode(tctx, fmt.Sprintf("node-%d", i)); err != nil {
			t.Fatalf("AddNode: %v", err)
		}
	}
	return c
}

// counts are the process-wide counters the tests assert on. A test takes
// their growth across its own operations (since); the package's tests run
// one at a time, so no other test adds to it.
type counts struct {
	ReadRepairs, CorruptReplicas, RebalancedRecords int64
	DigestReads, FullReads, EscalatedReads          int64
	DictFetches                                     int64
	DictFrames                                      int64 // rpc_dict_frames_total: each coded reply's sender and decoder count it
	Blind, Compared                                 int64 // replica puts by the path handlePut took
}

var rpcDictFrames = telemetry.Default.Counter("rpc_dict_frames_total", "")

func counted() counts {
	return counts{
		ReadRepairs:       cmRepairs.Value(),
		CorruptReplicas:   cmCorrupt.Value(),
		RebalancedRecords: cmRebalancedRecords.Value(),
		DigestReads:       cmGetDigest.Value(),
		FullReads:         cmGetFull.Value(),
		EscalatedReads:    cmGetEscalated.Value(),
		DictFetches:       cmDictFetches.Value(),
		DictFrames:        rpcDictFrames.Value(),
		Blind:             cmPutBlind.Value(),
		Compared:          cmPutCompared.Value(),
	}
}

// since is each counter's growth from before to now.
func since(before counts) counts {
	now := counted()
	return counts{
		ReadRepairs:       now.ReadRepairs - before.ReadRepairs,
		CorruptReplicas:   now.CorruptReplicas - before.CorruptReplicas,
		RebalancedRecords: now.RebalancedRecords - before.RebalancedRecords,
		DigestReads:       now.DigestReads - before.DigestReads,
		FullReads:         now.FullReads - before.FullReads,
		EscalatedReads:    now.EscalatedReads - before.EscalatedReads,
		DictFetches:       now.DictFetches - before.DictFetches,
		DictFrames:        now.DictFrames - before.DictFrames,
		Blind:             now.Blind - before.Blind,
		Compared:          now.Compared - before.Compared,
	}
}

// ownerNodes returns key's owners in ring order: a get asks the first for the
// record and the others for a digest.
func ownerNodes(t *testing.T, c *Cluster, key []byte) []*Node {
	t.Helper()
	o, err := c.owners(key)
	if err != nil {
		t.Fatal(err)
	}
	defer o.release()
	nodes := make([]*Node, len(o.reps))
	for i, r := range o.reps {
		nodes[i] = r.pool.node
	}
	return nodes
}

// forget drops key from the node's version table: what a Store() backdoor
// writer owes the node when a digest must see the write (see Node.Store).
func (n *Node) forget(key []byte) {
	n.putMu.Lock()
	delete(n.versions, string(key))
	n.putMu.Unlock()
}

// endExhaustive ends the version table's claim to hold every stored key,
// as an eviction or a Store() call does in the node's own life: from here
// on a key the table lacks is read from the store on its next put or
// digest.
func (n *Node) endExhaustive() {
	n.putMu.Lock()
	n.exhaustive = false
	n.putMu.Unlock()
}

func TestClusterPutGetDelete(t *testing.T) {
	c := testCluster(t, 3)
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("key-%03d", i))
		if err := c.Put(tctx, k, []byte(fmt.Sprintf("val-%03d", i))); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
	}
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("key-%03d", i))
		v, ok, err := c.Get(tctx, k)
		if err != nil || !ok {
			t.Fatalf("get %s: ok=%v err=%v", k, ok, err)
		}
		if want := fmt.Sprintf("val-%03d", i); string(v) != want {
			t.Fatalf("get %s = %q, want %q", k, v, want)
		}
	}
	if err := c.Delete(tctx, []byte("key-050")); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, ok, err := c.Get(tctx, []byte("key-050")); err != nil || ok {
		t.Fatalf("deleted key visible: ok=%v err=%v", ok, err)
	}
	if _, ok, err := c.Get(tctx, []byte("never-written")); err != nil || ok {
		t.Fatalf("phantom key: ok=%v err=%v", ok, err)
	}
}

func TestClusterOverwriteLatestWins(t *testing.T) {
	c := testCluster(t, 3)
	k := []byte("counter")
	for i := 0; i < 50; i++ {
		if err := c.Put(tctx, k, []byte(fmt.Sprintf("gen-%d", i))); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	v, ok, err := c.Get(tctx, k)
	if err != nil || !ok || string(v) != "gen-49" {
		t.Fatalf("get = %q ok=%v err=%v, want gen-49", v, ok, err)
	}
}

// replicaRecords reads key directly from each member's store, bypassing
// the quorum path.
func replicaRecords(t *testing.T, c *Cluster, key []byte) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, name := range c.Nodes() {
		n := c.Node(name)
		db := n.Store()
		if db == nil {
			continue
		}
		v, ok, err := db.Get(tctx, key)
		if err != nil {
			t.Fatalf("direct get on %s: %v", name, err)
		}
		if ok {
			out[name] = v
		}
	}
	return out
}

func TestClusterReplicationFanout(t *testing.T) {
	c := testCluster(t, 5)
	k := []byte("replicated-key")
	if err := c.Put(tctx, k, []byte("hello")); err != nil {
		t.Fatalf("put: %v", err)
	}
	recs := replicaRecords(t, c, k)
	if len(recs) != 3 {
		t.Fatalf("record on %d nodes, want replication factor 3: %v", len(recs), keysOf(recs))
	}
}

func keysOf(m map[string][]byte) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestClusterReadRepairCorruptReplica(t *testing.T) {
	c := testCluster(t, 3)
	base := counted()
	k := []byte("precious")
	if err := c.Put(tctx, k, []byte("intact-value")); err != nil {
		t.Fatalf("put: %v", err)
	}

	// Corrupt the data owner's replica in place: flip payload bits so the
	// record checksum no longer matches.
	victim := ownerNodes(t, c, k)[0]
	db := victim.Store()
	raw, ok, err := db.Get(tctx, k)
	if err != nil || !ok {
		t.Fatalf("victim read: ok=%v err=%v", ok, err)
	}
	bad := append([]byte{}, raw...)
	bad[len(bad)-1] ^= 0xFF
	if err := db.Put(tctx, k, bad); err != nil {
		t.Fatalf("corrupt put: %v", err)
	}

	// The quorum read must still return the intact value — served by the
	// next owner — and repair the victim.
	v, ok, err := c.Get(tctx, k)
	if err != nil || !ok || string(v) != "intact-value" {
		t.Fatalf("get after corruption = %q ok=%v err=%v", v, ok, err)
	}
	st := since(base)
	if st.CorruptReplicas == 0 {
		t.Fatal("corrupt replica not detected")
	}
	if st.EscalatedReads != 1 {
		t.Fatalf("escalated reads = %d, want the one kv.get to the next owner", st.EscalatedReads)
	}
	if st.ReadRepairs == 0 {
		t.Fatal("no read-repair issued")
	}
	fixed, ok, err := db.Get(tctx, k)
	if err != nil || !ok {
		t.Fatalf("victim read after repair: ok=%v err=%v", ok, err)
	}
	rec, perr := parseRecord(fixed)
	if perr != nil || !rec.sumOK(fixed) {
		t.Fatalf("victim record still invalid after repair: %v", perr)
	}
	if string(rec.payload) != "intact-value" {
		t.Fatalf("repaired payload = %q", rec.payload)
	}
}

func TestClusterReadRepairStaleReplica(t *testing.T) {
	c := testCluster(t, 3)
	k := []byte("versioned")
	if err := c.Put(tctx, k, []byte("v0")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(tctx, k, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// Roll one replica back to an older record.
	victim := ownerNodes(t, c, k)[0]
	stale := appendRecord(nil, 1, false, []byte("ancient"))
	if err := victim.Store().Put(tctx, k, stale); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get(tctx, k)
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("get = %q ok=%v err=%v, want v1", v, ok, err)
	}
	got, ok, err := victim.Store().Get(tctx, k)
	if err != nil || !ok {
		t.Fatalf("victim read: %v", err)
	}
	rec, perr := parseRecord(got)
	if perr != nil || string(rec.payload) != "v1" {
		t.Fatalf("stale replica not repaired: payload=%q err=%v", rec.payload, perr)
	}
}

func TestClusterNodeCrashNoLostAckedWrites(t *testing.T) {
	c := testCluster(t, 3)
	const writes = 200
	for i := 0; i < writes; i++ {
		k := []byte(fmt.Sprintf("durable-%03d", i))
		if err := c.Put(tctx, k, []byte(fmt.Sprintf("v-%03d", i))); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
	}

	// Kill one node hard (unsynced state lost), then keep serving: quorum
	// reads must still see every acked write.
	crashed := c.Node("node-1")
	crashed.Crash()
	for i := 0; i < writes; i++ {
		k := []byte(fmt.Sprintf("durable-%03d", i))
		v, ok, err := c.Get(tctx, k)
		if err != nil || !ok {
			t.Fatalf("lost acked write %s with node down: ok=%v err=%v", k, ok, err)
		}
		if want := fmt.Sprintf("v-%03d", i); string(v) != want {
			t.Fatalf("get %s = %q want %q", k, v, want)
		}
	}

	// Restart: the node recovers from its fsynced WAL and serves again.
	if err := crashed.Restart(tctx); err != nil {
		t.Fatalf("restart: %v", err)
	}
	for i := 0; i < writes; i++ {
		k := []byte(fmt.Sprintf("durable-%03d", i))
		if _, ok, err := c.Get(tctx, k); err != nil || !ok {
			t.Fatalf("lost acked write %s after restart: ok=%v err=%v", k, ok, err)
		}
	}
	// And the recovered node holds real data locally for its keys.
	if db := crashed.Store(); db == nil || db.Seq() == 0 {
		t.Fatal("restarted node recovered nothing")
	}
}

// arrivedCoded reports whether the kv.put of key→value at version, coded
// against d (the zero Dict: as the default links code), travels coded: it
// is at least MinSize and smaller coded, the rule rpc.Coder applies.
func arrivedCoded(t *testing.T, key, value []byte, version uint64, d rpc.Dict) bool {
	t.Helper()
	body := appendPutRequest(nil, key, version, false, value)
	if len(body) < rpc.MinSize {
		return false
	}
	eng, err := codec.NewEngine(defaultCompression.Codec, codec.WithLevel(defaultCompression.Level), codec.WithChecksum(true))
	if d.Bytes != nil {
		eng, err = codec.NewEngine("zstd", codec.WithLevel(d.Level), codec.WithDict(d.Bytes), codec.WithChecksum(true))
	}
	if err != nil {
		t.Fatal(err)
	}
	coded, err := eng.Compress(nil, body)
	if err != nil {
		t.Fatal(err)
	}
	return len(coded) < len(body)
}

// TestClusterCodedWALCrashRestart makes puts over the default links (lz4-1,
// the WAL codec too, until the cluster dictionary is trained, then zstd
// against it) and crashes a node: every replica log keeps the coding of
// each put that arrived coded and codes the rest itself — records below
// MinSize, incompressible ones and tombstones — and the restarted node
// replays both into exactly the acked records.
func TestClusterCodedWALCrashRestart(t *testing.T) { codedWALCrashRestart(t, "lz4") }

// TestClusterCodedWALCrashRestartZstdWAL is the same on nodes whose WAL
// codec is zstd: the logs keep the puts coded against the cluster
// dictionary in the record form that names it and code the lz4-coded ones
// themselves, and the restart replays every acked put.
func TestClusterCodedWALCrashRestartZstdWAL(t *testing.T) { codedWALCrashRestart(t, "zstd") }

func codedWALCrashRestart(t *testing.T, walCodec string) {
	c := testCluster(t, 3, WithNodeDefaults(WithNodeStoreOptions(kvstore.WithWALCodec(walCodec))))
	incompressible := make([]byte, 1<<10)
	rand.New(rand.NewSource(1)).Read(incompressible)
	want := map[string][]byte{}
	linkCoded := 0 // puts each replica should log as they arrived coded
	dictCoded := 0 // of them, puts coded against the cluster dictionary
	for i := 0; i < 240; i++ {
		key := fmt.Sprintf("coded-%03d", i%200) // the last 40 overwrite
		var value []byte
		switch i % 4 {
		case 0:
			value = corpus.Records(int64(i), 64) // below MinSize
		case 1:
			value = append(append([]byte{}, incompressible...), byte(i)) // not smaller lz4-coded
		default:
			value = corpus.Records(int64(i), 600+7*i)
		}
		var d rpc.Dict
		if cur := c.putDict.cur.Load(); cur != nil {
			d = *cur
		}
		if err := c.Put(tctx, []byte(key), value); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
		if arrivedCoded(t, []byte(key), value, c.version.Load(), d) && (d.Bytes != nil || walCodec == defaultCompression.Codec) {
			linkCoded++
			if d.Bytes != nil {
				dictCoded++
			}
		}
		want[key] = value
		if i%25 == 24 {
			if err := c.Delete(tctx, []byte(key)); err != nil {
				t.Fatalf("delete %s: %v", key, err)
			}
			delete(want, key)
		}
	}
	for _, name := range []string{"node-0", "node-1", "node-2"} {
		db, err := c.Node(name).store()
		if err != nil {
			t.Fatal(err)
		}
		if st := db.Stats(); st.WALAppends-st.WALCoded != int64(linkCoded) {
			t.Fatalf("%s logged %d of %d records as they arrived, want the %d coded puts", name, st.WALAppends-st.WALCoded, st.WALAppends, linkCoded)
		}
	}
	if dictCoded == 0 || dictCoded == linkCoded && walCodec == defaultCompression.Codec {
		t.Fatalf("%d of %d coded puts against the cluster dictionary: the test needs both codings", dictCoded, linkCoded)
	}

	crashed := c.Node("node-1")
	before, err := crashed.store()
	if err != nil {
		t.Fatal(err)
	}
	seq := before.Seq()
	crashed.Crash()
	if err := crashed.Restart(tctx); err != nil {
		t.Fatal(err)
	}
	db, err := crashed.store()
	if err != nil {
		t.Fatal(err)
	}
	if db.Seq() != seq || db.Stats().ReplayedBatches != int64(seq) {
		t.Fatalf("restart replayed %d batches to seq %d, want all %d", db.Stats().ReplayedBatches, db.Seq(), seq)
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("coded-%03d", i)
		raw, ok, err := db.Get(tctx, []byte(key))
		if err != nil || !ok {
			t.Fatalf("%s: restarted replica lost its record: ok=%v err=%v", key, ok, err)
		}
		rec, valid := validRecord(raw)
		if v, live := want[key]; !valid || rec.tombstone == live || live && !bytes.Equal(rec.payload, v) {
			t.Fatalf("%s: replica replayed a wrong record (valid %v, tombstone %v)", key, valid, rec.tombstone)
		}
		v, ok, err := c.Get(tctx, []byte(key))
		if err != nil || ok != (want[key] != nil) || !bytes.Equal(v, want[key]) {
			t.Fatalf("get %s after restart: %d bytes ok=%v err=%v", key, len(v), ok, err)
		}
	}
}

func TestClusterWritesFailWithoutQuorum(t *testing.T) {
	c := testCluster(t, 3)
	c.Node("node-0").Crash()
	c.Node("node-1").Crash()
	// Only 1 of 3 replicas up: every write must fail with ErrNoQuorum.
	err := c.Put(tctx, []byte("k"), []byte("v"))
	if !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("put with 1/3 nodes = %v, want ErrNoQuorum", err)
	}
	if _, _, err := c.Get(tctx, []byte("k")); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("get with 1/3 nodes = %v, want ErrNoQuorum", err)
	}
}

func TestClusterJoinLeaveRebalance(t *testing.T) {
	c := testCluster(t, 3)
	base := counted()
	const keys = 120
	for i := 0; i < keys; i++ {
		k := []byte(fmt.Sprintf("rb-%03d", i))
		if err := c.Put(tctx, k, []byte(fmt.Sprintf("val-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// Join a fourth node; rebalancing must copy its share over.
	if _, err := c.AddNode(tctx, "node-3"); err != nil {
		t.Fatalf("join: %v", err)
	}
	if since(base).RebalancedRecords == 0 {
		t.Fatal("join rebalanced nothing")
	}
	for i := 0; i < keys; i++ {
		k := []byte(fmt.Sprintf("rb-%03d", i))
		v, ok, err := c.Get(tctx, k)
		if err != nil || !ok || !bytes.Equal(v, []byte(fmt.Sprintf("val-%03d", i))) {
			t.Fatalf("after join, get %s = %q ok=%v err=%v", k, v, ok, err)
		}
	}

	// The new node actually owns data.
	if db := c.Node("node-3").Store(); db == nil || db.Seq() == 0 {
		t.Fatal("joined node received no records")
	}

	// Leave: drain node-0 and verify nothing is lost once it's gone.
	n0 := c.Node("node-0")
	if err := c.Leave(tctx, "node-0"); err != nil {
		t.Fatalf("leave: %v", err)
	}
	if c.Node("node-0") != nil {
		t.Fatal("node-0 still a member after leave")
	}
	if err := n0.Stop(); err != nil {
		t.Fatalf("stop after leave: %v", err)
	}
	for i := 0; i < keys; i++ {
		k := []byte(fmt.Sprintf("rb-%03d", i))
		v, ok, err := c.Get(tctx, k)
		if err != nil || !ok || !bytes.Equal(v, []byte(fmt.Sprintf("val-%03d", i))) {
			t.Fatalf("after leave, get %s = %q ok=%v err=%v", k, v, ok, err)
		}
	}
}

func TestClusterConcurrentWriters(t *testing.T) {
	c := testCluster(t, 3, WithClientsPerNode(4))
	const workers = 8
	const perWorker = 50
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < perWorker; i++ {
				k := []byte(fmt.Sprintf("w%d-%03d", w, i))
				if err := c.Put(tctx, k, []byte(fmt.Sprintf("val-%d-%d", w, i))); err != nil {
					errs <- fmt.Errorf("put %s: %w", k, err)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			k := []byte(fmt.Sprintf("w%d-%03d", w, i))
			v, ok, err := c.Get(tctx, k)
			if err != nil || !ok || string(v) != fmt.Sprintf("val-%d-%d", w, i) {
				t.Fatalf("get %s = %q ok=%v err=%v", k, v, ok, err)
			}
		}
	}
}

func TestClusterEmptyAndBadInput(t *testing.T) {
	c := New()
	if err := c.Put(tctx, []byte("k"), []byte("v")); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("put on empty cluster = %v", err)
	}
	c2 := testCluster(t, 1)
	if err := c2.Put(tctx, nil, []byte("v")); err == nil {
		t.Fatal("empty key accepted")
	}
	n := c2.Node("node-0")
	if err := c2.join(tctx, n); err == nil {
		t.Fatal("duplicate join accepted")
	}
	if err := c2.Leave(tctx, "ghost"); err == nil {
		t.Fatal("leave of unknown node accepted")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	raw := appendRecord(nil, 42, false, []byte("payload"))
	rec, err := parseRecord(raw)
	if err != nil {
		t.Fatal(err)
	}
	if rec.version != 42 || rec.tombstone || string(rec.payload) != "payload" {
		t.Fatalf("round trip: %+v", rec)
	}
	if !rec.sumOK(raw) {
		t.Fatal("checksum should verify")
	}
	raw[len(raw)-1] ^= 0x01
	rec2, err := parseRecord(raw)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.sumOK(raw) {
		t.Fatal("checksum should fail after bit flip")
	}
	tomb := appendRecord(nil, 7, true, nil)
	rec3, err := parseRecord(tomb)
	if err != nil || !rec3.tombstone || rec3.version != 7 {
		t.Fatalf("tombstone round trip: %+v err=%v", rec3, err)
	}
	if _, err := parseRecord([]byte{1, 2, 3}); err == nil {
		t.Fatal("short record accepted")
	}
}
