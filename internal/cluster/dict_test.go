package cluster

import (
	"context"
	"fmt"
	"testing"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/corpus"
	"github.com/datacomp/datacomp/internal/kvstore"
)

// dictFrames counts the node's replies coded against its store dictionary
// since its last start.
func (n *Node) dictFrames() int64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.server.Stats().DictFrames
}

// dictValue is key i's value at version v: a 1 KiB record, big enough that
// its kv.get reply is coded, and shaped like the records a store trains on.
func dictValue(i, v int) []byte {
	return append(fmt.Appendf(nil, "v%d|", v), corpus.Records(int64(i), 1<<10)...)
}

// dictKeys writes n keys at version 0 and flushes every node, so each store
// trains its dictionary. It returns the keys and the last acknowledged
// value of each. Nodes that hold the same records train the same
// dictionary, which the coordinator then fetches once for all of them; on
// four nodes each holds its own three quarters of the keys, and trains its
// own.
func dictKeys(t *testing.T, c *Cluster, n int) ([][]byte, map[string][]byte) {
	t.Helper()
	keys := make([][]byte, n)
	acked := make(map[string][]byte, n)
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "dict-%03d", i)
		putAcked(t, c, acked, keys[i], dictValue(i, 0))
	}
	for _, name := range c.Nodes() {
		flushNode(t, c.Node(name))
	}
	return keys, acked
}

func putAcked(t *testing.T, c *Cluster, acked map[string][]byte, key, value []byte) {
	t.Helper()
	if err := c.Put(tctx, key, value); err != nil {
		t.Fatalf("put %s: %v", key, err)
	}
	acked[string(key)] = value
}

func flushNode(t *testing.T, n *Node) {
	t.Helper()
	if err := storeOf(t, n).Flush(tctx); err != nil {
		t.Fatal(err)
	}
}

// getAcked reads key and checks it against the last acknowledged write.
func getAcked(t *testing.T, c *Cluster, acked map[string][]byte, key []byte) {
	t.Helper()
	v, ok, err := c.Get(tctx, key)
	if err != nil || !ok || string(v) != string(acked[string(key)]) {
		t.Fatalf("get %s: ok=%v err=%v, value differs from the last acked write: %v", key, ok, err, string(v) != string(acked[string(key)]))
	}
}

// firstOwnedBy returns the keys whose first owner is node.
func firstOwnedBy(t *testing.T, c *Cluster, keys [][]byte, node string) [][]byte {
	t.Helper()
	var out [][]byte
	for _, k := range keys {
		if ownerNodes(t, c, k)[0].Name() == node {
			out = append(out, k)
		}
	}
	if len(out) < 2 {
		t.Fatalf("only %d keys have %s first", len(out), node)
	}
	return out
}

// distinctDicts fails the test unless every node has a dictionary of its
// own.
func distinctDicts(t *testing.T, c *Cluster) {
	t.Helper()
	seen := map[uint32]string{}
	for _, name := range c.Nodes() {
		id := storeOf(t, c.Node(name)).Dict().ID
		if id == 0 || seen[id] != "" {
			t.Fatalf("%s: dictionary %08x, already %s's: the test needs one per node", name, id, seen[id])
		}
		seen[id] = name
	}
}

// TestClusterDictFetchOnce: the first kv.get reply a node codes against its
// store dictionary makes the coordinator fetch that dictionary, once, and
// send the get again; every later reply of that node is dictionary-coded
// and decodes from the cache.
func TestClusterDictFetchOnce(t *testing.T) {
	c := testCluster(t, 4)
	keys, acked := dictKeys(t, c, 160)
	distinctDicts(t, c)
	for fetched, name := range c.Nodes() {
		n := c.Node(name)
		for i, k := range firstOwnedBy(t, c, keys, name) {
			frames := n.dictFrames()
			getAcked(t, c, acked, k)
			want := int64(1)
			if i == 0 {
				want = 2 // the reply the coordinator could not decode, then the retry's
			}
			if got := n.dictFrames() - frames; got != want {
				t.Fatalf("%s get %d: %d dictionary-coded replies, want %d", name, i, got, want)
			}
			if f := c.Stats().DictFetches; f != int64(fetched+1) {
				t.Fatalf("%s get %d: %d dictionary fetches, want %d", name, i, f, fetched+1)
			}
		}
	}
	if st := c.Stats(); st.EscalatedReads != 0 || st.ReadRepairs != 0 {
		t.Fatalf("healthy dictionary-coded gets escalated or repaired: %+v", st)
	}
}

// TestClusterDictRestartKeepsID: a node that crashes, or stops, and restarts
// reopens the same dictionary, so its replies decode from the cache with no
// new fetch, and every read still returns the last acknowledged write.
func TestClusterDictRestartKeepsID(t *testing.T) {
	c := testCluster(t, 3)
	keys, acked := dictKeys(t, c, 90)
	for _, k := range keys {
		getAcked(t, c, acked, k)
	}
	fetches := c.Stats().DictFetches
	victim := c.Node("node-1")
	id := storeOf(t, victim).Dict().ID
	mine := firstOwnedBy(t, c, keys, "node-1")
	for round, kill := range []func(){victim.Crash, func() { victim.Stop() }} {
		putAcked(t, c, acked, mine[0], dictValue(0, round+1))
		kill()
		if err := victim.Restart(tctx); err != nil {
			t.Fatal(err)
		}
		if got := storeOf(t, victim).Dict().ID; got != id {
			t.Fatalf("round %d: restarted store has dictionary %08x, want %08x", round, got, id)
		}
		for _, k := range mine {
			getAcked(t, c, acked, k)
		}
		// A pooled client left on the old server fails its first call, so
		// a get or two reads through the other owners instead.
		if n := victim.dictFrames(); n < int64(len(mine)-c.cfg.clientsPerNode) {
			t.Fatalf("round %d: %d dictionary-coded replies for %d gets", round, n, len(mine))
		}
	}
	if f := c.Stats().DictFetches; f != fetches {
		t.Fatalf("restarts caused %d dictionary fetches, want none", f-fetches)
	}
}

// TestClusterDictFreshNodeJoins: a node that joins holds its rebalanced
// records in a memtable and has no dictionary, so its replies go out as the
// link codes them; its first flush trains one, and from then on its replies
// are dictionary-coded, after one fetch.
func TestClusterDictFreshNodeJoins(t *testing.T) {
	c := testCluster(t, 3)
	keys, acked := dictKeys(t, c, 120)
	joined, err := c.AddNode(tctx, "node-3")
	if err != nil {
		t.Fatal(err)
	}
	mine := firstOwnedBy(t, c, keys, "node-3")
	for _, k := range mine {
		getAcked(t, c, acked, k)
	}
	if n := joined.dictFrames(); n != 0 {
		t.Fatalf("dictless joiner sent %d dictionary-coded replies", n)
	}
	flushNode(t, joined)
	if storeOf(t, joined).Dict().ID == 0 {
		t.Fatal("the joiner's first flush trained no dictionary")
	}
	base := c.Stats().DictFetches
	for _, k := range mine {
		getAcked(t, c, acked, k)
	}
	if n := joined.dictFrames(); n != int64(len(mine)+1) {
		t.Fatalf("after its flush the joiner sent %d dictionary-coded replies for %d gets, want one more", n, len(mine))
	}
	if f := c.Stats().DictFetches - base; f != 1 {
		t.Fatalf("after its flush: %d fetches, want 1 (the joiner's)", f)
	}
}

// TestClusterDictEscalatedRead: when a digest owner holds a newer version
// than the first owner returned, the escalated kv.get is coded against that
// owner's own dictionary, which the coordinator fetches then, and the read
// returns the newer write.
func TestClusterDictEscalatedRead(t *testing.T) {
	c := testCluster(t, 4)
	keys, acked := dictKeys(t, c, 120)
	distinctDicts(t, c)
	key := keys[0]
	owners := ownerNodes(t, c, key)
	first := owners[0]
	first.Crash()
	putAcked(t, c, acked, key, dictValue(0, 1))
	if err := first.Restart(tctx); err != nil {
		t.Fatal(err)
	}
	frames := make([]int64, len(owners))
	for i, n := range owners {
		frames[i] = n.dictFrames()
	}
	before := c.Stats()
	getAcked(t, c, acked, key)
	after := c.Stats()
	if after.EscalatedReads-before.EscalatedReads != 1 {
		t.Fatalf("escalated %d reads, want 1", after.EscalatedReads-before.EscalatedReads)
	}
	escalatedTo := -1
	for i := 1; i < len(owners); i++ {
		if owners[i].dictFrames() > frames[i] {
			escalatedTo = i
		}
	}
	if escalatedTo < 0 {
		t.Fatal("no digest owner sent a dictionary-coded record")
	}
	if f := after.DictFetches - before.DictFetches; f != 2 {
		t.Fatalf("%d dictionary fetches, want 2: the first owner's and the escalated one's", f)
	}
	getAcked(t, c, acked, key)
}

// TestClusterDictlessStoreNoFlag: stores that never train a dictionary — a
// codec other than zstd, or an engine given them — never set the flag, and
// the coordinator never fetches.
func TestClusterDictlessStoreNoFlag(t *testing.T) {
	for _, name := range []string{"lz4", "engine"} {
		t.Run(name, func(t *testing.T) {
			c := New()
			t.Cleanup(func() { c.Close() })
			for i := 0; i < 3; i++ {
				opt := kvstore.WithCodec("lz4")
				if name == "engine" {
					eng, err := codec.NewEngine("zstd", codec.WithLevel(1))
					if err != nil {
						t.Fatal(err)
					}
					opt = kvstore.WithEngine(eng) // one per store: engines serve one goroutine
				}
				n, err := newNode(tctx, fmt.Sprintf("node-%d", i), defaultCompression, WithNodeStoreOptions(opt))
				if err != nil {
					t.Fatal(err)
				}
				if err := c.join(tctx, n); err != nil {
					t.Fatal(err)
				}
			}
			keys, acked := dictKeys(t, c, 60)
			for _, k := range keys {
				getAcked(t, c, acked, k)
			}
			for _, n := range c.Nodes() {
				if d := storeOf(t, c.Node(n)).Dict(); d.Bytes != nil || c.Node(n).dictFrames() != 0 {
					t.Fatalf("%s: dictionary %08x, %d dictionary-coded replies", n, d.ID, c.Node(n).dictFrames())
				}
			}
			if f := c.Stats().DictFetches; f != 0 {
				t.Fatalf("%d dictionary fetches from dictless stores", f)
			}
		})
	}
}

// TestClusterDictMismatchRefused: a node whose kv.dict bytes do not hash to
// the ID its replies name is refused — the cache never holds them — and the
// get still returns the last acknowledged write, from the other owners.
func TestClusterDictMismatchRefused(t *testing.T) {
	c := testCluster(t, 4)
	keys, acked := dictKeys(t, c, 120)
	distinctDicts(t, c)
	liar := c.Node("node-2")
	id := storeOf(t, liar).Dict().ID
	other := storeOf(t, c.Node("node-0")).Dict().Bytes
	liar.mu.RLock()
	liar.server.Register(MethodDict, func(context.Context, []byte) ([]byte, error) { return other, nil })
	liar.mu.RUnlock()
	for _, k := range firstOwnedBy(t, c, keys, "node-2") {
		before := c.Stats().DictFetches
		getAcked(t, c, acked, k)
		if c.Stats().DictFetches == before {
			t.Fatalf("get %s fetched no dictionary from the liar", k)
		}
		if c.dicts.lookup(id) != nil {
			t.Fatal("the cache kept a dictionary that does not hash to its ID")
		}
	}
}
