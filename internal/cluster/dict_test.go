package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/corpus"
	"github.com/datacomp/datacomp/internal/kvstore"
	"github.com/datacomp/datacomp/internal/rpc"
	"github.com/datacomp/datacomp/internal/trace"
)

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
	base := counted()
	keys, acked := dictKeys(t, c, 160)
	distinctDicts(t, c)
	for fetched, name := range c.Nodes() {
		for i, k := range firstOwnedBy(t, c, keys, name) {
			frames := counted().DictFrames
			getAcked(t, c, acked, k)
			// Only the first owner sends a whole record. Its dictionary-coded
			// reply counts once sent and once decoded; the coordinator cannot
			// decode the first, and the retry's is the second.
			want := int64(2)
			if i == 0 {
				want = 3
			}
			if got := counted().DictFrames - frames; got != want {
				t.Fatalf("%s get %d: rpc_dict_frames_total grew %d, want %d", name, i, got, want)
			}
			if f := since(base).DictFetches; f != int64(fetched+1) {
				t.Fatalf("%s get %d: %d dictionary fetches, want %d", name, i, f, fetched+1)
			}
		}
	}
	if st := since(base); st.EscalatedReads != 0 || st.ReadRepairs != 0 {
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
	fetches := counted().DictFetches
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
		before := counted()
		for _, k := range mine {
			getAcked(t, c, acked, k)
		}
		// A pooled client left on the old server fails its first call, so
		// a get or two reads through the other owners instead. Every
		// dictionary-coded reply decodes (no fetch), so it counts twice;
		// the victim sent those the escalated reads did not.
		d := since(before)
		if n := d.DictFrames/2 - d.EscalatedReads; n < int64(len(mine)-c.cfg.clientsPerNode) {
			t.Fatalf("round %d: %d dictionary-coded replies for %d gets", round, n, len(mine))
		}
	}
	if f := counted().DictFetches; f != fetches {
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
	frames := counted().DictFrames
	for _, k := range mine {
		getAcked(t, c, acked, k)
	}
	// The joiner, these keys' first owner, sends each get's one whole
	// record, so every coded reply here would be its.
	if n := counted().DictFrames - frames; n != 0 {
		t.Fatalf("dictless joiner sent %d dictionary-coded replies", n)
	}
	flushNode(t, joined)
	if storeOf(t, joined).Dict().ID == 0 {
		t.Fatal("the joiner's first flush trained no dictionary")
	}
	base := counted()
	for _, k := range mine {
		getAcked(t, c, acked, k)
	}
	// Each reply counts once sent and once decoded, but the first, which
	// the coordinator could not decode, is sent twice.
	if n := since(base).DictFrames; n != int64(2*len(mine)+1) {
		t.Fatalf("after its flush the joiner's %d gets grew rpc_dict_frames_total %d, want one more than twice that", len(mine), n)
	}
	if f := since(base).DictFetches; f != 1 {
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
	before := counted()
	getAcked(t, c, acked, key)
	d := since(before)
	if d.EscalatedReads != 1 {
		t.Fatalf("escalated %d reads, want 1", d.EscalatedReads)
	}
	// Two dictionary-coded records, the first owner's and the escalated
	// one's, each sent, not decodable, fetched for, sent again and decoded.
	if d.DictFrames != 6 {
		t.Fatalf("rpc_dict_frames_total grew %d, want 6: no digest owner sent a dictionary-coded record", d.DictFrames)
	}
	if d.DictFetches != 2 {
		t.Fatalf("%d dictionary fetches, want 2: the first owner's and the escalated one's", d.DictFetches)
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
			base := counted()
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
				if d := storeOf(t, c.Node(n)).Dict(); d.Bytes != nil {
					t.Fatalf("%s: dictionary %08x", n, d.ID)
				}
			}
			if n := since(base).DictFrames; n != 0 {
				t.Fatalf("%d dictionary-coded replies from dictless stores", n)
			}
			if f := since(base).DictFetches; f != 0 {
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
		before := counted().DictFetches
		getAcked(t, c, acked, k)
		if counted().DictFetches == before {
			t.Fatalf("get %s fetched no dictionary from the liar", k)
		}
		if c.dicts.lookup(id) != nil {
			t.Fatal("the cache kept a dictionary that does not hash to its ID")
		}
	}
}

// putDictKeys puts n keys of 2 KiB records, past the samples the cluster
// dictionary trains on, and returns the keys and the acked values. Every
// node acked the dictionary once it returns.
func putDictKeys(t *testing.T, c *Cluster, n int) ([][]byte, map[string][]byte) {
	t.Helper()
	keys := make([][]byte, n)
	acked := make(map[string][]byte, n)
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "put-%04d", i)
		putAcked(t, c, acked, keys[i], corpus.Records(int64(i), 2<<10))
	}
	if c.putDict.cur.Load() == nil {
		t.Fatalf("%d puts of 2 KiB trained no cluster dictionary", n)
	}
	return keys, acked
}

// TestClusterDictPutInstallOnce: the cluster trains one dictionary from its
// first puts and installs it once per node, durably in each store; from
// then on every put travels coded against it, each frame counted where it
// is sent and where it is decoded.
func TestClusterDictPutInstallOnce(t *testing.T) {
	c := testCluster(t, 3)
	installs := cmDictInstalls.Value()
	keys, acked := putDictKeys(t, c, 40)
	d := c.putDict.cur.Load()
	if n := cmDictInstalls.Value() - installs; n != 3 {
		t.Fatalf("%d installs for 3 nodes, want 3", n)
	}
	for _, name := range c.Nodes() {
		if got := storeOf(t, c.Node(name)).WALDict(d.ID); !bytes.Equal(got, d.Bytes) {
			t.Fatalf("%s does not hold the cluster dictionary %08x", name, d.ID)
		}
	}
	before := counted()
	for i, k := range keys {
		putAcked(t, c, acked, k, corpus.Records(int64(1000+i), 2<<10))
	}
	if n := since(before).DictFrames; n != int64(6*len(keys)) {
		t.Fatalf("%d puts grew rpc_dict_frames_total %d, want 6 each: 3 sent, 3 decoded", len(keys), n)
	}
	if n := cmDictInstalls.Value() - installs; n != 3 {
		t.Fatalf("%d installs after the puts, want still 3", n)
	}
	for _, k := range keys {
		getAcked(t, c, acked, k)
	}
}

// TestClusterDictPutCodedOnce: a put against the cluster dictionary is coded
// once for its three owners: one "rpc.compress" span under the put.
func TestClusterDictPutCodedOnce(t *testing.T) {
	c := testCluster(t, 3)
	putDictKeys(t, c, 40)
	rec := trace.NewRecorder(0, 64)
	tracer := trace.New(trace.Config{SampleEvery: 1, Recorder: rec})
	for i := 0; i < 8; i++ {
		ctx, root := tracer.StartRoot(tctx, "put")
		if err := c.Put(ctx, fmt.Appendf(nil, "once-%d", i), corpus.Records(int64(i), 2<<10)); err != nil {
			t.Fatal(err)
		}
		root.End()
	}
	traces := rec.Snapshot()
	if len(traces) != 8 {
		t.Fatalf("%d traces, want 8", len(traces))
	}
	for _, td := range traces {
		codings, calls := 0, 0
		for _, sp := range td.Spans {
			switch sp.Name {
			case "rpc.compress":
				codings++
			case "rpc.call":
				calls++
			}
		}
		if codings != 1 || calls != 3 {
			t.Fatalf("a put coded %d times for %d calls, want once for 3", codings, calls)
		}
	}
}

// TestClusterDictPutUnknownFallsBack: a node that lost the cluster
// dictionary (its store rebuilt from nothing) refuses the first put coded
// against it with a typed error, the coordinator installs the dictionary
// again and resends, and the put is acked and stored.
func TestClusterDictPutUnknownFallsBack(t *testing.T) {
	c := testCluster(t, 3)
	keys, acked := putDictKeys(t, c, 40)
	d := c.putDict.cur.Load()
	victim := c.Node("node-2")
	victim.Crash()
	victim.cfg.persister = kvstore.NewMemPersister()
	if err := victim.Restart(tctx); err != nil {
		t.Fatal(err)
	}
	if storeOf(t, victim).WALDict(d.ID) != nil {
		t.Fatal("a store rebuilt from nothing holds the dictionary")
	}
	installs, errs := cmDictInstalls.Value(), cmReplicaErrors.Value()
	var mine []byte
	for _, k := range keys {
		for _, n := range ownerNodes(t, c, k) {
			if n == victim && mine == nil {
				mine = k
			}
		}
	}
	// A pooled client left on the old server fails its first call; put
	// until the victim acks one.
	for i := 0; storeOf(t, victim).WALDict(d.ID) == nil; i++ {
		if i == 2*c.cfg.clientsPerNode+1 {
			t.Fatal("the victim never took the dictionary back")
		}
		putAcked(t, c, acked, mine, corpus.Records(int64(77+i), 2<<10))
	}
	if n := cmDictInstalls.Value() - installs; n != 1 {
		t.Fatalf("%d installs, want 1", n)
	}
	raw, ok, err := storeOf(t, victim).Get(tctx, mine)
	if rec, valid := validRecord(raw); err != nil || !ok || !valid || !bytes.Equal(rec.payload, acked[string(mine)]) {
		t.Fatalf("the resent put is not the victim's record: ok=%v err=%v", ok, err)
	}
	t.Logf("%d replica errors while the victim's clients redialed", cmReplicaErrors.Value()-errs)
}

// TestClusterDictPutJoinerInstalled: a node that joins after the cluster
// trained its dictionary gets it before the ring routes a put to it, and
// its first puts arrive coded against it and are logged as they came.
func TestClusterDictPutJoinerInstalled(t *testing.T) {
	c := testCluster(t, 3)
	keys, acked := putDictKeys(t, c, 40)
	d := c.putDict.cur.Load()
	installs := cmDictInstalls.Value()
	joined, err := c.AddNode(tctx, "node-3")
	if err != nil {
		t.Fatal(err)
	}
	if n := cmDictInstalls.Value() - installs; n != 1 || storeOf(t, joined).WALDict(d.ID) == nil {
		t.Fatalf("joining installed %d times, want once, before any put", n)
	}
	db := storeOf(t, joined)
	walCoded, appends := db.Stats().WALCoded, db.Stats().WALAppends
	for i, k := range keys {
		putAcked(t, c, acked, k, corpus.Records(int64(3000+i), 2<<10))
	}
	st := db.Stats()
	if st.WALAppends == appends || st.WALCoded != walCoded {
		t.Fatalf("the joiner logged %d puts and coded %d of them itself, want some and none", st.WALAppends-appends, st.WALCoded-walCoded)
	}
	if n := cmDictInstalls.Value() - installs; n != 1 {
		t.Fatalf("%d installs after the puts, want 1", n)
	}
	for _, k := range keys {
		getAcked(t, c, acked, k)
	}
}

// TestClusterDictPutRestartKeeps: a node that crashes, or stops, and
// restarts holds the cluster dictionary again from its store, replays the
// records coded against it, and takes dictionary-coded puts with no new
// install.
func TestClusterDictPutRestartKeeps(t *testing.T) {
	c := testCluster(t, 3)
	keys, acked := putDictKeys(t, c, 40)
	d := c.putDict.cur.Load()
	installs := cmDictInstalls.Value()
	victim := c.Node("node-1")
	for round, kill := range []func(){victim.Crash, func() { victim.Stop() }} {
		// A pooled client left on the old server fails its first call, and
		// the victim misses that put: spend those failures on other keys.
		for i := 0; i < 2*c.cfg.clientsPerNode; i++ {
			putAcked(t, c, acked, fmt.Appendf(nil, "warm-%d", i), corpus.Records(int64(i), 2<<10))
		}
		for i, k := range keys[:10] {
			putAcked(t, c, acked, k, corpus.Records(int64(5000+10*round+i), 2<<10))
		}
		kill()
		if err := victim.Restart(tctx); err != nil {
			t.Fatal(err)
		}
		db := storeOf(t, victim)
		if !bytes.Equal(db.WALDict(d.ID), d.Bytes) || db.Stats().ReplayedBatches == 0 {
			t.Fatalf("round %d: restarted store holds the dictionary %v, replayed %d batches", round, db.WALDict(d.ID) != nil, db.Stats().ReplayedBatches)
		}
		for _, k := range keys {
			raw, ok, err := db.Get(tctx, k)
			if rec, valid := validRecord(raw); err != nil || !ok || !valid || !bytes.Equal(rec.payload, acked[string(k)]) {
				t.Fatalf("round %d: %s on the restarted replica differs from the last acked write", round, k)
			}
		}
	}
	for _, k := range keys {
		putAcked(t, c, acked, k, corpus.Records(int64(len(k)), 2<<10))
		getAcked(t, c, acked, k)
	}
	if n := cmDictInstalls.Value() - installs; n != 0 {
		t.Fatalf("restarts caused %d installs, want none", n)
	}
}

// TestClusterDictPutInstallRefused: a kv.install whose bytes do not hash to
// the ID it names is refused, and the node holds nothing under that ID.
func TestClusterDictPutInstallRefused(t *testing.T) {
	c := testCluster(t, 3)
	putDictKeys(t, c, 40)
	d := c.putDict.cur.Load()
	victim := c.Node("node-0")
	c.mu.RLock()
	pool := c.clients[victim.Name()]
	c.mu.RUnlock()
	claimed := d.ID + 1
	req := binary.LittleEndian.AppendUint32(nil, claimed)
	req = append(req, d.Bytes...)
	_, err := pool.callOnce(tctx, nil, MethodInstall, req, nil)
	var re *rpc.RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, errInstallMismatch.Error()) {
		t.Fatalf("a mismatched install: %v, want the node's refusal", err)
	}
	if storeOf(t, victim).WALDict(claimed) != nil {
		t.Fatal("the node holds the refused bytes")
	}
	if _, err := pool.callOnce(tctx, nil, MethodInstall, []byte{1, 2}, nil); err == nil {
		t.Fatal("a 2-byte install was accepted")
	}
}

// TestClusterDictPutWaitsOutTraining: while the cluster dictionary trains,
// a put waits for it, under its own context, and gets do not; once the
// training ends the put goes through.
func TestClusterDictPutWaitsOutTraining(t *testing.T) {
	c := testCluster(t, 3)
	acked := map[string][]byte{}
	putAcked(t, c, acked, []byte("before"), corpus.Records(1, 2<<10))
	training := make(chan struct{})
	c.putDict.mu.Lock()
	c.putDict.training = training
	c.putDict.mu.Unlock()

	short, cancel := context.WithTimeout(tctx, 20*time.Millisecond)
	defer cancel()
	if err := c.Put(short, []byte("during"), corpus.Records(2, 2<<10)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("a put during the training: %v, want it to wait until its context ends", err)
	}
	if v, ok, err := c.Get(tctx, []byte("before")); err != nil || !ok || !bytes.Equal(v, acked["before"]) {
		t.Fatalf("a get during the training: ok=%v err=%v", ok, err)
	}
	done := make(chan error, 1)
	go func() { done <- c.Put(tctx, []byte("after"), corpus.Records(3, 2<<10)) }()
	select {
	case err := <-done:
		t.Fatalf("a put returned (%v) before the training ended", err)
	case <-time.After(20 * time.Millisecond):
	}
	c.putDict.mu.Lock()
	close(training)
	c.putDict.training = nil
	c.putDict.mu.Unlock()
	if err := <-done; err != nil {
		t.Fatalf("the put after the training: %v", err)
	}
}
