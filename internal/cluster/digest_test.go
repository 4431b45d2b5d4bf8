package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// mustGet reads key through the quorum path and checks the value.
func mustGet(t *testing.T, c *Cluster, key []byte, want string) {
	t.Helper()
	v, ok, err := c.Get(tctx, key)
	if err != nil || !ok || string(v) != want {
		t.Fatalf("get %s = %q ok=%v err=%v, want %q", key, v, ok, err, want)
	}
}

// keyOwnedAt finds a key whose owner at ring position pos is node.
func keyOwnedAt(t *testing.T, c *Cluster, node string, pos int, prefix string) []byte {
	t.Helper()
	for i := 0; i < 1000; i++ {
		k := []byte(fmt.Sprintf("%s-%03d", prefix, i))
		if ownerNodes(t, c, k)[pos].Name() == node {
			return k
		}
	}
	t.Fatalf("no %s key has %s at owner position %d", prefix, node, pos)
	return nil
}

// A healthy get of an SST-resident key reads the store on its first owner
// only: one block decode in the whole cluster, and the digest owners answer
// from their version tables without touching kvstore.
func TestClusterDigestGetDecodesOneBlock(t *testing.T) {
	c := testCluster(t, 3, WithNodeDefaults(smallStore()))
	base := counted()
	const keys = 60
	for i := 0; i < keys; i++ {
		k := []byte(fmt.Sprintf("cold-%03d", i))
		if err := c.Put(tctx, k, []byte(fmt.Sprintf("value-%03d-%0200d", i, i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range c.Nodes() {
		if err := c.Node(name).Store().Flush(tctx); err != nil {
			t.Fatal(err)
		}
	}
	decoded := func() (n int64) {
		for _, name := range c.Nodes() {
			n += c.Node(name).Store().Stats().BlocksDecompressed
		}
		return n
	}
	decoded0 := decoded()
	for i := 0; i < keys; i++ {
		k := []byte(fmt.Sprintf("cold-%03d", i))
		owners := ownerNodes(t, c, k)
		before := make([]int64, len(owners))
		gets := make([]int64, len(owners))
		for j, n := range owners {
			st := n.Store().Stats()
			before[j], gets[j] = st.BlocksDecompressed+st.BlockCacheHits, st.Gets
		}
		mustGet(t, c, k, fmt.Sprintf("value-%03d-%0200d", i, i))
		for j, n := range owners {
			st := n.Store().Stats()
			blocks, reads := st.BlocksDecompressed+st.BlockCacheHits-before[j], st.Gets-gets[j]
			if j == 0 && (reads != 1 || blocks < 1) {
				t.Fatalf("%s: data owner %s served %d store gets touching %d blocks, want one get of an SST block", k, n.Name(), reads, blocks)
			}
			if j > 0 && (reads != 0 || blocks != 0) {
				t.Fatalf("%s: digest owner %s served %d store gets touching %d blocks, want none", k, n.Name(), reads, blocks)
			}
		}
	}
	if d := decoded() - decoded0; d == 0 || d > keys {
		t.Fatalf("%d gets decoded %d blocks across the cluster, want between 1 and %d", keys, d, keys)
	}
	if st := since(base); st.FullReads != keys || st.DigestReads != 2*keys || st.EscalatedReads != 0 || st.ReadRepairs != 0 {
		t.Fatalf("healthy gets: %+v, want %d full, %d digest, nothing escalated or repaired", st, keys, 2*keys)
	}
}

// A digest owner that was down for an overwrite comes back stale, and one
// that was down for a first write comes back without the key. Its table is
// cold, so the digest reads the store, tells the truth, and the get repairs
// it; the second digest is served from the table the first one warmed.
func TestClusterDigestOwnerStaleOrMissingRepaired(t *testing.T) {
	c := testCluster(t, 3)
	base := counted()
	victim := c.Node("node-1")
	stale := keyOwnedAt(t, c, "node-1", 1, "stale")
	missing := keyOwnedAt(t, c, "node-1", 2, "missing")
	if err := c.Put(tctx, stale, []byte("old")); err != nil {
		t.Fatal(err)
	}
	victim.Crash()
	if err := c.Put(tctx, stale, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(tctx, missing, []byte("born while node-1 was down")); err != nil {
		t.Fatal(err)
	}
	if err := victim.Restart(tctx); err != nil {
		t.Fatal(err)
	}
	stale0, missing0 := cmStale.Value(), cmMissing.Value()

	mustGet(t, c, stale, "new")
	if rec, ok := validRecord(stored(t, victim, string(stale))); !ok || string(rec.payload) != "new" {
		t.Fatalf("stale digest owner not repaired: %q valid=%v", rec.payload, ok)
	}
	mustGet(t, c, missing, "born while node-1 was down")
	if rec, ok := validRecord(stored(t, victim, string(missing))); !ok || string(rec.payload) != "born while node-1 was down" {
		t.Fatalf("missing digest owner not repaired: %q valid=%v", rec.payload, ok)
	}
	if st := since(base); st.ReadRepairs != 2 || st.EscalatedReads != 0 {
		t.Fatalf("%+v, want 2 repairs pushed from the data owner's record and no escalation", st)
	}
	if ds, dm := cmStale.Value()-stale0, cmMissing.Value()-missing0; ds < 1 || dm < 1 {
		t.Fatalf("cluster_stale_replicas_total moved by %d and cluster_missing_replicas_total by %d, want at least 1 each", ds, dm)
	}

	// Both keys are tracked again: healthy reads, no store access on node-1.
	gets := victim.Store().Stats().Gets
	mustGet(t, c, stale, "new")
	mustGet(t, c, missing, "born while node-1 was down")
	if d := victim.Store().Stats().Gets - gets; d != 0 {
		t.Fatalf("digests of re-tracked keys read the store %d times", d)
	}
	if st := since(base); st.ReadRepairs != 2 {
		t.Fatalf("healthy re-read repaired again: %+v", st)
	}
}

// With the data owner down the next owner serves the record.
func TestClusterDigestDataOwnerDown(t *testing.T) {
	c := testCluster(t, 3)
	base := counted()
	k := keyOwnedAt(t, c, "node-2", 0, "k")
	if err := c.Put(tctx, k, []byte("v")); err != nil {
		t.Fatal(err)
	}
	c.Node("node-2").Crash()
	mustGet(t, c, k, "v")
	if st := since(base); st.EscalatedReads != 1 || st.FullReads != 1 || st.DigestReads != 2 || st.ReadRepairs != 0 {
		t.Fatalf("%+v, want two digests and one escalated kv.get, nothing to repair", st)
	}
	// A second owner down leaves one of three: no quorum, whoever is left.
	c.Node(ownerNodes(t, c, k)[1].Name()).Crash()
	if _, _, err := c.Get(tctx, k); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("get with one owner up = %v, want ErrNoQuorum", err)
	}
}

// Rot beneath a digest owner whose table still holds the key is invisible
// to a healthy read — the digest vouches for the header it remembers — and
// surfaces the first time that owner has to serve the record.
func TestClusterDigestOwnerRotSurfacesWhenServingData(t *testing.T) {
	c := testCluster(t, 3)
	base := counted()
	k := []byte("precious")
	if err := c.Put(tctx, k, []byte("intact")); err != nil {
		t.Fatal(err)
	}
	owners := ownerNodes(t, c, k)
	corruptInPlace(t, owners[1], string(k))
	mustGet(t, c, k, "intact")
	if st := since(base); st.CorruptReplicas != 0 || st.ReadRepairs != 0 {
		t.Fatalf("a healthy read noticed rot under a digest owner: %+v", st)
	}
	owners[0].Crash()
	mustGet(t, c, k, "intact") // owners[1] is asked first, is corrupt; owners[2] serves
	if st := since(base); st.CorruptReplicas != 1 || st.ReadRepairs != 1 || st.EscalatedReads != 2 {
		t.Fatalf("%+v, want the rot found, repaired, and two escalated reads", st)
	}
	if rec, ok := validRecord(stored(t, owners[1], string(k))); !ok || string(rec.payload) != "intact" {
		t.Fatalf("rotten replica not repaired: %q valid=%v", rec.payload, ok)
	}
}

// A backdoor writer that drops the key from the table (forget) makes the
// digest read the store: the digest of a corrupt record fails, the owner is
// asked for the whole record, and the get counts and repairs it.
func TestClusterDigestOfCorruptRecordEscalates(t *testing.T) {
	c := testCluster(t, 3)
	base := counted()
	k := []byte("precious")
	if err := c.Put(tctx, k, []byte("intact")); err != nil {
		t.Fatal(err)
	}
	victim := ownerNodes(t, c, k)[2]
	corruptInPlace(t, victim, string(k))
	victim.forget(k)
	mustGet(t, c, k, "intact")
	if st := since(base); st.CorruptReplicas != 1 || st.ReadRepairs != 1 || st.EscalatedReads != 1 {
		t.Fatalf("%+v, want one corrupt replica found by one escalated read and repaired", st)
	}
	if rec, ok := validRecord(stored(t, victim, string(k))); !ok || string(rec.payload) != "intact" {
		t.Fatalf("corrupt digest owner not repaired: %q valid=%v", rec.payload, ok)
	}
}

// When every replica is corrupt the key was written and cannot be read:
// that is an error, not a miss.
func TestClusterGetAllReplicasCorrupt(t *testing.T) {
	c := testCluster(t, 3)
	base := counted()
	k := []byte("doomed")
	if err := c.Put(tctx, k, []byte("value")); err != nil {
		t.Fatal(err)
	}
	for _, n := range ownerNodes(t, c, k) {
		corruptInPlace(t, n, string(k))
	}
	v, ok, err := c.Get(tctx, k)
	if !errors.Is(err, ErrAllReplicasCorrupt) || ok || v != nil {
		t.Fatalf("get = %q ok=%v err=%v, want ErrAllReplicasCorrupt", v, ok, err)
	}
	if st := since(base); st.CorruptReplicas != 3 || st.ReadRepairs != 0 {
		t.Fatalf("%+v, want three corrupt replicas and nothing to repair them with", st)
	}
	// One intact copy anywhere is enough again.
	if err := c.Put(tctx, k, []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	mustGet(t, c, k, "rewritten")
}

// fanOut calls every owner, the first with its own method, and returns only
// when all have answered — including the ones that fail.
func TestFanOutWaitsForAll(t *testing.T) {
	c := testCluster(t, 3)
	k := []byte("k")
	if err := c.Put(tctx, k, []byte("v")); err != nil {
		t.Fatal(err)
	}
	o, err := c.owners(k)
	if err != nil {
		t.Fatal(err)
	}
	defer o.release()
	reps := o.reps
	reps[1].pool.node.Crash()
	o.fanOut(tctx, MethodGet, MethodDigest, k, nil)
	if reps[0].err != nil || len(reps[0].resp) != 1+recHeaderLen+1 {
		t.Fatalf("first owner: %d-byte reply, err=%v, want the whole record", len(reps[0].resp), reps[0].err)
	}
	if reps[1].err == nil {
		t.Fatal("crashed owner's slot holds no error")
	}
	if reps[2].err != nil || len(reps[2].resp) != 1+recHeaderLen {
		t.Fatalf("third owner: %d-byte reply, err=%v, want a digest", len(reps[2].resp), reps[2].err)
	}
	ctx, cancel := context.WithCancel(tctx)
	cancel()
	o.fanOut(ctx, MethodGet, MethodDigest, k, nil)
	for i := range reps {
		if reps[i].err == nil {
			t.Fatalf("owner %d answered a cancelled call", i)
		}
	}
}

// Four goroutines put and get eight hot keys while a node crashes and comes
// back. Each key has one writer, so its values are ordered; every get must
// return the last value acknowledged before it began, or a later one.
func TestClusterHammerPutGet(t *testing.T) {
	c := testCluster(t, 3, WithClientsPerNode(4))
	base := counted()
	m := &hammerModel{prefix: "hot"}
	for k := 0; k < hammerKeys; k++ {
		if err := c.Put(tctx, m.key(k), []byte("0")); err != nil {
			t.Fatal(err)
		}
	}
	var half sync.WaitGroup
	half.Add(hammerWorkers)
	wait := m.start(t, 600, half.Done,
		func(k int) error {
			return m.put(k, func(key, value []byte) error { return c.Put(tctx, key, value) })
		},
		func(key []byte) ([]byte, error) {
			v, ok, err := c.Get(tctx, key)
			if err == nil && !ok {
				err = errors.New("not found")
			}
			return v, err
		})
	// One owner of every key misses writes for a while, then returns with a
	// cold table: stale digests, and stale data where it is the first owner.
	c.Node("node-1").Crash()
	half.Wait()
	if err := c.Node("node-1").Restart(tctx); err != nil {
		t.Fatal(err)
	}
	wait()
	for k := 0; k < hammerKeys; k++ {
		mustGet(t, c, m.key(k), fmt.Sprint(m.acked[k].Load()))
	}
	st := since(base)
	if st.DigestReads == 0 || st.EscalatedReads == 0 || st.ReadRepairs == 0 {
		t.Fatalf("hammer never left the healthy path: %+v", st)
	}
}
