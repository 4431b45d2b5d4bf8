// Call-path allocation gate: the serving path — an rpc call, a cluster get
// of a small value and a cluster put of a 2 KiB one — must not allocate its
// own bookkeeping once warm. A call allocates the reply it returns; a get
// allocates the replies of its replica calls and what the nodes build them
// from; a put allocates nothing to store what it stores.
package datacomp_test

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"testing"

	"github.com/datacomp/datacomp/internal/cluster"
	"github.com/datacomp/datacomp/internal/rpc"
)

// raceEnabled is set by race_test.go under the race detector, which drops
// sync.Pool puts at random and so allocates pooled state now and then.
var raceEnabled bool

// nodeLink is the compression the cluster's node links use by default; the
// gate's payloads are below its MinSize, so no codec runs.
var nodeLink = rpc.Compression{Codec: "lz4", Level: 1, Checksum: true}

func TestCallAllocsRPC(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	srv := rpc.NewServer(nodeLink)
	srv.Register("echo", rpc.Func(func(req []byte) ([]byte, error) { return req, nil }))
	cc, sc := net.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.ServeConn(context.Background(), sc)
		sc.Close()
	}()
	defer func() {
		cc.Close()
		<-served
	}()
	cl, err := rpc.NewClient(cc, nodeLink)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// One cancellable context for every call, as a serving loop holds one:
	// its cancellation watch is registered by the warm-up call alone.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := bytes.Repeat([]byte{'r'}, 128)
	n := allocsPerOp(t, func() {
		resp, err := cl.Call(ctx, "echo", req)
		if err != nil || !bytes.Equal(resp, req) {
			t.Fatalf("echo: %q, %v", resp, err)
		}
	})
	t.Logf("warmed Client.Call: %v allocs/op", n)
	// With a cancellation watch per call and the frame header and checksum
	// arrays on the heap it was 12.
	if n > 1 {
		t.Errorf("warmed Client.Call: %v allocs/op, want at most 1 (the reply)", n)
	}
}

// maxClusterGetAllocs pins a warmed Cluster.Get of a memtable-resident
// 128 B value on three nodes at RF=3: one record and two digest replies,
// each allocated by its node's handler and again by the client reading it,
// plus the two fan-out goroutines' closures and the 0x01 the record reply
// starts as before the record is appended behind it. With a cancellation
// watch per call, per-op fan-out state and the record copied twice on its
// node it was 48.
const maxClusterGetAllocs = 9

func TestCallAllocsClusterGet(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	if raceEnabled {
		t.Skip("the race detector drops pooled fan-out state at random")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := cluster.New()
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, err := c.AddNode(ctx, fmt.Sprintf("node-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	key, value := []byte("hot-key"), bytes.Repeat([]byte{'v'}, 128)
	if err := c.Put(ctx, key, value); err != nil {
		t.Fatal(err)
	}
	n := allocsPerOp(t, func() {
		got, ok, err := c.Get(ctx, key)
		if err != nil || !ok || !bytes.Equal(got, value) {
			t.Fatalf("get: %q ok=%v err=%v", got, ok, err)
		}
	})
	t.Logf("warmed Cluster.Get: %v allocs/op", n)
	if n > maxClusterGetAllocs {
		t.Errorf("warmed Cluster.Get: %v allocs/op, want at most %d", n, maxClusterGetAllocs)
	}
}

// maxClusterPutAllocs pins a warmed Cluster.Put of a 2 KiB value on three
// nodes at RF=3 that fills no memtable: the request is framed in the pooled
// op, each node's store copies the record into its batch buffer and its
// memtable's arena, and the version table rewrites the key's entry in
// place, which leaves the two fan-out goroutines' closures. Allocating the
// request, the batch's and the memtable's copies and a version-table key
// per node, it was 12.
const maxClusterPutAllocs = 3

func TestCallAllocsClusterPut(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	if raceEnabled {
		t.Skip("the race detector drops pooled fan-out state at random")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := cluster.New()
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, err := c.AddNode(ctx, fmt.Sprintf("node-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	key, value := []byte("hot-key"), bytes.Repeat([]byte("2 KiB value "), 171)[:2048]
	put := func() {
		if err := c.Put(ctx, key, value); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	// Warm every node's batch, WAL and memtable buffers; 64 puts of one key
	// are 130 KiB of WAL and one overwritten slot, far from a flush.
	for i := 0; i < 64; i++ {
		put()
	}
	n := allocsPerOp(t, put)
	t.Logf("warmed Cluster.Put: %v allocs/op", n)
	if n > maxClusterPutAllocs {
		t.Errorf("warmed Cluster.Put: %v allocs/op, want at most %d", n, maxClusterPutAllocs)
	}
	if got, ok, err := c.Get(ctx, key); err != nil || !ok || !bytes.Equal(got, value) {
		t.Fatalf("get after the puts: %d bytes, ok=%v err=%v", len(got), ok, err)
	}
}
