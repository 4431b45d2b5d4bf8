// Call-path allocation gate: the serving path — an rpc call, a cluster get
// of a small value and a cluster put of a 2 KiB one — must not allocate its
// own bookkeeping once warm. Call allocates the reply it returns and
// AppendCall into a reused buffer nothing; every reply of a get lands in a
// buffer its owner keeps (the node's connection, the pooled op), so a get
// allocates the one copy of the value it returns; a put allocates nothing to
// store what it stores.
package datacomp_test

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	"testing"

	"github.com/datacomp/datacomp/internal/cluster"
	"github.com/datacomp/datacomp/internal/corpus"
	"github.com/datacomp/datacomp/internal/dict"
	"github.com/datacomp/datacomp/internal/rpc"
	"github.com/datacomp/datacomp/internal/zstd"
)

// nodeLink is the compression the cluster's node links use by default. The
// call and hot-get gates' payloads are below its MinSize, so no codec runs;
// the AppendCall and flushed-get gates cross it.
var nodeLink = rpc.Compression{Codec: "lz4", Level: 1, Checksum: true}

// servePipe serves srv on one end of a pipe and returns a client on the
// other; the test's cleanup closes both and waits for the serve loop.
func servePipe(t *testing.T, srv *rpc.Server) *rpc.Client {
	t.Helper()
	cc, sc := net.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.ServeConn(context.Background(), sc)
		sc.Close()
	}()
	cl, err := rpc.NewClient(cc, nodeLink)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		cc.Close()
		<-served
	})
	return cl
}

func TestCallAllocsRPC(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	srv := rpc.NewServer(nodeLink)
	srv.Register("echo", rpc.Func(func(req []byte) ([]byte, error) { return req, nil }))
	cl := servePipe(t, srv)

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

// A warmed AppendCall into a reused buffer allocates nothing, below the
// link's MinSize and above it: the reply is read straight into the buffer's
// tail or decompressed onto it, and the server's append-form handler writes
// into the connection's reply buffer.
func TestCallAllocsAppendCall(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	srv := rpc.NewServer(nodeLink)
	srv.RegisterAppend("echo", func(_ context.Context, dst, req []byte) ([]byte, error) {
		return append(dst, req...), nil
	})
	cl := servePipe(t, srv)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, size := range []int{128, 4 << 10} {
		req := bytes.Repeat([]byte("append call "), size/12+1)[:size]
		var dst []byte
		n := allocsPerOp(t, func() {
			var err error
			dst, err = cl.AppendCall(ctx, dst[:0], "echo", req)
			if err != nil || !bytes.Equal(dst, req) {
				t.Fatalf("echo %d B: %d bytes back, %v", size, len(dst), err)
			}
		})
		t.Logf("warmed AppendCall, %d B: %v allocs/op", size, n)
		if n != 0 {
			t.Errorf("warmed AppendCall of %d B into a reused buffer: %v allocs/op, want 0", size, n)
		}
	}
}

// A warmed call with a body coded once (a Coder's Code, then AppendCallBody
// into a reused buffer) allocates nothing, below the link's MinSize and
// above it: the coding lands in the Coder's scratch, the frame is written
// from it as it is.
func TestCallAllocsAppendCallBody(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	srv := rpc.NewServer(nodeLink)
	srv.RegisterAppend("echo", func(_ context.Context, dst, req []byte) ([]byte, error) {
		return append(dst, req...), nil
	})
	cl := servePipe(t, srv)
	cd, err := rpc.NewCoder(nodeLink)
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, size := range []int{128, 4 << 10} {
		req := bytes.Repeat([]byte("coded call "), size/11+1)[:size]
		var dst []byte
		n := allocsPerOp(t, func() {
			body, err := cd.Code(ctx, "echo", req)
			if err != nil {
				t.Fatal(err)
			}
			dst, err = cl.AppendCallBody(ctx, dst[:0], &body)
			if err != nil || !bytes.Equal(dst, req) {
				t.Fatalf("echo %d B: %d bytes back, %v", size, len(dst), err)
			}
		})
		t.Logf("warmed Code + AppendCallBody, %d B: %v allocs/op", size, n)
		if n != 0 {
			t.Errorf("warmed Code + AppendCallBody of %d B into a reused buffer: %v allocs/op, want 0", size, n)
		}
	}
}

// A warmed put coded against a dictionary (a Coder's CodeDict, then
// AppendCallBody to a method registered with a resolver) allocates nothing
// at either end: the dictionary engines come from the shared pool once per
// link and stay, the coding lands in the Coder's scratch, and the server
// decodes into its request buffer.
func TestCallAllocsAppendCallBodyDict(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	var samples [][]byte
	for i := 0; i < 32; i++ {
		samples = append(samples, corpus.Records(int64(i), 2<<10))
	}
	b, err := dict.TrainZstd(-3, 2<<10, samples, samples)
	if err != nil {
		t.Fatal(err)
	}
	d := rpc.Dict{Bytes: b, ID: zstd.DictID(b), Level: -3}
	srv := rpc.NewServer(nodeLink)
	var got int
	srv.RegisterCodedDict("put", func(_ context.Context, req []byte, coded rpc.Coded) ([]byte, error) {
		got = len(req)
		if coded.Codec != "zstd" {
			return nil, fmt.Errorf("put arrived as %q", coded.Codec)
		}
		return nil, nil
	}, func(id uint32) []byte {
		if id == d.ID {
			return d.Bytes
		}
		return nil
	})
	cl := servePipe(t, srv)
	cd, err := rpc.NewCoder(nodeLink)
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := corpus.Records(99, 2<<10)
	var dst []byte
	n := allocsPerOp(t, func() {
		body, err := cd.CodeDict(ctx, "put", req, d)
		if err != nil {
			t.Fatal(err)
		}
		if dst, err = cl.AppendCallBody(ctx, dst[:0], &body); err != nil || got != len(req) {
			t.Fatalf("put: %v", err)
		}
	})
	t.Logf("warmed CodeDict + AppendCallBody, %d B: %v allocs/op", len(req), n)
	if n != 0 {
		t.Errorf("warmed dictionary-coded put of %d B: %v allocs/op, want 0", len(req), n)
	}
	if frames := cl.Stats().DictFrames; frames == 0 {
		t.Fatal("no put travelled dictionary-coded")
	}
}

// maxClusterGetAllocs pins a warmed Cluster.Get of a memtable-resident
// 128 B value on three nodes at RF=3: the value copied out for the caller.
// The pooled op starts its two fan-out goroutines with calls bound once per
// replica slot; with a closure for each it was 3. With each record and
// digest reply allocated by its node's handler and again by the client
// reading it it was 9; with a cancellation watch per call, per-op fan-out
// state and the record copied twice on its node it was 48.
const maxClusterGetAllocs = 1

func TestCallAllocsClusterGet(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
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

// maxGetBytesOverValue bounds what a warmed Cluster.Get of a flushed value
// allocates beyond the value's own copy: rounding, and what the race
// detector adds (≤ 6 B measured). Every reply — the node's record read out
// of its block cache, the digests, the client's decompressed record — lands
// in a kept buffer, and the fan-out starts its goroutines without closures.
// With a closure for each the bound was 160; with fresh reply buffers on both ends
// of each call it was ≈ 1.4 KB over a 1 KiB value.
const maxGetBytesOverValue = 32

func TestCallAllocsClusterGetBytes(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
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
	key, value := []byte("cold-key"), bytes.Repeat([]byte("1 KiB value "), 86)[:1024]
	if err := c.Put(ctx, key, value); err != nil {
		t.Fatal(err)
	}
	for _, name := range c.Nodes() {
		if err := c.Node(name).Store().Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	get := func() {
		got, ok, err := c.Get(ctx, key)
		if err != nil || !ok || !bytes.Equal(got, value) {
			t.Fatalf("get: %d bytes ok=%v err=%v", len(got), ok, err)
		}
	}
	for i := 0; i < 10; i++ {
		get()
	}
	// The least of several trials: on a busy machine the process allocates
	// more around the gets (a full-suite run once read 1 186 B/op), and that
	// only ever adds.
	const trials, runs = 5, 100
	perOp := ^uint64(0)
	for range trials {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			get()
		}
		runtime.ReadMemStats(&after)
		perOp = min(perOp, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	t.Logf("warmed Cluster.Get of a flushed %d B value: %d B/op", len(value), perOp)
	if perOp > uint64(len(value)+maxGetBytesOverValue) {
		t.Errorf("warmed Cluster.Get of a flushed %d B value: %d B/op, want at most %d", len(value), perOp, len(value)+maxGetBytesOverValue)
	}
}

// maxClusterPutAllocs pins a warmed Cluster.Put of a 2 KiB value on three
// nodes at RF=3 that fills no memtable: the request is framed in the pooled
// op, each node's store copies the record into its batch buffer and its
// memtable's arena, the version table rewrites the key's entry in place,
// and the fan-out starts its goroutines with calls bound once per replica
// slot. It measures 0; the 1 leaves room for the runtime's own rare
// allocation. With a closure per fan-out goroutine it was 3; allocating the
// request, the batch's and the memtable's copies and a version-table key
// per node, it was 12.
const maxClusterPutAllocs = 1

func TestCallAllocsClusterPut(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
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
	// are 130 KiB of WAL and one overwritten slot, far from a flush. Their
	// first 64 KiB train the cluster dictionary the measured puts are coded
	// against.
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
