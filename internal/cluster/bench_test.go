package cluster

import (
	"fmt"
	"testing"

	"github.com/datacomp/datacomp/internal/corpus"
	"github.com/datacomp/datacomp/internal/trace"
)

// BenchmarkClusterPut is a warm three-node cluster's put of a 1 KiB corpus
// record with the default links (lz4-1 with checksums) and WALs (lz4):
// past its first 64 KiB of puts the cluster codes them against its
// dictionary. codings/put is how many times one put's kv.put request is
// coded for the links, counted as "rpc.compress" spans over traced puts
// after the timed ones: coding it per replica client reads 3, once per
// fan-out 1. dictframes/put is rpc_dict_frames_total's growth per timed
// put: 6 when every put is dictionary-coded, sent to 3 replicas and
// decoded by each. walcodings/put is how many times the replicas code it
// again for their logs (the stores' WALCoded): 3 when each codes its
// record, 0 when each log keeps the coding it arrived in.
func BenchmarkClusterPut(b *testing.B) {
	c := New()
	defer c.Close()
	for i := 0; i < replication; i++ {
		if _, err := c.AddNode(tctx, fmt.Sprintf("node-%d", i)); err != nil {
			b.Fatal(err)
		}
	}
	const keyCount, valueCount = 4096, 64
	keys := make([][]byte, keyCount)
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "user:%06d", i)
	}
	values := make([][]byte, valueCount)
	for i := range values {
		values[i] = corpus.Records(int64(i), 1<<10)
	}
	put := func(i int) {
		if err := c.Put(tctx, keys[i%keyCount], values[i%valueCount]); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < keyCount; i++ { // every key stored once, every buffer warm
		put(i)
	}
	walCoded := func() (n int64) {
		for _, node := range c.nodes {
			db, err := node.store()
			if err != nil {
				b.Fatal(err)
			}
			n += db.Stats().WALCoded
		}
		return n
	}
	frames, walBefore := rpcDictFrames.Value(), walCoded()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		put(i)
	}
	b.StopTimer()
	b.ReportMetric(float64(rpcDictFrames.Value()-frames)/float64(b.N), "dictframes/put")
	b.ReportMetric(float64(walCoded()-walBefore)/float64(b.N), "walcodings/put")

	const traced = 64
	rec := trace.NewRecorder(0, traced)
	tracer := trace.New(trace.Config{SampleEvery: 1, Recorder: rec})
	for i := 0; i < traced; i++ {
		ctx, root := tracer.StartRoot(tctx, "put")
		if err := c.Put(ctx, keys[i], values[i%valueCount]); err != nil {
			b.Fatal(err)
		}
		root.End()
	}
	spans := 0
	for _, td := range rec.Snapshot() {
		for _, sp := range td.Spans {
			if sp.Name == "rpc.compress" {
				spans++
			}
		}
	}
	b.ReportMetric(float64(spans)/traced, "codings/put")
}
