package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/corpus"
	"github.com/datacomp/datacomp/internal/kvstore"
)

// countedLZ4 is lz4 under another name, counting the payloads it compresses.
const countedLZ4 = "lz4-counted"

var (
	countedOnce sync.Once
	codings     atomic.Int64
)

type countingCodec struct{ codec.Codec }

func (countingCodec) Name() string { return countedLZ4 }

func (c countingCodec) New(opts codec.Options) (codec.Engine, error) {
	e, err := c.Codec.New(opts)
	return countingEngine{e}, err
}

type countingEngine struct{ codec.Engine }

func (e countingEngine) Compress(dst, src []byte) ([]byte, error) {
	codings.Add(1)
	return e.Engine.Compress(dst, src)
}

// BenchmarkClusterPut is a warm three-node cluster's put of a 1 KiB corpus
// record over links coded as the default ones (lz4-1 with checksums),
// through a codec that counts its calls and that the nodes' WALs use too,
// as the default links and WALs share lz4. codings/put is how many times one
// put's kv.put request is coded for the links: coding it per replica client
// reads 3, once per fan-out 1. walcodings/put is how many times the
// replicas code it again for their logs (the stores' WALCoded): 3 when each
// codes its record, 0 when each log keeps the link's coding.
func BenchmarkClusterPut(b *testing.B) {
	countedOnce.Do(func() {
		lz4, ok := codec.Lookup("lz4")
		if !ok {
			b.Fatal("lz4 is not registered")
		}
		codec.Register(countingCodec{lz4})
	})
	link := defaultCompression
	link.Codec = countedLZ4
	c := New(WithCompression(link), WithNodeDefaults(WithNodeStoreOptions(kvstore.WithWALCodec(countedLZ4))))
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
	before, walBefore := codings.Load(), walCoded()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		put(i)
	}
	b.StopTimer()
	wal := walCoded() - walBefore
	b.ReportMetric(float64(codings.Load()-before-wal)/float64(b.N), "codings/put")
	b.ReportMetric(float64(wal)/float64(b.N), "walcodings/put")
}
