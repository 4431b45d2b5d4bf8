package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"github.com/datacomp/datacomp/internal/corpus"
	"github.com/datacomp/datacomp/internal/xxhash"
)

// workload is one traffic mix. The four below are the ruler later issues
// refer to; bench/README.md records why each exists and which layer it
// isolates or bypasses.
type workload struct {
	name      string
	valueSize int
	keys      int     // key population
	preload   bool    // put every key once during set-up
	flush     bool    // flush every node's memtable after the preload
	getFrac   float64 // share of Get ops; the rest are Put
	zipfS     float64 // key skew; 0 = uniform
	corpus    string  // "records" (Records+LogLines) or "cache" (CacheItems)

	// opsPerSec sizes the run: the measured phase is opsPerSec × -seconds
	// ops, the same ops on every run of a seed, so the byte metrics cover
	// the same work whatever the speed. On a closed loop it is the seed
	// commit's throughput, so a run measures about -seconds there; on the
	// open loop it is also the offered rate.
	opsPerSec float64
	open      bool // open loop at opsPerSec; otherwise closed loop with `clients` callers
}

// clients is the closed-loop caller count and the open-loop worker count:
// one load process with nproc (= 2 in the sandbox) goroutines.
const clients = 2

// openLoopRate is mix-2k-open's offered rate, frozen at a third of the
// 3 640 ops/s the seed commit sustains on the same mix closed-loop
// (bench/README.md says why not half).
const openLoopRate = 1200

var workloads = []workload{
	{
		name:      "put-2k",
		valueSize: 2048, keys: 8000, preload: true, corpus: "records",
		opsPerSec: 1100,
	},
	{
		name:      "get-128-hot",
		valueSize: 128, keys: 2000, preload: true, getFrac: 1, zipfS: 1.1, corpus: "cache",
		opsPerSec: 60000,
	},
	{
		name:      "get-1k-cold",
		valueSize: 1024, keys: 48000, preload: true, flush: true, getFrac: 1, corpus: "records",
		opsPerSec: 4000,
	},
	{
		name:      "mix-2k-open",
		valueSize: 2048, keys: 8000, preload: true, getFrac: 0.5, zipfS: 1.1, corpus: "records",
		opsPerSec: openLoopRate, open: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled shrinks the key population for -ops smoke runs so a preload costs
// a fraction of a second; the layer-separation properties only hold at
// full size.
func (w workload) scaled(ops int) workload {
	if ops > 0 {
		w.keys = min(w.keys, max(ops/4, 100))
	}
	return w
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func unitFloat(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// valuePool holds seeded corpus bytes cut into value-sized windows. A value
// is one window with its first stampLen bytes replaced by the write's stamp,
// so every write is distinguishable and still compresses like the corpus.
type valuePool struct {
	data    []byte
	size    int
	windows int
}

const (
	stampLen    = 16
	poolWindows = 4096
)

func newValuePool(kind string, seed int64, size int) *valuePool {
	n := size * poolWindows
	var data []byte
	switch kind {
	case "cache":
		types := corpus.DefaultItemTypes()
		for i := 0; len(data) < n; i++ {
			for _, it := range corpus.CacheItems(seed+int64(i), types[i%len(types)], 512) {
				data = append(data, it...)
			}
		}
		data = data[:n]
	default:
		data = append(corpus.Records(seed, n/2), corpus.LogLines(seed, n-n/2)...)
	}
	return &valuePool{data: data, size: size, windows: poolWindows}
}

const hexDigits = "0123456789abcdef"

// appendValue appends the value a write stamped `stamp` carries.
func (p *valuePool) appendValue(dst []byte, stamp uint64) []byte {
	off := int(mix64(stamp)%uint64(p.windows)) * p.size
	base := len(dst)
	dst = append(dst, p.data[off:off+p.size]...)
	for i := 0; i < stampLen; i++ {
		dst[base+i] = hexDigits[(stamp>>(60-4*uint(i)))&0xf]
	}
	return dst
}

// stampOf recovers the stamp from a value, or false if it has none.
func stampOf(v []byte) (uint64, bool) {
	if len(v) < stampLen {
		return 0, false
	}
	var s uint64
	for _, c := range v[:stampLen] {
		switch {
		case c >= '0' && c <= '9':
			s = s<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			s = s<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return s, true
}

// preloadStream is the stamp stream of set-up writes; client streams are
// 0..clients-1 and the open loop uses stream 0.
const preloadStream = 0xff

func stamp(stream uint64, seq uint64) uint64 { return stream<<48 | seq }

func keyBytes(dst []byte, idx int) []byte {
	return fmt.Appendf(dst, "user:%08d", idx)
}

// opGen maps (stream, index) to an op, statelessly, so the open loop's
// workers and the closed loop's clients draw from fixed sequences whatever
// the timing.
type opGen struct {
	seed    uint64
	getFrac float64
	keys    int
	cdf     []float64 // zipf CDF over ranks; nil = uniform
}

func newOpGen(w workload, seed int64) *opGen {
	g := &opGen{seed: mix64(uint64(seed)), getFrac: w.getFrac, keys: w.keys}
	if w.zipfS > 0 {
		g.cdf = make([]float64, w.keys)
		var sum float64
		for i := range g.cdf {
			sum += math.Pow(float64(i+1), -w.zipfS)
			g.cdf[i] = sum
		}
		for i := range g.cdf {
			g.cdf[i] /= sum
		}
	}
	return g
}

// scramble spreads popularity ranks over the key space (1000003 is prime
// and larger than any key population, hence coprime with it) so hot keys do
// not share SST blocks.
const scramble = 1000003

func (g *opGen) at(stream, j uint64) (isGet bool, key int) {
	h := mix64(g.seed ^ (stream+1)*0xd6e8feb86659fd93 ^ j)
	rank := 0
	if g.cdf != nil {
		rank = sort.SearchFloat64s(g.cdf, unitFloat(h))
		if rank >= g.keys {
			rank = g.keys - 1
		}
	} else {
		rank = int(h % uint64(g.keys))
	}
	return unitFloat(mix64(h)) < g.getFrac, int(uint64(rank) * scramble % uint64(g.keys))
}

// sequenceHash digests the first ops of every stream: same seed, same hash.
func (g *opGen) sequenceHash() uint64 {
	var d xxhash.Digest
	d.Reset()
	var b [9]byte
	for s := uint64(0); s < clients; s++ {
		for j := uint64(0); j < 4096; j++ {
			isGet, key := g.at(s, j)
			b[0] = 0
			if isGet {
				b[0] = 1
			}
			binary.LittleEndian.PutUint64(b[1:], uint64(key))
			d.Write(b[:])
		}
	}
	return d.Sum64()
}
