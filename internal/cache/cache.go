// Package cache implements a memcached-style in-memory object cache with
// per-item compression, reproducing the CACHE1/CACHE2 services of the
// paper's §IV-C: items must stay individually decompressible for random
// access, items are typed, and one trained dictionary per type recovers the
// ratio lost to small item sizes. Each type is its own class of an
// adaptive.Controller, the Managed Compression service that samples the
// type's items, trains its dictionary and keeps every version decodable.
// Items are stored (and would be shipped to clients) compressed;
// decompression cost is attributed to the client side, which is the
// paper's "saves both cache CPU and network" argument.
package cache

import (
	"container/list"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"github.com/datacomp/datacomp/internal/adaptive"
	"github.com/datacomp/datacomp/internal/telemetry"
)

// Package-level telemetry on the shared registry, registered on first
// cache construction. All caches in the process aggregate here; per-cache
// numbers stay available via Cache.Stats.
var (
	tmOnce      sync.Once
	tmHits      *telemetry.Counter
	tmMisses    *telemetry.Counter
	tmSets      *telemetry.Counter
	tmEvicts    *telemetry.Counter
	tmCompNS    *telemetry.Counter
	tmDecompNS  *telemetry.Counter
	tmItemBytes *telemetry.Histogram
	tmResident  *telemetry.Gauge
)

func tm() {
	tmOnce.Do(func() {
		r := telemetry.Default
		tmHits = r.Counter("cache_hits_total", "cache get hits")
		tmMisses = r.Counter("cache_misses_total", "cache get misses")
		tmSets = r.Counter("cache_sets_total", "cache sets")
		tmEvicts = r.Counter("cache_evictions_total", "LRU evictions")
		tmCompNS = r.Counter("cache_compress_ns_total", "server-side compression time")
		tmDecompNS = r.Counter("cache_decompress_ns_total", "client-side decompression time")
		tmItemBytes = r.Histogram("cache_item_bytes", "raw item size on set", "bytes")
		tmResident = r.Gauge("cache_resident_compressed_bytes", "resident compressed bytes across caches")
	})
}

// Config configures a Cache. The struct form stays because cache configs
// are written as literals in service manifests.
type Config struct {
	// Shards is the number of independent shards (concurrency domains).
	Shards int
	// CapacityBytes bounds resident compressed bytes per cache; LRU
	// eviction enforces it. 0 means unbounded.
	CapacityBytes int64
	// MinCompressSize skips compression for tiny items where headers
	// dominate.
	MinCompressSize int
	// Adaptive compresses items; it is required. Each item type becomes
	// its own traffic class ("cache:" + type) whose config the controller
	// retunes from reservoir samples of actual Set traffic, its trained
	// dictionary included. Resident payloads written under retired
	// generations stay readable because adaptive frames are
	// self-describing.
	Adaptive *adaptive.Controller
}

// adaptiveClassPrefix namespaces the per-type adaptive classes.
const adaptiveClassPrefix = "cache:"

func (c *Config) fill() {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.MinCompressSize == 0 {
		c.MinCompressSize = 64
	}
}

// Stats aggregates cache activity. Byte counters describe resident data;
// time counters separate server-side (compress on set) from client-side
// (decompress on get) work.
type Stats struct {
	Hits   int64
	Misses int64
	Sets   int64
	Evicts int64

	ResidentRawBytes        int64
	ResidentCompressedBytes int64

	ServerCompressTime   time.Duration
	ClientDecompressTime time.Duration

	// NetworkBytesCompressed counts bytes that crossed the wire compressed
	// on Get; NetworkBytesRaw is what they would have been uncompressed.
	NetworkBytesCompressed int64
	NetworkBytesRaw        int64
}

// CompressionRatio is the resident raw/compressed ratio.
func (s Stats) CompressionRatio() float64 {
	if s.ResidentCompressedBytes == 0 {
		return 0
	}
	return float64(s.ResidentRawBytes) / float64(s.ResidentCompressedBytes)
}

type entry struct {
	key      string
	typ      string
	payload  []byte // compressed (or raw when below MinCompressSize)
	rawSize  int
	stored   bool // true when payload is raw
	lruEntry *list.Element
}

type shard struct {
	mu      sync.Mutex
	items   map[string]*entry
	lru     *list.List // front = most recent
	bytes   int64
	handles map[string]*adaptive.Handle // per item type
	def     *adaptive.Handle            // the untyped class, and the fallback
	cfg     *Config

	stats Stats
}

// Cache is a sharded compressed object cache. Safe for concurrent use.
type Cache struct {
	cfg    Config
	shards []*shard
}

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	cfg.fill()
	tm()
	if cfg.Adaptive == nil {
		return nil, errors.New("cache: Config.Adaptive is required")
	}
	// One controller-managed handle per item type, shared by every shard
	// (handles are concurrent-safe, unlike raw engines).
	def, err := cfg.Adaptive.Handle(adaptiveClassPrefix + "default")
	if err != nil {
		return nil, fmt.Errorf("cache: adaptive default class: %w", err)
	}
	c := &Cache{cfg: cfg}
	for i := 0; i < cfg.Shards; i++ {
		c.shards = append(c.shards, &shard{
			items:   make(map[string]*entry),
			lru:     list.New(),
			handles: make(map[string]*adaptive.Handle),
			def:     def,
			cfg:     &c.cfg,
		})
	}
	return c, nil
}

func (c *Cache) shardIndex(key string) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(len(c.shards)))
}

func (c *Cache) shard(key string) *shard {
	return c.shards[c.shardIndex(key)]
}

func (s *shard) handle(typ string) *adaptive.Handle {
	if h, ok := s.handles[typ]; ok {
		return h
	}
	if typ != "" {
		// Materialize the per-type class on first touch (caller holds
		// s.mu, so the per-shard cache write is safe). A controller
		// failure falls back to the default class rather than failing the
		// operation.
		if h, err := s.cfg.Adaptive.Handle(adaptiveClassPrefix + typ); err == nil {
			s.handles[typ] = h
			return h
		}
	}
	return s.def
}

// ErrEmptyKey is returned for operations with an empty key.
var ErrEmptyKey = errors.New("cache: empty key")

// storeLocked inserts or replaces key's entry and updates resident
// accounting. Caller holds s.mu.
func (s *shard) storeLocked(key, typ string, payload []byte, rawSize int, raw bool) {
	if old, ok := s.items[key]; ok {
		s.bytes -= int64(len(old.payload))
		s.stats.ResidentRawBytes -= int64(old.rawSize)
		s.stats.ResidentCompressedBytes -= int64(len(old.payload))
		tmResident.Add(-int64(len(old.payload)))
		s.lru.Remove(old.lruEntry)
		delete(s.items, key)
	}
	e := &entry{key: key, typ: typ, payload: payload, rawSize: rawSize, stored: raw}
	e.lruEntry = s.lru.PushFront(e)
	s.items[key] = e
	s.bytes += int64(len(payload))
	s.stats.Sets++
	s.stats.ResidentRawBytes += int64(rawSize)
	s.stats.ResidentCompressedBytes += int64(len(payload))
	tmSets.Inc()
	tmItemBytes.Observe(int64(rawSize))
	tmResident.Add(int64(len(payload)))
}

// evictLocked enforces CapacityBytes with LRU eviction. Caller holds s.mu.
func (s *shard) evictLocked() {
	if s.cfg.CapacityBytes <= 0 {
		return
	}
	for s.bytes > s.cfg.CapacityBytes && s.lru.Len() > 1 {
		victim := s.lru.Back().Value.(*entry)
		s.lru.Remove(victim.lruEntry)
		delete(s.items, victim.key)
		s.bytes -= int64(len(victim.payload))
		s.stats.ResidentRawBytes -= int64(victim.rawSize)
		s.stats.ResidentCompressedBytes -= int64(len(victim.payload))
		s.stats.Evicts++
		tmEvicts.Inc()
		tmResident.Add(-int64(len(victim.payload)))
	}
}

// Set stores value under key, compressing it through the type's class.
func (c *Cache) Set(key, typ string, value []byte) error {
	if key == "" {
		return ErrEmptyKey
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()

	if len(value) < s.cfg.MinCompressSize {
		// Tiny items skip the codec entirely — no compress time accrues.
		s.storeLocked(key, typ, append([]byte{}, value...), len(value), true)
		s.evictLocked()
		return nil
	}
	t0 := time.Now()
	payload, err := s.handle(typ).Compress(nil, value)
	dt := time.Since(t0)
	s.stats.ServerCompressTime += dt
	tmCompNS.Add(dt.Nanoseconds())
	if err != nil {
		return err
	}
	raw := len(payload) >= len(value)
	if raw {
		// Incompressible: store the value itself.
		payload = append([]byte{}, value...)
	}
	s.storeLocked(key, typ, payload, len(value), raw)
	s.evictLocked()
	return nil
}

// Get fetches and decodes the value for key. The payload travels compressed
// (counted as network bytes); decompression time is attributed to the
// client.
func (c *Cache) Get(key string) ([]byte, bool, error) {
	if key == "" {
		return nil, false, ErrEmptyKey
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.items[key]
	if !ok {
		s.stats.Misses++
		tmMisses.Inc()
		return nil, false, nil
	}
	s.lru.MoveToFront(e.lruEntry)
	s.stats.Hits++
	tmHits.Inc()
	s.stats.NetworkBytesCompressed += int64(len(e.payload))
	s.stats.NetworkBytesRaw += int64(e.rawSize)
	if e.stored {
		return append([]byte{}, e.payload...), true, nil
	}
	t0 := time.Now()
	out, err := s.handle(e.typ).Decompress(nil, e.payload)
	dt := time.Since(t0)
	s.stats.ClientDecompressTime += dt
	tmDecompNS.Add(dt.Nanoseconds())
	if err != nil {
		return nil, false, err
	}
	return out, true, nil
}

// Delete removes key, reporting whether it was present.
func (c *Cache) Delete(key string) bool {
	if key == "" {
		return false
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.items[key]
	if !ok {
		return false
	}
	s.lru.Remove(e.lruEntry)
	delete(s.items, key)
	s.bytes -= int64(len(e.payload))
	s.stats.ResidentRawBytes -= int64(e.rawSize)
	s.stats.ResidentCompressedBytes -= int64(len(e.payload))
	tmResident.Add(-int64(len(e.payload)))
	return true
}

// Len returns the number of resident items.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}

// Stats merges all shard statistics.
func (c *Cache) Stats() Stats {
	var total Stats
	for _, s := range c.shards {
		s.mu.Lock()
		st := s.stats
		s.mu.Unlock()
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.Sets += st.Sets
		total.Evicts += st.Evicts
		total.ResidentRawBytes += st.ResidentRawBytes
		total.ResidentCompressedBytes += st.ResidentCompressedBytes
		total.ServerCompressTime += st.ServerCompressTime
		total.ClientDecompressTime += st.ClientDecompressTime
		total.NetworkBytesCompressed += st.NetworkBytesCompressed
		total.NetworkBytesRaw += st.NetworkBytesRaw
	}
	return total
}
