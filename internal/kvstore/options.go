package kvstore

import (
	"github.com/datacomp/datacomp/internal/codec"
)

// SyncPolicy is the WAL fsync knob: how much acknowledged data a crash may
// cost. It is the classic durability/throughput trade the fleet tunes per
// store — a replicated cluster can afford SyncOnCheckpoint on each node
// because the other replicas are the short-term durability.
type SyncPolicy int

const (
	// SyncOnCheckpoint (the default) appends WAL records without fsync:
	// writes become durable at the next flush (tables + manifest commit) or
	// Close. A crash loses the unsynced tail; replay recovers everything up
	// to the last sync.
	SyncOnCheckpoint SyncPolicy = iota
	// SyncAlways fsyncs the WAL before acknowledging every batch: no
	// acknowledged write is ever lost to a crash.
	SyncAlways
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	default:
		return "checkpoint"
	}
}

// defaultBlockCacheBytes is the decoded-block cache's default budget.
const defaultBlockCacheBytes = 4 << 20

// config is the resolved Open configuration.
type config struct {
	codecName string
	level     int
	engine    codec.Engine // nil: built from codecName+level

	blockSize         int
	memtableBytes     int
	maxTableBytes     int
	l0Trigger         int
	baseLevelBytes    int64
	blockCacheEntries int
	seed              int64

	persister   Persister
	walDisabled bool
	sync        SyncPolicy
	walCodec    string
}

// Option configures Open, mirroring the functional-option vocabulary of
// codec.NewEngine and container's readers.
type Option func(*config)

// WithCodec selects the block compressor by registered codec name
// (default "zstd").
func WithCodec(name string) Option { return func(c *config) { c.codecName = name } }

// WithLevel sets the block compressor level (default 1, the common choice
// the paper reports for compaction-heavy stores).
func WithLevel(level int) Option { return func(c *config) { c.level = level } }

// WithEngine installs a prebuilt engine for block compression instead of
// constructing one from the codec name — the hook for wrapped engines such
// as telemetry.Instrument. The engine must be dedicated
// to this DB (engines are single-goroutine; the DB serializes access), and
// it must decode every frame it encodes across reopens.
func WithEngine(eng codec.Engine) Option { return func(c *config) { c.engine = eng } }

// WithBlockSize sets the uncompressed data-block granularity (default
// 8 KiB; RocksDB commonly uses 16-64 KiB per the paper). A point get decodes
// one block, so the block size is its decode cost; the store dictionary a
// zstd store trains at its first flush (DESIGN.md §11) wins back the ratio
// that blocks this small lose. The block cache's default entry count
// follows it.
func WithBlockSize(n int) Option { return func(c *config) { c.blockSize = n } }

// WithMemtableBytes triggers a flush when the memtable reaches this size
// (default 1 MiB).
func WithMemtableBytes(n int) Option { return func(c *config) { c.memtableBytes = n } }

// WithMaxTableBytes bounds the raw bytes per output table during flush and
// compaction (default 2 MiB).
func WithMaxTableBytes(n int) Option { return func(c *config) { c.maxTableBytes = n } }

// WithL0CompactionTrigger compacts L0 when it accumulates this many tables
// (default 4).
func WithL0CompactionTrigger(n int) Option { return func(c *config) { c.l0Trigger = n } }

// WithBaseLevelBytes sets the stored-size budget of L1; each deeper level
// gets 10x more (default 8 MiB).
func WithBaseLevelBytes(n int64) Option { return func(c *config) { c.baseLevelBytes = n } }

// WithBlockCacheEntries bounds the decoded-block cache in blocks (default
// 4 MiB of decoded blocks: 4 MiB ÷ the block size, 512 at the default
// 8 KiB; negative disables).
func WithBlockCacheEntries(n int) Option { return func(c *config) { c.blockCacheEntries = n } }

// WithSeed makes skiplist heights deterministic.
func WithSeed(seed int64) Option { return func(c *config) { c.seed = seed } }

// WithPersister installs the durability backend. It overrides the path
// argument of Open; tests run diskless by passing a MemPersister or
// FaultPersister here.
func WithPersister(p Persister) Option { return func(c *config) { c.persister = p } }

// WithWAL sets the write-ahead log's fsync policy (default
// SyncOnCheckpoint). The WAL itself is always on unless WithoutWAL.
func WithWAL(policy SyncPolicy) Option { return func(c *config) { c.sync = policy } }

// WithoutWAL disables the write-ahead log and the persister entirely: the
// DB is purely in-memory and nothing survives a crash. This is the v1
// behavior, kept for benchmarks and characterization runs that measure
// block compression alone.
func WithoutWAL() Option { return func(c *config) { c.walDisabled = true } }

// WithWALCodec selects the WAL record compressor (default "lz4": the WAL
// sits on the write ack path, so the cheapest codec wins; blocks keep
// their own, denser codec).
func WithWALCodec(name string) Option { return func(c *config) { c.walCodec = name } }

func buildConfig(opts []Option) config {
	c := config{}
	for _, o := range opts {
		o(&c)
	}
	if c.codecName == "" {
		c.codecName = "zstd"
	}
	if c.level == 0 {
		c.level = 1
	}
	if c.blockSize == 0 {
		c.blockSize = 8 << 10
	}
	if c.memtableBytes == 0 {
		c.memtableBytes = 1 << 20
	}
	if c.maxTableBytes == 0 {
		c.maxTableBytes = 2 << 20
	}
	if c.l0Trigger == 0 {
		c.l0Trigger = 4
	}
	if c.baseLevelBytes == 0 {
		c.baseLevelBytes = 8 << 20
	}
	if c.blockCacheEntries == 0 {
		c.blockCacheEntries = max(1, defaultBlockCacheBytes/c.blockSize)
	}
	if c.walCodec == "" {
		c.walCodec = "lz4"
	}
	return c
}
