package kvstore

import (
	"bytes"
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/container"
	"github.com/datacomp/datacomp/internal/telemetry"
)

// Package-level telemetry on the shared registry, registered on first Open.
// All DBs in the process aggregate here; per-DB numbers remain in DB.Stats.
var (
	tmOnce                                  sync.Once
	tmPuts, tmGets, tmDeletes               *telemetry.Counter
	tmFlushes, tmCompactions                *telemetry.Counter
	tmCompNS, tmDecompNS, tmReadNS          *telemetry.Counter
	tmBlocksWritten, tmBlocksRead           *telemetry.Counter
	tmBlocksDecompressed, tmBlockCacheHits  *telemetry.Counter
	tmRawBytesWritten, tmStoredBytesWritten *telemetry.Counter
	tmBytesDecompressed                     *telemetry.Counter
	tmWALAppends, tmWALBytes, tmWALSyncs    *telemetry.Counter
	tmWALCompNS                             *telemetry.Counter
	tmSnapshots, tmSnapshotBytes            *telemetry.Counter
	tmReplayedBatches, tmRecoveries         *telemetry.Counter
)

func tm() {
	tmOnce.Do(func() {
		r := telemetry.Default
		tmPuts = r.Counter("kvstore_puts_total", "kvstore put operations")
		tmGets = r.Counter("kvstore_gets_total", "kvstore get operations")
		tmDeletes = r.Counter("kvstore_deletes_total", "kvstore delete operations")
		tmFlushes = r.Counter("kvstore_flushes_total", "memtable flushes")
		tmCompactions = r.Counter("kvstore_compactions_total", "level compactions")
		tmCompNS = r.Counter("kvstore_compress_ns_total", "block compression time (flush + compaction)")
		tmDecompNS = r.Counter("kvstore_decompress_ns_total", "block decompression time")
		tmReadNS = r.Counter("kvstore_read_ns_total", "time inside Get")
		tmBlocksWritten = r.Counter("kvstore_blocks_written_total", "data blocks written")
		tmBlocksRead = r.Counter("kvstore_blocks_read_total", "data blocks read")
		tmBlocksDecompressed = r.Counter("kvstore_blocks_decompressed_total", "data blocks decompressed")
		tmBlockCacheHits = r.Counter("kvstore_block_cache_hits_total", "decoded-block cache hits")
		tmRawBytesWritten = r.Counter("kvstore_raw_bytes_written_total", "raw bytes entering block compression")
		tmStoredBytesWritten = r.Counter("kvstore_stored_bytes_written_total", "stored bytes after block compression")
		tmBytesDecompressed = r.Counter("kvstore_bytes_decompressed_total", "uncompressed bytes produced by block decodes")
		tmWALAppends = r.Counter("kvstore_wal_appends_total", "WAL record batches appended")
		tmWALBytes = r.Counter("kvstore_wal_bytes_total", "framed WAL bytes appended")
		tmWALSyncs = r.Counter("kvstore_wal_syncs_total", "WAL fsyncs")
		tmWALCompNS = r.Counter("kvstore_wal_compress_ns_total", "time coding WAL records (compress + checksum + frame)")
		tmSnapshots = r.Counter("kvstore_snapshots_total", "snapshot checkpoints written")
		tmSnapshotBytes = r.Counter("kvstore_snapshot_bytes_total", "snapshot container bytes written")
		tmReplayedBatches = r.Counter("kvstore_wal_replayed_batches_total", "WAL batches applied during recovery")
		tmRecoveries = r.Counter("kvstore_recoveries_total", "DB opens that recovered prior state")
	})
}

const numLevels = 7

// Stats aggregates DB activity, separating the compression work the paper
// attributes to compaction from read-side decompression.
type Stats struct {
	Puts, Gets, Deletes int64
	Flushes             int64
	Compactions         int64

	CompressTime   time.Duration
	DecompressTime time.Duration
	ReadTime       time.Duration

	BlocksWritten      int64
	BlocksRead         int64
	BlocksDecompressed int64
	BlockCacheHits     int64

	// BytesDecompressed counts uncompressed bytes produced by block
	// decodes — the per-lookup decode cost the container's single-block
	// point reads keep proportional to block size, not value count.
	BytesDecompressed int64

	RawBytesWritten    int64
	StoredBytesWritten int64

	// Durability-side accounting.
	WALAppends      int64 // record batches appended
	WALBytes        int64 // framed bytes appended
	WALSyncs        int64
	WALCompressTime time.Duration // coding WAL records: compress + checksum + frame
	Snapshots       int64
	ReplayedBatches int64 // WAL batches applied during recovery
}

// WriteAmplification is stored bytes written per raw byte ingested.
func (s Stats) WriteAmplification() float64 {
	if s.RawBytesWritten == 0 {
		return 0
	}
	return float64(s.StoredBytesWritten) / float64(s.RawBytesWritten)
}

// CompressionRatio is raw/stored over all block writes.
func (s Stats) CompressionRatio() float64 {
	if s.StoredBytesWritten == 0 {
		return 0
	}
	return float64(s.RawBytesWritten) / float64(s.StoredBytesWritten)
}

// DecompressPerBlock is the mean block decompression latency, the quantity
// KVSTORE1's read SLO bounds.
func (s Stats) DecompressPerBlock() time.Duration {
	if s.BlocksDecompressed == 0 {
		return 0
	}
	return s.DecompressTime / time.Duration(s.BlocksDecompressed)
}

// DB is an embedded LSM key-value store with a compressed write-ahead log
// and snapshot checkpoints. Safe for concurrent use (a single mutex
// serializes operations; the paper's experiments measure compression work,
// not lock scalability).
type DB struct {
	mu     sync.Mutex
	cfg    config
	eng    codec.Engine
	mem    *memtable
	levels [numLevels][]*sstable // levels[0] newest-first; deeper levels sorted, disjoint
	cache  *blockCache
	nextID int64
	stats  Stats
	closed bool

	// Durability state (nil persister / nil walEng when WithoutWAL).
	persister Persister
	walEng    codec.Engine
	seq       uint64 // last acknowledged batch sequence
	walBytes  int64  // framed bytes in the current WAL generation
	oneOp     Batch  // scratch batch for Put/Delete
	walBuf    []byte // batch payload scratch
	walFrame  []byte // framed record scratch
	walComp   []byte // compressed payload scratch
}

// Open opens a DB, recovering any state its persister holds: snapshot
// first, then WAL batches past the snapshot's sequence. path names the
// directory of a DirPersister; an empty path without WithPersister runs on
// an in-memory MemPersister (diskless, but still crash-modelable).
func Open(ctx context.Context, path string, opts ...Option) (*DB, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := buildConfig(opts)
	tm()
	eng := cfg.engine
	if eng == nil {
		var err error
		eng, err = codec.NewEngine(cfg.codecName, codec.WithLevel(cfg.level))
		if err != nil {
			return nil, err
		}
	}
	db := &DB{
		cfg: cfg,
		eng: eng,
		mem: newMemtable(cfg.seed),
	}
	if cfg.blockCacheEntries > 0 {
		db.cache = newBlockCache(cfg.blockCacheEntries)
	}
	if !cfg.walDisabled {
		var err error
		db.walEng, err = codec.NewEngine(cfg.walCodec, codec.WithLevel(1))
		if err != nil {
			return nil, err
		}
		db.persister = cfg.persister
		if db.persister == nil {
			if path == "" {
				db.persister = NewMemPersister()
			} else {
				db.persister, err = NewDirPersister(path)
				if err != nil {
					return nil, err
				}
			}
		}
		if err := db.recover(ctx); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// OpenLegacy opens a purely in-memory DB from the v1 Options struct.
//
// Deprecated: use Open with a context and functional options; this shim
// maps Options onto them (plus WithoutWAL, matching the v1 store's lack of
// durability) and will be removed next release.
func OpenLegacy(opts Options) (*DB, error) {
	return Open(context.Background(), "", append(opts.opts(), WithoutWAL())...)
}

// recover loads the persisted snapshot and replays the WAL tail.
func (db *DB) recover(ctx context.Context) error {
	snap, err := db.persister.LoadSnapshot()
	if err != nil {
		return err
	}
	var snapSeq uint64
	recovered := false
	if len(snap) > 0 {
		snapSeq, err = db.loadSnapshotLocked(snap)
		if err != nil {
			return err
		}
		db.seq = snapSeq
		recovered = true
	}
	replayed := 0
	err = db.persister.ReplayWAL(func(rec []byte) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		raw, _, err := container.DecodeRecord(db.walBuf[:0], db.walEng, rec)
		if err != nil {
			// An undecodable record is the crash tail: drop it and stop.
			return ErrStopReplay
		}
		db.walBuf = raw[:0]
		seq, err := decodeBatchPayload(raw, func(key, value []byte, del bool) error {
			return nil // validate the whole batch before applying any of it
		})
		if err != nil {
			return ErrStopReplay
		}
		if seq <= snapSeq {
			// Stale batch already covered by the snapshot (crash landed
			// between snapshot rename and WAL truncate).
			db.walBytes += int64(len(rec))
			return nil
		}
		_, err = decodeBatchPayload(raw, func(key, value []byte, del bool) error {
			if del {
				db.mem.set(append([]byte{}, key...), nil)
			} else {
				v := append([]byte{}, value...)
				if v == nil {
					v = []byte{}
				}
				db.mem.set(append([]byte{}, key...), v)
			}
			return nil
		})
		if err != nil {
			return ErrStopReplay
		}
		db.seq = seq
		db.walBytes += int64(len(rec))
		replayed++
		if err := db.maybeFlushLocked(ctx); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		return err
	}
	if replayed > 0 {
		recovered = true
	}
	db.stats.ReplayedBatches += int64(replayed)
	tmReplayedBatches.Add(int64(replayed))
	if recovered {
		tmRecoveries.Inc()
	}
	return nil
}

// ErrEmptyKey is returned for operations with an empty key.
var ErrEmptyKey = errors.New("kvstore: empty key")

// ErrClosed is returned for operations on a closed DB.
var ErrClosed = errors.New("kvstore: closed")

// Put stores value under key, durably per the WAL sync policy.
func (db *DB) Put(ctx context.Context, key, value []byte) error {
	if len(key) == 0 {
		return ErrEmptyKey
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.oneOp.Reset()
	db.oneOp.Put(key, value)
	return db.applyLocked(ctx, &db.oneOp)
}

// Delete records a tombstone for key.
func (db *DB) Delete(ctx context.Context, key []byte) error {
	if len(key) == 0 {
		return ErrEmptyKey
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.oneOp.Reset()
	db.oneOp.Delete(key)
	return db.applyLocked(ctx, &db.oneOp)
}

// Apply commits every op in b atomically: one WAL record, one fsync under
// SyncAlways, then the memtable mutation. Either the whole batch is
// acknowledged or none of it is applied.
func (db *DB) Apply(ctx context.Context, b *Batch) error {
	for _, op := range b.ops {
		if len(op.key) == 0 {
			return ErrEmptyKey
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.applyLocked(ctx, b)
}

func (db *DB) applyLocked(ctx context.Context, b *Batch) error {
	if db.closed {
		return ErrClosed
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if b.Len() == 0 {
		return nil
	}

	// Write-ahead: the batch must be in the log (and synced, under
	// SyncAlways) before any in-memory state changes. A failed append is a
	// failed ack with no state change anywhere. A failed sync is also a
	// failed ack and mutates nothing in memory, but the record may already
	// sit in the log, so a later recovery can surface the batch — the same
	// indeterminate window as a commit that errors after transport.
	if db.persister != nil {
		db.walBuf = appendBatchPayload(db.walBuf[:0], db.seq+1, b)
		var err error
		t0 := time.Now()
		db.walFrame, db.walComp, err = container.AppendRecord(db.walFrame[:0], db.walComp, db.walEng, db.walBuf)
		dt := time.Since(t0)
		if err != nil {
			return err
		}
		db.stats.WALCompressTime += dt
		tmWALCompNS.Add(dt.Nanoseconds())
		if err := db.persister.AppendWAL(db.walFrame); err != nil {
			return err
		}
		if db.cfg.sync == SyncAlways {
			if err := db.persister.Sync(); err != nil {
				return err
			}
			db.stats.WALSyncs++
			tmWALSyncs.Inc()
		}
		db.walBytes += int64(len(db.walFrame))
		db.stats.WALAppends++
		db.stats.WALBytes += int64(len(db.walFrame))
		tmWALAppends.Inc()
		tmWALBytes.Add(int64(len(db.walFrame)))
	}
	db.seq++

	// The memtable takes the batch's own copies: Batch.Put/Delete made them
	// private, nothing writes to them afterwards, and Reset only drops the
	// batch's references.
	for _, op := range b.ops {
		if op.del {
			db.mem.set(op.key, nil)
			db.stats.Deletes++
			tmDeletes.Inc()
		} else {
			db.mem.set(op.key, op.value)
			db.stats.Puts++
			tmPuts.Inc()
		}
	}
	if err := db.maybeFlushLocked(ctx); err != nil {
		return err
	}
	return db.maybeCheckpointLocked(ctx)
}

// maybeCheckpointLocked rotates the WAL into a snapshot once it outgrows
// the configured budget.
func (db *DB) maybeCheckpointLocked(ctx context.Context) error {
	if db.persister == nil || db.cfg.walRotateBytes < 0 || db.walBytes < db.cfg.walRotateBytes {
		return nil
	}
	return db.checkpointLocked(ctx)
}

// Get fetches the value for key.
func (db *DB) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	if len(key) == 0 {
		return nil, false, ErrEmptyKey
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, false, ErrClosed
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
	}
	t0 := time.Now()
	defer func() {
		dt := time.Since(t0)
		db.stats.ReadTime += dt
		db.stats.Gets++
		tmReadNS.Add(dt.Nanoseconds())
		tmGets.Inc()
	}()

	if v, ok := db.mem.get(key); ok {
		if v == nil {
			return nil, false, nil // tombstone
		}
		return append([]byte{}, v...), true, nil
	}
	// L0: newest table wins.
	for _, t := range db.levels[0] {
		if bytes.Compare(key, t.smallest) < 0 || bytes.Compare(key, t.largest) > 0 {
			continue
		}
		v, tomb, found, err := t.get(key, &db.stats, db.cache)
		if err != nil {
			return nil, false, err
		}
		if found {
			if tomb {
				return nil, false, nil
			}
			return v, true, nil
		}
	}
	// Deeper levels: tables are disjoint; at most one candidate each.
	for lvl := 1; lvl < numLevels; lvl++ {
		for _, t := range db.levels[lvl] {
			if bytes.Compare(key, t.smallest) < 0 {
				break
			}
			if bytes.Compare(key, t.largest) > 0 {
				continue
			}
			v, tomb, found, err := t.get(key, &db.stats, db.cache)
			if err != nil {
				return nil, false, err
			}
			if found {
				if tomb {
					return nil, false, nil
				}
				return v, true, nil
			}
			break
		}
	}
	return nil, false, nil
}

func (db *DB) maybeFlushLocked(ctx context.Context) error {
	if db.mem.approximateBytes() < db.cfg.memtableBytes {
		return nil
	}
	return db.flushLocked(ctx)
}

// Flush forces the memtable into L0.
func (db *DB) Flush(ctx context.Context) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	return db.flushLocked(ctx)
}

func (db *DB) flushLocked(ctx context.Context) error {
	if db.mem.len() == 0 {
		return nil
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	w := newTableWriter(db.nextID, db.cfg.codecName, db.eng, db.cfg.blockSize, &db.stats)
	db.nextID++
	for it := db.mem.iterator(); it.valid(); it.next() {
		var v []byte
		if !it.tombstone() {
			v = it.value()
			if v == nil {
				v = []byte{}
			}
		}
		if err := w.add(it.key(), v); err != nil {
			return err
		}
	}
	t, err := w.finish()
	if err != nil {
		return err
	}
	if t != nil {
		db.levels[0] = append([]*sstable{t}, db.levels[0]...)
	}
	db.mem = newMemtable(db.cfg.seed + db.nextID)
	db.stats.Flushes++
	tmFlushes.Inc()
	return db.maybeCompactLocked(ctx)
}

// Checkpoint writes a snapshot of the full live state and resets the WAL —
// the log-compaction step that bounds recovery time. It runs automatically
// when the WAL exceeds WithWALRotateBytes.
func (db *DB) Checkpoint(ctx context.Context) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return db.checkpointLocked(ctx)
}

func (db *DB) checkpointLocked(ctx context.Context) error {
	if db.persister == nil {
		return nil
	}
	snap, err := db.buildSnapshotLocked(ctx)
	if err != nil {
		return err
	}
	if err := db.persister.WriteSnapshot(snap); err != nil {
		return err
	}
	db.walBytes = 0
	db.stats.Snapshots++
	tmSnapshots.Inc()
	tmSnapshotBytes.Add(int64(len(snap)))
	return nil
}

// Close syncs the WAL and closes the persister. The DB rejects operations
// afterwards. Close is not a checkpoint: reopening replays the WAL.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	if db.persister == nil {
		return nil
	}
	if err := db.persister.Sync(); err != nil {
		return err
	}
	db.stats.WALSyncs++
	tmWALSyncs.Inc()
	return db.persister.Close()
}

func levelBytes(tables []*sstable) int64 {
	var n int64
	for _, t := range tables {
		n += int64(t.size())
	}
	return n
}

func (db *DB) levelLimit(lvl int) int64 {
	limit := db.cfg.baseLevelBytes
	for i := 1; i < lvl; i++ {
		limit *= 10
	}
	return limit
}

func (db *DB) maybeCompactLocked(ctx context.Context) error {
	for {
		progressed := false
		if len(db.levels[0]) >= db.cfg.l0Trigger {
			if err := db.compactL0Locked(ctx); err != nil {
				return err
			}
			progressed = true
		}
		for lvl := 1; lvl < numLevels-1; lvl++ {
			if levelBytes(db.levels[lvl]) > db.levelLimit(lvl) {
				if err := db.compactLevelLocked(ctx, lvl); err != nil {
					return err
				}
				progressed = true
			}
		}
		if !progressed {
			return nil
		}
	}
}

// overlaps reports whether table t intersects [lo, hi].
func overlaps(t *sstable, lo, hi []byte) bool {
	return bytes.Compare(t.largest, lo) >= 0 && bytes.Compare(t.smallest, hi) <= 0
}

func (db *DB) compactL0Locked(ctx context.Context) error {
	sources := db.levels[0]
	lo := sources[0].smallest
	hi := sources[0].largest
	for _, t := range sources {
		if bytes.Compare(t.smallest, lo) < 0 {
			lo = t.smallest
		}
		if bytes.Compare(t.largest, hi) > 0 {
			hi = t.largest
		}
	}
	var keep, merge []*sstable
	for _, t := range db.levels[1] {
		if overlaps(t, lo, hi) {
			merge = append(merge, t)
		} else {
			keep = append(keep, t)
		}
	}
	// Priority: L0 newest first, then L1.
	inputs := append(append([]*sstable{}, sources...), merge...)
	out, err := db.mergeTablesLocked(ctx, inputs, 1)
	if err != nil {
		return err
	}
	db.levels[0] = nil
	db.levels[1] = sortTables(append(keep, out...))
	for _, t := range inputs {
		if db.cache != nil {
			db.cache.dropTable(t.id)
		}
	}
	db.stats.Compactions++
	tmCompactions.Inc()
	return nil
}

func (db *DB) compactLevelLocked(ctx context.Context, lvl int) error {
	if len(db.levels[lvl]) == 0 {
		return nil
	}
	src := db.levels[lvl][0]
	var keep, merge []*sstable
	for _, t := range db.levels[lvl+1] {
		if overlaps(t, src.smallest, src.largest) {
			merge = append(merge, t)
		} else {
			keep = append(keep, t)
		}
	}
	inputs := append([]*sstable{src}, merge...)
	out, err := db.mergeTablesLocked(ctx, inputs, lvl+1)
	if err != nil {
		return err
	}
	db.levels[lvl] = db.levels[lvl][1:]
	db.levels[lvl+1] = sortTables(append(keep, out...))
	for _, t := range inputs {
		if db.cache != nil {
			db.cache.dropTable(t.id)
		}
	}
	db.stats.Compactions++
	tmCompactions.Inc()
	return nil
}

func sortTables(ts []*sstable) []*sstable {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && bytes.Compare(ts[j].smallest, ts[j-1].smallest) < 0; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
	return ts
}

// mergeTablesLocked k-way merges input tables (earlier inputs shadow later
// ones) into new tables for targetLevel. Tombstones are dropped when the
// target is the bottom level. ctx cancellation is honored between merged
// entries, so a deadline propagates into compaction work.
func (db *DB) mergeTablesLocked(ctx context.Context, inputs []*sstable, targetLevel int) ([]*sstable, error) {
	// Tombstones can be dropped only when no deeper level holds data they
	// might still be shadowing.
	bottom := true
	for lvl := targetLevel + 1; lvl < numLevels; lvl++ {
		if len(db.levels[lvl]) > 0 {
			bottom = false
		}
	}

	mi := newMergeIterator(inputs, &db.stats)
	var out []*sstable
	w := newTableWriter(db.nextID, db.cfg.codecName, db.eng, db.cfg.blockSize, &db.stats)
	db.nextID++
	rawInTable := 0
	entries := 0
	for mi.valid() {
		if ctx != nil && entries&0x3ff == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		entries++
		if !(mi.tombstone() && bottom) {
			var v []byte
			if !mi.tombstone() {
				v = mi.value()
				if v == nil {
					v = []byte{}
				}
			}
			if err := w.add(mi.key(), v); err != nil {
				return nil, err
			}
			rawInTable += len(mi.key()) + len(mi.value())
			if rawInTable >= db.cfg.maxTableBytes {
				t, err := w.finish()
				if err != nil {
					return nil, err
				}
				if t != nil {
					out = append(out, t)
				}
				w = newTableWriter(db.nextID, db.cfg.codecName, db.eng, db.cfg.blockSize, &db.stats)
				db.nextID++
				rawInTable = 0
			}
		}
		if err := mi.next(); err != nil {
			return nil, err
		}
	}
	if mi.err != nil {
		return nil, mi.err
	}
	t, err := w.finish()
	if err != nil {
		return nil, err
	}
	if t != nil {
		out = append(out, t)
	}
	return out, nil
}

// mergeIterator k-way merges table iterators; on duplicate keys the source
// with the lowest index wins.
type mergeIterator struct {
	h   mergeHeap
	err error
	cur struct {
		key       []byte
		value     []byte
		tombstone bool
	}
	done bool
}

type mergeSource struct {
	it  *tableIterator
	idx int
}

type mergeHeap []*mergeSource

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	c := bytes.Compare(h[i].it.key(), h[j].it.key())
	if c != 0 {
		return c < 0
	}
	return h[i].idx < h[j].idx
}
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(*mergeSource)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func newMergeIterator(inputs []*sstable, stats *Stats) *mergeIterator {
	mi := &mergeIterator{}
	for i, t := range inputs {
		it := t.iterator(stats)
		if it.err != nil {
			mi.err = it.err
			return mi
		}
		if it.valid() {
			mi.h = append(mi.h, &mergeSource{it: it, idx: i})
		}
	}
	heap.Init(&mi.h)
	if err := mi.next(); err != nil {
		mi.err = err
	}
	return mi
}

func (mi *mergeIterator) valid() bool { return !mi.done && mi.err == nil }

func (mi *mergeIterator) key() []byte     { return mi.cur.key }
func (mi *mergeIterator) value() []byte   { return mi.cur.value }
func (mi *mergeIterator) tombstone() bool { return mi.cur.tombstone }

// next advances to the next distinct key.
func (mi *mergeIterator) next() error {
	if mi.h.Len() == 0 {
		mi.done = true
		return nil
	}
	// The winning entry is taken by reference: a tableIterator's keys and
	// values outlive its advance (see tableIterator).
	src := mi.h[0].it
	mi.cur.key, mi.cur.value, mi.cur.tombstone = src.key(), src.value(), src.tombstone()
	// Pop every source entry with this key; the first (lowest index,
	// newest) defined the value.
	for mi.h.Len() > 0 && bytes.Equal(mi.h[0].it.key(), mi.cur.key) {
		s := mi.h[0]
		s.it.next()
		if s.it.err != nil {
			return s.it.err
		}
		if s.it.valid() {
			heap.Fix(&mi.h, 0)
		} else {
			heap.Pop(&mi.h)
		}
	}
	return nil
}

// Scan walks every live key in order, stopping when fn returns false. ctx
// cancellation is honored between entries. key and value point into the
// scan's own buffers: fn must not modify them, and copies what it keeps.
func (db *DB) Scan(ctx context.Context, fn func(key, value []byte) bool) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	mi, err := db.fullMergeIteratorLocked()
	if err != nil {
		return err
	}
	entries := 0
	for mi.valid() {
		if ctx != nil && entries&0x3ff == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		entries++
		if !mi.tombstone() {
			if !fn(mi.key(), mi.value()) {
				return nil
			}
		}
		if err := mi.next(); err != nil {
			return err
		}
	}
	return mi.err
}

// Stats returns a snapshot of accumulated statistics.
func (db *DB) Stats() Stats {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.stats
}

// Seq reports the last acknowledged batch sequence number.
func (db *DB) Seq() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.seq
}

// WALSize reports the framed bytes in the current WAL generation.
func (db *DB) WALSize() int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.walBytes
}

// TableCounts reports the number of tables per level (diagnostics).
func (db *DB) TableCounts() []int {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]int, numLevels)
	for i := range db.levels {
		out[i] = len(db.levels[i])
	}
	return out
}

// DiskBytes reports the stored size of all tables.
func (db *DB) DiskBytes() int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	var n int64
	for _, lvl := range db.levels {
		n += levelBytes(lvl)
	}
	return n
}

// String summarizes the DB state.
func (db *DB) String() string {
	counts := db.TableCounts()
	return fmt.Sprintf("kvstore{codec=%s level=%d block=%d wal=%s tables=%v}",
		db.cfg.codecName, db.cfg.level, db.cfg.blockSize, db.walMode(), counts)
}

func (db *DB) walMode() string {
	if db.cfg.walDisabled {
		return "off"
	}
	return db.cfg.sync.String()
}
