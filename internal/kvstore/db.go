package kvstore

import (
	"bytes"
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/container"
	"github.com/datacomp/datacomp/internal/telemetry"
)

// Package-level telemetry on the shared registry, registered at package
// initialisation. All DBs in the process aggregate here; per-DB numbers
// remain in DB.Stats.
var (
	tmPuts               = telemetry.Default.Counter("kvstore_puts_total", "kvstore put operations")
	tmGets               = telemetry.Default.Counter("kvstore_gets_total", "kvstore get operations")
	tmDeletes            = telemetry.Default.Counter("kvstore_deletes_total", "kvstore delete operations")
	tmFlushes            = telemetry.Default.Counter("kvstore_flushes_total", "memtable flushes")
	tmCompactions        = telemetry.Default.Counter("kvstore_compactions_total", "level compactions")
	tmCompNS             = telemetry.Default.Counter("kvstore_compress_ns_total", "block compression time (flush + compaction)")
	tmDecompNS           = telemetry.Default.Counter("kvstore_decompress_ns_total", "block decompression time")
	tmReadNS             = telemetry.Default.Counter("kvstore_read_ns_total", "time inside Get")
	tmBlocksWritten      = telemetry.Default.Counter("kvstore_blocks_written_total", "data blocks written")
	tmBlocksRead         = telemetry.Default.Counter("kvstore_blocks_read_total", "data blocks read")
	tmBlocksDecompressed = telemetry.Default.Counter("kvstore_blocks_decompressed_total", "data blocks decompressed")
	tmBlockCacheHits     = telemetry.Default.Counter("kvstore_block_cache_hits_total", "decoded-block cache hits")
	tmRawBytesWritten    = telemetry.Default.Counter("kvstore_raw_bytes_written_total", "raw bytes entering block compression")
	tmStoredBytesWritten = telemetry.Default.Counter("kvstore_stored_bytes_written_total", "stored bytes after block compression")
	tmBytesDecompressed  = telemetry.Default.Counter("kvstore_bytes_decompressed_total", "uncompressed bytes produced by block decodes")
	tmBlocksCarried      = telemetry.Default.Counter("kvstore_blocks_carried_total", "data blocks compaction copied into its output unread")
	tmCarriedBytes       = telemetry.Default.Counter("kvstore_carried_bytes_total", "uncompressed bytes of the blocks compaction carried")
	tmTrivialMoves       = telemetry.Default.Counter("kvstore_trivial_moves_total", "compactions that moved their tables down a level unrewritten")
	tmTableBlobAllocs    = telemetry.Default.Counter("kvstore_table_blob_allocs_total", "table blobs allocated because no free blob fit")
	tmWALAppends         = telemetry.Default.Counter("kvstore_wal_appends_total", "WAL record batches appended")
	tmWALBytes           = telemetry.Default.Counter("kvstore_wal_bytes_total", "framed WAL bytes appended")
	tmWALSyncs           = telemetry.Default.Counter("kvstore_wal_syncs_total", "WAL fsyncs")
	tmWALCompNS          = telemetry.Default.Counter("kvstore_wal_compress_ns_total", "time coding WAL records the store codes itself (compress + frame + checksum); a record that keeps the coding its batch arrived in adds nothing")
	// The checkpoint counters keep their names from when a checkpoint was a
	// snapshot: dashboards and the serving benchmark read them.
	tmSnapshots       = telemetry.Default.Counter("kvstore_snapshots_total", "checkpoints: manifest commits")
	tmSnapshotBytes   = telemetry.Default.Counter("kvstore_snapshot_bytes_total", "manifest bytes written by checkpoints")
	tmReplayedBatches = telemetry.Default.Counter("kvstore_wal_replayed_batches_total", "WAL batches applied during recovery")
	tmRecoveries      = telemetry.Default.Counter("kvstore_recoveries_total", "DB opens that recovered prior state")
)

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

	// RawBytesWritten is what entered block compression; StoredBytesWritten
	// is every block byte a table gained, carried blocks included.
	RawBytesWritten    int64
	StoredBytesWritten int64

	// Work compaction skipped. BlocksCarried (also in BlocksWritten) were
	// copied into an output table unread; CarriedBytes is their
	// uncompressed size, in neither RawBytesWritten nor BytesDecompressed.
	// TrivialMoves (also in Compactions) changed their tables' level in the
	// manifest and nothing else.
	BlocksCarried int64
	CarriedBytes  int64
	TrivialMoves  int64

	// Durability-side accounting.
	WALAppends      int64 // record batches appended
	WALBytes        int64 // framed bytes appended
	WALSyncs        int64
	WALCoded        int64         // of WALAppends, records the store coded itself
	WALCompressTime time.Duration // coding those: compress + frame + checksum
	ManifestCommits int64         // checkpoints: the table set made durable, the WAL reset
	ReplayedBatches int64         // WAL batches applied during recovery
}

// WriteAmplification is stored bytes written per raw byte ingested.
func (s Stats) WriteAmplification() float64 {
	if s.RawBytesWritten+s.CarriedBytes == 0 {
		return 0
	}
	return float64(s.StoredBytesWritten) / float64(s.RawBytesWritten+s.CarriedBytes)
}

// CompressionRatio is raw/stored over all block writes, carried ones
// included.
func (s Stats) CompressionRatio() float64 {
	if s.StoredBytesWritten == 0 {
		return 0
	}
	return float64(s.RawBytesWritten+s.CarriedBytes) / float64(s.StoredBytesWritten)
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
// and durable tables named by a manifest. Safe for concurrent use (a single mutex
// serializes operations; the paper's experiments measure compression work,
// not lock scalability).
type DB struct {
	mu      sync.Mutex
	cfg     config
	eng     codec.Engine
	mem     *memtable
	levels  [numLevels][]*sstable // levels[0] newest-first; deeper levels sorted, disjoint
	cache   *blockCache
	nextID  int64
	stats   Stats
	closed  bool
	scratch tableScratch // what every table writer builds its table in, free blobs included

	// The store dictionary (storedict.go): nil until the first flush trains
	// one, or for life when it does not; eng is coded against it.
	dict          []byte
	dictID        uint32
	dictPersisted bool // the persister holds it under dictName

	// walDicts are the dictionaries WAL records may be coded against
	// (AddWALDict), each persisted under its walDictName, by zstd.DictID.
	walDicts map[uint32]*walDict

	// Durability state (nil persister / nil walEng when WithoutWAL).
	persister Persister
	walEng    codec.Engine
	seq       uint64     // last acknowledged batch sequence
	walBytes  int64      // framed bytes in the current WAL generation
	dirty     bool       // the table set differs from the committed manifest
	obsolete  []*sstable // offered tables compaction consumed, deleted after the next commit
	oneOp     Batch      // scratch batch for Put/Delete
	bodyOps   Batch      // a batch body's ops, aliasing it (ApplyCoded, replay)
	walBuf    []byte     // batch body scratch
	walFrame  []byte     // framed record scratch
	walComp   []byte     // coded body scratch
}

// Open opens a DB, recovering any state its persister holds: the tables the
// manifest names, then WAL batches past the manifest's sequence. path names the
// directory of a DirPersister; an empty path without WithPersister runs on
// an in-memory MemPersister (diskless, but still crash-modelable).
func Open(ctx context.Context, path string, opts ...Option) (*DB, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := buildConfig(opts)
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
		db.cache = newBlockCache(cfg.blockCacheEntries, cfg.blockSize)
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
			if cfg.persister == nil {
				db.persister.Close() // ours, and only read so far
			}
			return nil, err
		}
	}
	return db, nil
}

// recover loads the store dictionary the manifest names and opens the tables
// it names — no data block is decoded — deletes table and dictionary blobs
// it does not name (a crash between persisting them and committing, or
// between committing and deleting compaction inputs), and replays the WAL
// tail.
func (db *DB) recover(ctx context.Context) error {
	names, err := db.persister.ListBlobs()
	if err != nil {
		return err
	}
	if slices.Contains(names, legacySnapshotName) {
		return ErrLegacySnapshot
	}
	if err := db.loadWALDictsLocked(names); err != nil {
		return err
	}
	live := map[string]bool{}
	recovered := slices.Contains(names, manifestName)
	if recovered {
		raw, err := db.persister.GetBlob(manifestName)
		if err != nil {
			return err
		}
		m, err := decodeManifest(raw)
		if err != nil {
			return err
		}
		db.seq, db.nextID = m.seq, m.nextID
		if m.dictID != 0 {
			if err := db.loadDictLocked(m.dictID); err != nil {
				return err
			}
		}
		for lvl, ids := range m.levels {
			for _, id := range ids {
				blob, err := db.persister.GetBlob(tableName(id))
				if err != nil {
					return err
				}
				t, err := openTable(id, blob, db.eng)
				if err != nil {
					return err
				}
				t.persisted, t.offered = true, true
				live[tableName(id)] = true
				db.levels[lvl] = append(db.levels[lvl], t)
			}
		}
	}
	orphans := slices.DeleteFunc(names, func(name string) bool {
		if name == dictName {
			return db.dict != nil
		}
		return !strings.HasSuffix(name, tableSuffix) || live[name]
	})
	if err := db.persister.DeleteBlobs(orphans...); err != nil {
		return err
	}

	// The persister is walking its log under its own lock: a memtable that
	// fills during replay is flushed to tables in memory only, and made
	// durable, with the rest of the replay (the store dictionary too, if the
	// flush trained one), after the walk.
	manifestSeq := db.seq
	replayed := 0
	err = db.persister.ReplayWAL(func(rec []byte) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		out, seq, body, err := decodeWALRecord(db.walBuf[:0], db.walEng, db.walDictEngineLocked, rec)
		db.walBuf = out[:0]
		if errors.Is(err, errWALDictMissing) {
			// A whole, verified record whose dictionary the store lost is
			// no crash tail: dropping it would drop acknowledged writes.
			return err
		}
		// The whole batch is parsed before any of it is applied. An
		// undecodable record is the crash tail: drop it and stop.
		if err != nil || db.bodyOps.readBody(body) != nil {
			return ErrStopReplay
		}
		db.walBytes += int64(len(rec))
		if seq <= manifestSeq {
			// Stale batch the tables already hold (crash landed between
			// the manifest commit and the WAL reset).
			return nil
		}
		for i := range db.bodyOps.ops {
			db.mem.set(db.bodyOps.op(i))
		}
		db.seq = seq
		replayed++
		if db.mem.approximateBytes() >= db.cfg.memtableBytes {
			return db.flushMemLocked(ctx)
		}
		return nil
	})
	db.bodyOps.clear()
	if err != nil {
		return err
	}
	db.stats.ReplayedBatches += int64(replayed)
	tmReplayedBatches.Add(int64(replayed))
	if recovered || replayed > 0 {
		tmRecoveries.Inc()
	}
	if db.dirty {
		return db.flushLocked(ctx)
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
	return db.applyLocked(ctx, &db.oneOp, nil, 0, nil)
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
	return db.applyLocked(ctx, &db.oneOp, nil, 0, nil)
}

// Apply commits every op in b atomically: one WAL record, one fsync under
// SyncAlways, then the memtable mutation. Either the whole batch is
// acknowledged or none of it is applied.
func (db *DB) Apply(ctx context.Context, b *Batch) error {
	for _, op := range b.ops {
		if op.klen == 0 {
			return ErrEmptyKey
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.applyLocked(ctx, b, nil, 0, nil)
}

// ApplyCoded commits the batch body encodes (AppendPutHead) as Apply commits
// a Batch. coding is body as an engine of the codec codecName coded it, or
// nil. The log keeps coding as it is, so a body that arrived coded is not
// coded again, when coding is a zstd frame against a dictionary the store
// holds for its log (AddWALDict), in the record form that names that
// dictionary, or when codecName is the WAL codec and coding names no
// dictionary; otherwise the store codes body itself. A zstd frame that
// names a dictionary is never logged in the WAL codec's form, whatever the
// WAL codec: its engine holds no dictionary and would refuse the frame on
// replay. The caller vouches that coding decodes to body: nothing decodes
// it before a replay.
func (db *DB) ApplyCoded(ctx context.Context, body []byte, codecName string, coding []byte) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	defer db.bodyOps.clear()
	if err := db.bodyOps.readBody(body); err != nil {
		return err
	}
	var dictID uint32
	if codecName == "zstd" && len(coding) != 0 {
		dictID = zstdFrameDict(coding)
	}
	switch {
	case len(coding) == 0:
		coding = nil
	case dictID != 0:
		if db.walDicts[dictID] == nil {
			dictID, coding = 0, nil
		}
	case codecName != db.cfg.walCodec:
		coding = nil
	}
	return db.applyLocked(ctx, &db.bodyOps, body, dictID, coding)
}

// applyLocked commits b. body is b's batch body, nil to have it encoded, and
// coding is body's WAL coding, nil to have it coded: a coding by the WAL
// codec, or when dictID is not 0 a zstd frame against that WAL dictionary.
func (db *DB) applyLocked(ctx context.Context, b *Batch, body []byte, dictID uint32, coding []byte) error {
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
		if body == nil {
			db.walBuf = appendBatchBody(db.walBuf[:0], b)
			body = db.walBuf
		}
		if len(body) > container.MaxBlockSize {
			return fmt.Errorf("kvstore: batch body of %d bytes exceeds the WAL record bound", len(body))
		}
		if coding != nil {
			db.walFrame = appendWALRecord(db.walFrame[:0], db.seq+1, dictID, coding)
		} else {
			t0 := time.Now()
			c, err := db.walEng.Compress(db.walComp[:0], body)
			if err != nil {
				return err
			}
			db.walComp = c
			db.walFrame = appendWALRecord(db.walFrame[:0], db.seq+1, 0, c)
			dt := time.Since(t0)
			db.stats.WALCoded++
			db.stats.WALCompressTime += dt
			tmWALCompNS.Add(dt.Nanoseconds())
		}
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

	// The memtable copies each op into its arena: the batch's buffer is the
	// caller's to reuse.
	for i := range b.ops {
		key, value, del := b.op(i)
		db.mem.set(key, value, del)
		if del {
			db.stats.Deletes++
			tmDeletes.Inc()
		} else {
			db.stats.Puts++
			tmPuts.Inc()
		}
	}
	if db.mem.approximateBytes() >= db.cfg.memtableBytes {
		return db.flushLocked(ctx)
	}
	return nil
}

// Get fetches the value for key. The value is the caller's: it aliases
// nothing the store keeps.
func (db *DB) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	v, ok, err := db.AppendGet(ctx, []byte{}, key)
	if !ok {
		return nil, false, err
	}
	return v, true, nil
}

// AppendGet appends the value for key to dst and reports whether key holds
// one; on a miss, a tombstone or an error it returns dst unchanged. The
// value is copied into dst under db.mu, once, so a caller framing a reply
// around it — a prefix in dst — pays no second copy.
func (db *DB) AppendGet(ctx context.Context, dst, key []byte) ([]byte, bool, error) {
	if len(key) == 0 {
		return dst, false, ErrEmptyKey
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return dst, false, ErrClosed
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return dst, false, err
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

	if v, tomb, ok := db.mem.get(key); ok {
		if tomb {
			return dst, false, nil
		}
		return append(dst, v...), true, nil
	}
	if c := db.cache; c != nil && len(c.m) < len(c.order) {
		c.stored = db.tableBlocksLocked() // sizes the cache's next reservation
	}
	// L0: newest table wins.
	for _, t := range db.levels[0] {
		if bytes.Compare(key, t.smallest) < 0 || bytes.Compare(key, t.largest) > 0 {
			continue
		}
		v, tomb, found, err := t.get(dst, key, &db.stats, db.cache)
		if err != nil {
			return dst, false, err
		}
		if found {
			return v, !tomb, nil
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
			v, tomb, found, err := t.get(dst, key, &db.stats, db.cache)
			if err != nil {
				return dst, false, err
			}
			if found {
				return v, !tomb, nil
			}
			break
		}
	}
	return dst, false, nil
}

// Flush forces the memtable into L0 and checkpoints: every write before it
// is in a durable table the committed manifest names, and the WAL is empty.
func (db *DB) Flush(ctx context.Context) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	return db.flushLocked(ctx)
}

func (db *DB) flushLocked(ctx context.Context) error {
	if err := db.flushMemLocked(ctx); err != nil {
		return err
	}
	return db.commitLocked()
}

// flushMemLocked moves the memtable into L0 and compacts, in memory only.
func (db *DB) flushMemLocked(ctx context.Context) error {
	if db.mem.len() == 0 {
		return nil
	}
	if db.nextID == 0 {
		// The store's first table: it and every table after it are coded
		// against the dictionary this memtable trains, if any.
		if err := db.trainDictLocked(); err != nil {
			return err
		}
	}
	// One table however large the memtable, tombstones kept: older tables
	// on every level may hold what they shadow.
	out, err := db.writeTablesLocked(ctx, newMergeIterator([]entryIterator{db.mem.iterator()}, nil), math.MaxInt, false)
	if err != nil {
		return err
	}
	db.levels[0] = append(out, db.levels[0]...)
	db.mem.reset(db.cfg.seed + db.nextID)
	db.dirty = true
	db.stats.Flushes++
	tmFlushes.Inc()
	return db.maybeCompactLocked(ctx)
}

// commitLocked is the checkpoint: it makes the in-memory table set the
// durable one. The order is what makes every crash point recoverable — the
// store dictionary if not yet persisted, then tables not yet persisted
// (every one of them coded against it), then the manifest naming both (the
// commit), then the WAL reset (its batches are all ≤ the manifest's seq by
// now), then the delete of tables the manifest no longer names. Callers
// hold an empty memtable, so db.seq is exactly what the tables cover. A
// table that was flushed and compacted away since the last commit is never
// written. The blobs of the deleted tables are recycled for later tables:
// the persister no longer holds them.
func (db *DB) commitLocked() error {
	if db.persister == nil || !db.dirty {
		return nil
	}
	if db.dict != nil && !db.dictPersisted {
		if err := db.persister.PutBlob(dictName, encodeDict(db.dict)); err != nil {
			return err
		}
		db.dictPersisted = true
	}
	m := manifest{seq: db.seq, nextID: db.nextID, dictID: db.dictID}
	for lvl, tables := range db.levels {
		for _, t := range tables {
			if !t.persisted {
				t.offered = true
				if err := db.persister.PutBlob(tableName(t.id), t.blob); err != nil {
					return err
				}
				t.persisted = true
			}
			m.levels[lvl] = append(m.levels[lvl], t.id)
		}
	}
	enc := m.encode()
	if err := db.persister.PutBlob(manifestName, enc); err != nil {
		return err
	}
	db.dirty = false
	db.stats.ManifestCommits++
	tmSnapshots.Inc()
	tmSnapshotBytes.Add(int64(len(enc)))
	if err := db.persister.ResetWAL(); err != nil {
		return err
	}
	db.walBytes = 0
	names := make([]string, len(db.obsolete))
	for i, t := range db.obsolete {
		names[i] = tableName(t.id)
	}
	if err := db.persister.DeleteBlobs(names...); err != nil {
		return err // retried by the next commit, or swept as orphans by Open
	}
	for _, t := range db.obsolete {
		db.scratch.recycle(t.blob)
	}
	clear(db.obsolete)
	db.obsolete = db.obsolete[:0]
	return nil
}

// Close syncs the WAL and closes the persister, which it does even when the
// sync fails. The DB rejects operations afterwards. Close is not a
// checkpoint: reopening replays the WAL.
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
	err := db.persister.Sync()
	if err == nil {
		db.stats.WALSyncs++
		tmWALSyncs.Inc()
	}
	return errors.Join(err, db.persister.Close())
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
			if err := db.compactLocked(ctx, 0, len(db.levels[0])); err != nil {
				return err
			}
			progressed = true
		}
		for lvl := 1; lvl < numLevels-1; lvl++ {
			if levelBytes(db.levels[lvl]) > db.levelLimit(lvl) {
				if err := db.compactLocked(ctx, lvl, 1); err != nil {
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

// compactLocked merges the first n tables of level lvl — all of L0, newest
// first, or one table of a deeper level — into the next level, together
// with every table there that their key range touches. On duplicate keys
// the sources win, in level order. When nothing there is touched and the
// inputs are disjoint, the compaction is a trivial move: the tables change
// level and keep their ids, blobs and cached blocks. A merged input's blob
// is recycled at once if the persister was never given it, else once the
// next commit has deleted it.
func (db *DB) compactLocked(ctx context.Context, lvl, n int) error {
	inputs := slices.Clone(db.levels[lvl][:n])
	lo, hi := inputs[0].smallest, inputs[0].largest
	for _, t := range inputs[1:] {
		if bytes.Compare(t.smallest, lo) < 0 {
			lo = t.smallest
		}
		if bytes.Compare(t.largest, hi) > 0 {
			hi = t.largest
		}
	}
	var keep []*sstable
	for _, t := range db.levels[lvl+1] {
		if overlaps(t, lo, hi) {
			inputs = append(inputs, t)
		} else {
			keep = append(keep, t)
		}
	}
	byKey := func(a, b *sstable) int { return bytes.Compare(a.smallest, b.smallest) }
	out := slices.Clone(inputs)
	slices.SortFunc(out, byKey)
	moved := len(inputs) == n && disjoint(out)
	if !moved {
		var err error
		if out, err = db.mergeTablesLocked(ctx, inputs, lvl+1); err != nil {
			return err
		}
		for _, t := range inputs {
			if db.cache != nil {
				db.cache.dropTable(t.id)
			}
			if t.offered {
				db.obsolete = append(db.obsolete, t)
			} else {
				db.scratch.recycle(t.blob)
			}
		}
	}
	db.levels[lvl] = append([]*sstable(nil), db.levels[lvl][n:]...)
	db.levels[lvl+1] = append(keep, out...)
	slices.SortFunc(db.levels[lvl+1], byKey)
	db.dirty = true
	db.stats.Compactions++
	tmCompactions.Inc()
	if moved {
		db.stats.TrivialMoves++
		tmTrivialMoves.Inc()
	}
	return nil
}

// disjoint reports whether tables, sorted by smallest key, share no key
// range.
func disjoint(tables []*sstable) bool {
	for i := 1; i < len(tables); i++ {
		if bytes.Compare(tables[i-1].largest, tables[i].smallest) >= 0 {
			return false
		}
	}
	return true
}

// mergeTablesLocked k-way merges input tables (earlier inputs shadow later
// ones) into new tables for targetLevel, carrying every block it can.
// Tombstones are dropped when the target is the bottom level — except
// inside a carried block, where they cost space until it is next re-encoded.
func (db *DB) mergeTablesLocked(ctx context.Context, inputs []*sstable, targetLevel int) ([]*sstable, error) {
	// Tombstones can be dropped only when no deeper level holds data they
	// might still be shadowing.
	bottom := true
	for lvl := targetLevel + 1; lvl < numLevels; lvl++ {
		if len(db.levels[lvl]) > 0 {
			bottom = false
		}
	}
	// A block is worth carrying when the output can decode it (same codec)
	// and it is at least half full: the block in progress is cut short
	// before it, and carrying fragments forever would cost ratio.
	carry := func(t *sstable, b int) bool {
		return t.ra.CodecName() == db.cfg.codecName && 2*t.ra.Block(b).RawLen >= db.cfg.blockSize
	}
	return db.writeTablesLocked(ctx, newMergeIterator(db.scratch.iterators(nil, &db.stats, inputs), carry), db.cfg.maxTableBytes, bottom)
}

// writeTablesLocked drains mi into new tables, starting another every
// maxTableBytes of raw entries. ctx cancellation is honored between
// entries, so a deadline propagates into flush and compaction work.
func (db *DB) writeTablesLocked(ctx context.Context, mi *mergeIterator, maxTableBytes int, dropTombstones bool) ([]*sstable, error) {
	defer db.scratch.done(db.cfg.blockSize)
	var out []*sstable
	newWriter := func() *tableWriter {
		db.nextID++
		return newTableWriter(db.nextID-1, db.cfg.codecName, db.eng, db.cfg.blockSize, &db.stats, &db.scratch)
	}
	w := newWriter()
	rawInTable := 0
	entries := 0
	for mi.valid() {
		if ctx != nil && entries&0x3ff == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		entries++
		if src, b, ok := mi.carried(); ok {
			if err := w.carry(src, b); err != nil {
				return nil, err
			}
			rawInTable += src.ra.Block(b).RawLen
		} else if !(mi.tombstone() && dropTombstones) {
			if err := w.add(mi.key(), mi.value(), mi.tombstone()); err != nil {
				return nil, err
			}
			rawInTable += len(mi.key()) + len(mi.value())
		}
		if rawInTable >= maxTableBytes {
			t, err := w.finish()
			if err != nil {
				return nil, err
			}
			if t != nil {
				out = append(out, t)
			}
			w = newWriter()
			rawInTable = 0
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

// entryIterator is one sorted input of a merge: a table (tableIterator) or
// the memtable itself (memIterator). A memtable entry stays valid as long as
// the memtable; a table entry only until its iterator loads its next block,
// which mergeIterator does in next's settle step and nowhere else.
type entryIterator interface {
	valid() bool
	key() []byte
	value() []byte
	tombstone() bool
	next()
	err() error
}

// mergeIterator k-way merges sorted inputs; on duplicate keys the source
// with the lowest index wins. A table source's next block is decoded only
// when it reaches the top of the heap, and then only if it cannot be carried:
// when every other source's next key, or the lower bound of its undecoded
// block, is past the block's last key, the merge's output for that range
// is the block itself, and the iterator yields it whole (carried) if the
// carry predicate accepts it. A nil predicate carries nothing.
type mergeIterator struct {
	h     mergeHeap
	carry func(t *sstable, b int) bool
	err   error
	cur   struct {
		key       []byte
		value     []byte
		tombstone bool
		table     *sstable // non-nil: the current output is block `block` of table, whole
		block     int
	}
	done bool
}

type mergeSource struct {
	it  entryIterator
	tab *tableIterator // it, when the source is a table; nil for the memtable
	idx int
}

func (s *mergeSource) parked() bool { return s.tab != nil && s.tab.parked() }

// bound is what orders a source in the heap: its entry's key (rank 0) or,
// parked before an undecoded block, that block's lower bound — ranked
// before an entry of the same key when inclusive (a table's smallest key)
// and after it when exclusive (the previous block's last key). So no parked
// source below the top can hold the top entry's key.
func (s *mergeSource) bound() (key []byte, rank int) {
	if !s.parked() {
		return s.it.key(), 0
	}
	lo, inclusive := s.tab.t.lowerBound(s.tab.block)
	if inclusive {
		return lo, -1
	}
	return lo, 1
}

type mergeHeap []*mergeSource

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	ki, ri := h[i].bound()
	kj, rj := h[j].bound()
	if c := bytes.Compare(ki, kj); c != 0 {
		return c < 0
	}
	if ri != rj {
		return ri < rj
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

func newMergeIterator(inputs []entryIterator, carry func(t *sstable, b int) bool) *mergeIterator {
	mi := &mergeIterator{carry: carry}
	for i, it := range inputs {
		if mi.err = it.err(); mi.err != nil {
			return mi
		}
		if it.valid() {
			tab, _ := it.(*tableIterator)
			mi.h = append(mi.h, &mergeSource{it: it, tab: tab, idx: i})
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

// carried reports whether the current output is a whole block, to be
// copied as it is stored, rather than an entry.
func (mi *mergeIterator) carried() (*sstable, int, bool) {
	return mi.cur.table, mi.cur.block, mi.cur.table != nil
}

// next advances to the next distinct key, or the next carried block. The
// entry it leaves current is valid until the following call, whose settle
// step may load a block over it: callers consume an entry before calling
// next.
func (mi *mergeIterator) next() error {
	mi.cur.table = nil
	// Settle the top: a parked source there is carried past its block or
	// decodes it.
	for mi.h.Len() > 0 && mi.h[0].parked() {
		s := mi.h[0]
		if mi.carryable(s) {
			mi.cur.table, mi.cur.block = s.tab.t, s.tab.block
			s.tab.skip()
			mi.fix()
			return nil
		}
		s.tab.load()
		if err := s.it.err(); err != nil {
			return err
		}
		heap.Fix(&mi.h, 0)
	}
	if mi.h.Len() == 0 {
		mi.done = true
		return nil
	}
	// The winning entry is taken by reference: advancing its sources below
	// never loads a block, so it survives until the next settle step.
	src := mi.h[0].it
	mi.cur.key, mi.cur.value, mi.cur.tombstone = src.key(), src.value(), src.tombstone()
	// Pop every source entry with this key; the first (lowest index,
	// newest) defined the value. A parked source on top holds only greater
	// keys, and so does everything below it.
	for mi.h.Len() > 0 && !mi.h[0].parked() && bytes.Equal(mi.h[0].it.key(), mi.cur.key) {
		s := mi.h[0]
		s.it.next()
		if err := s.it.err(); err != nil {
			return err
		}
		mi.fix()
	}
	return nil
}

// fix restores the heap after its top source advanced.
func (mi *mergeIterator) fix() {
	if mi.h[0].it.valid() {
		heap.Fix(&mi.h, 0)
	} else {
		heap.Pop(&mi.h)
	}
}

// carryable reports whether the block the top source s is parked before
// can be the output whole: no other source can hold a key up to its last.
func (mi *mergeIterator) carryable(s *mergeSource) bool {
	if mi.carry == nil || !mi.carry(s.tab.t, s.tab.block) {
		return false
	}
	hi := s.tab.t.lastKeys[s.tab.block]
	for _, o := range mi.h[1:] {
		if k, _ := o.bound(); bytes.Compare(k, hi) <= 0 {
			return false
		}
	}
	return true
}

// Scan walks every live key in order, stopping when fn returns false. ctx
// cancellation is honored between entries. key and value point into the
// store's own memory (the memtable, merged in place as the newest source, or
// a table iterator's recycled block buffers) and are valid only during the
// call: fn must not modify them, and copies what it keeps.
func (db *DB) Scan(ctx context.Context, fn func(key, value []byte) bool) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	defer db.scratch.done(db.cfg.blockSize)
	mi := newMergeIterator(db.scratch.iterators([]entryIterator{db.mem.iterator()}, &db.stats, db.levels[:]...), nil)
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

// tableBlocksLocked counts the blocks of every live table. Callers hold
// db.mu.
func (db *DB) tableBlocksLocked() int {
	n := 0
	for _, tables := range db.levels {
		for _, t := range tables {
			n += t.numBlocks()
		}
	}
	return n
}

// DiskBytes reports the stored size of all tables, key indexes included,
// plus the store dictionary and the WAL dictionaries.
func (db *DB) DiskBytes() int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	var n int64
	if db.dict != nil {
		n += int64(len(dictMagic) + len(db.dict) + 8)
	}
	for _, d := range db.walDicts {
		n += int64(len(dictMagic) + len(d.bytes) + 8)
	}
	for _, tables := range db.levels {
		for _, t := range tables {
			n += int64(len(t.blob))
		}
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
