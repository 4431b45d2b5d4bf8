package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"strings"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/dict"
	"github.com/datacomp/datacomp/internal/xxhash"
	"github.com/datacomp/datacomp/internal/zstd"
)

// The store dictionary (DESIGN.md §11). A store that builds its own zstd
// engine trains one with dict.TrainZstd at its first flush, from the
// memtable about to become its first table, and codes every table it ever
// writes against it: the paper's dictionary lever (Figs. 10–11) paired
// with its block-size trade-off (Fig. 13), so 8 KiB blocks compress as well
// as 16 KiB blocks did without one. One per store, not one per table:
// compaction carries a compressed block from one table into another unread,
// which is valid only when both are coded against the same dictionary.
//
// The dictionary also carries the entropy tables its blocks are coded with
// (zstd.TrainTables), trained on the same memtable written out as
// the table blocks that flush is about to code — keys, record headers and
// restart arrays included — so a block codes its literals and sequences
// with them and sends no tables of its own whenever that is smaller.
//
// It is persisted as one checksummed blob, before the first table that
// needs it, and the manifest records its zstd ID:
//
//	"KVD1" | dictionary | 8-byte LE XXH64 of everything before it
//
// A store whose dictionary predates the tables keeps its content-only one.
//
// WAL dictionaries are a store's others: zstd dictionaries its WAL records
// may be coded against, given to it by whoever sends it coded batches
// (DB.AddWALDict; a cluster's coordinator codes its puts against one). Each
// is persisted, in the same framing, as its own blob walDictName(id) before
// AddWALDict returns, so it is durable before any record names it; Open
// loads every one before it replays the log, and a store keeps them for
// life.
const (
	dictBytes       = 2 << 10  // the dictionary content's size bound
	dictSampleBytes = 64 << 10 // memtable values the content is trained on, at most
)

var dictMagic = [4]byte{'K', 'V', 'D', '1'}

// StoreDict is a store's dictionary, as DB.Dict reports it: the bytes every
// table is coded against, their zstd.DictID and the zstd level the store
// codes at. The zero StoreDict means the store has none.
type StoreDict struct {
	Bytes []byte
	ID    uint32
	Level int
}

// Dict returns the store dictionary, or the zero StoreDict while the store
// has none: before its first flush trains one, for life when that flush had
// too little to train on, and always for a store given its engine
// (WithEngine) or coding with another codec than zstd. A reopened store
// reports the dictionary it closed with. The bytes are the store's: callers
// must not modify them.
func (db *DB) Dict() StoreDict {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.dict == nil {
		return StoreDict{}
	}
	return StoreDict{Bytes: db.dict, ID: db.dictID, Level: db.cfg.level}
}

// trainDictLocked trains the store dictionary from the memtable and rebuilds
// the block engine against it. A store given its engine, or whose codec is
// not zstd, is left as it is; so is one with too little data to train on,
// which stays dictless: callers train only before the first table.
func (db *DB) trainDictLocked() error {
	if db.cfg.engine != nil || db.cfg.codecName != "zstd" {
		return nil
	}
	blocks, err := db.rawBlocksLocked(db.mem)
	if err != nil {
		return err
	}
	d, err := dict.TrainZstd(db.cfg.level, dictBytes, db.mem.sampleValues(dictSampleBytes), blocks)
	if errors.Is(err, dict.ErrNotEnoughSamples) {
		return nil
	}
	if err != nil {
		return err
	}
	return db.useDictLocked(d)
}

// rawBlocksLocked returns the data blocks a flush of m writes, uncompressed.
func (db *DB) rawBlocksLocked(m *memtable) ([][]byte, error) {
	var s blockSampler
	w := newTableWriter(0, db.cfg.codecName, &s, db.cfg.blockSize, nil, &db.scratch)
	for it := m.iterator(); it.valid(); it.next() {
		if err := w.add(it.key(), it.value(), it.tombstone()); err != nil {
			return nil, err
		}
	}
	if err := w.flushBlock(); err != nil {
		return nil, err
	}
	return s.blocks, nil
}

// blockSampler is an engine that codes nothing and keeps a copy of every
// block it is given: a table writer over it yields the raw blocks.
type blockSampler struct{ blocks [][]byte }

func (s *blockSampler) Compress(dst, src []byte) ([]byte, error) {
	s.blocks = append(s.blocks, bytes.Clone(src))
	return append(dst, src...), nil
}

func (s *blockSampler) Decompress(dst, src []byte) ([]byte, error) { return append(dst, src...), nil }

// useDictLocked makes d the store dictionary and rebuilds the block engine
// against it.
func (db *DB) useDictLocked(d []byte) error {
	eng, err := codec.NewEngine(db.cfg.codecName, codec.WithLevel(db.cfg.level), codec.WithDict(d))
	if err != nil {
		return err
	}
	db.eng, db.dict, db.dictID = eng, d, zstd.DictID(d)
	return nil
}

// loadDictLocked loads the dictionary the manifest names, verified against
// its checksum and id, for recovery to open the tables with. A missing,
// corrupt or mismatched blob is ErrCorrupt.
func (db *DB) loadDictLocked(id uint32) error {
	if db.cfg.engine != nil {
		return fmt.Errorf("kvstore: the store's tables are coded against dictionary %08x, which an engine given WithEngine cannot decode", id)
	}
	blob, err := db.persister.GetBlob(dictName)
	if errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("%w: the manifest names dictionary %08x and %s is missing", ErrCorrupt, id, dictName)
	}
	if err != nil {
		return err
	}
	d, err := decodeDict(dictName, blob)
	if err != nil {
		return err
	}
	if got := zstd.DictID(d); got != id {
		return fmt.Errorf("%w: %s holds dictionary %08x, the manifest names %08x", ErrCorrupt, dictName, got, id)
	}
	db.dictPersisted = true
	return db.useDictLocked(d)
}

// decodeDict returns the dictionary blob name holds, verified against its
// magic and checksum. It aliases blob.
func decodeDict(name string, blob []byte) ([]byte, error) {
	n := len(blob) - 8
	if n < len(dictMagic) || [4]byte(blob[:4]) != dictMagic || xxhash.Sum64(blob[:n]) != binary.LittleEndian.Uint64(blob[n:]) {
		return nil, fmt.Errorf("%w: %s magic or checksum", ErrCorrupt, name)
	}
	return blob[len(dictMagic):n:n], nil
}

// encodeDict frames d as a dictionary blob (store.dict, a WAL dictionary's).
func encodeDict(d []byte) []byte {
	b := make([]byte, 0, len(dictMagic)+len(d)+8)
	b = append(append(b, dictMagic[:]...), d...)
	return binary.LittleEndian.AppendUint64(b, xxhash.Sum64(b))
}

// walDict is a WAL dictionary and the engine replay decodes its records
// with, built on first use.
type walDict struct {
	bytes []byte
	eng   codec.Engine
}

// walDictPrefix and walDictSuffix frame a WAL dictionary's blob name.
const (
	walDictPrefix = "wal-"
	walDictSuffix = ".dict"
)

// walDictName is the blob a WAL dictionary is persisted as.
func walDictName(id uint32) string { return fmt.Sprintf("%s%08x%s", walDictPrefix, id, walDictSuffix) }

// AddWALDict gives the store d, a zstd dictionary, for its WAL: once it
// returns nil, d is durable and ApplyCoded keeps a body's zstd coding
// against d as it arrived (the record names d by its zstd.DictID) rather
// than coding the body again, and WALDict returns d. Adding a dictionary
// the store holds already is a no-op. The store keeps a copy of d.
func (db *DB) AddWALDict(d []byte) error {
	id := zstd.DictID(d)
	if id == 0 {
		return errors.New("kvstore: empty WAL dictionary")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if db.walDicts[id] != nil {
		return nil
	}
	if db.persister == nil {
		return errors.New("kvstore: a store without a WAL takes no WAL dictionary")
	}
	d = bytes.Clone(d)
	if err := db.persister.PutBlob(walDictName(id), encodeDict(d)); err != nil {
		return err
	}
	if db.walDicts == nil {
		db.walDicts = make(map[uint32]*walDict)
	}
	db.walDicts[id] = &walDict{bytes: d}
	return nil
}

// WALDict returns the WAL dictionary with id, or nil when the store holds
// none. The bytes are the store's: callers must not modify them.
func (db *DB) WALDict(id uint32) []byte {
	db.mu.Lock()
	defer db.mu.Unlock()
	if d := db.walDicts[id]; d != nil {
		return d.bytes
	}
	return nil
}

// loadWALDictsLocked loads every WAL dictionary among the blobs names,
// each verified against its checksum and its name's id. A corrupt or
// mismatched blob is ErrCorrupt: records may name it.
func (db *DB) loadWALDictsLocked(names []string) error {
	for _, name := range names {
		if !strings.HasPrefix(name, walDictPrefix) || !strings.HasSuffix(name, walDictSuffix) {
			continue
		}
		blob, err := db.persister.GetBlob(name)
		if err != nil {
			return err
		}
		d, err := decodeDict(name, blob)
		if err != nil {
			return err
		}
		id := zstd.DictID(d)
		if walDictName(id) != name {
			return fmt.Errorf("%w: %s holds dictionary %08x", ErrCorrupt, name, id)
		}
		if db.walDicts == nil {
			db.walDicts = make(map[uint32]*walDict)
		}
		db.walDicts[id] = &walDict{bytes: d}
	}
	return nil
}

// walDictEngineLocked is the engine replay decodes records against WAL
// dictionary id with.
func (db *DB) walDictEngineLocked(id uint32) (codec.Engine, error) {
	d := db.walDicts[id]
	if d == nil {
		return nil, fmt.Errorf("%w: %08x", errWALDictMissing, id)
	}
	if d.eng == nil {
		eng, err := codec.NewEngine("zstd", codec.WithDict(d.bytes))
		if err != nil {
			return nil, err
		}
		d.eng = eng
	}
	return d.eng, nil
}

// zstdFrameDict is the dictionary a zstd frame names, 0 for none or for
// bytes that are no frame.
func zstdFrameDict(frame []byte) uint32 {
	id, named, err := zstd.FrameDictID(frame)
	if err != nil || !named {
		return 0
	}
	return id
}
