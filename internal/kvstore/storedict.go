package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/dict"
	"github.com/datacomp/datacomp/internal/xxhash"
	"github.com/datacomp/datacomp/internal/zstd"
)

// The store dictionary (DESIGN.md §11). A store that builds its own engine
// from a codec that takes dictionaries trains one at its first flush, from
// the memtable about to become its first table, and codes every table it
// ever writes against it: the paper's dictionary lever (Figs. 10–11) paired
// with its block-size trade-off (Fig. 13), so 8 KiB blocks compress as well
// as 16 KiB blocks did without one. One per store, not one per table:
// compaction carries a compressed block from one table into another unread,
// which is valid only when both are coded against the same dictionary.
//
// It is persisted as one checksummed blob, before the first table that
// needs it, and the manifest records its zstd ID:
//
//	"KVD1" | dictionary | 8-byte LE XXH64 of everything before it
const (
	dictBytes       = 2 << 10  // the dictionary's size bound
	dictSampleBytes = 64 << 10 // memtable values it is trained on, at most
)

var dictMagic = [4]byte{'K', 'V', 'D', '1'}

// trainDictLocked trains the store dictionary from the memtable and rebuilds
// the block engine against it. A store given its engine, or whose codec
// takes no dictionary, is left as it is; so is one with too little data to
// train on, which stays dictless: callers train only before the first table.
func (db *DB) trainDictLocked() error {
	if c, ok := codec.Lookup(db.cfg.codecName); db.cfg.engine != nil || !ok || !c.SupportsDict() {
		return nil
	}
	d, err := dict.Train(db.mem.sampleValues(dictSampleBytes), dict.DefaultParams(dictBytes))
	if errors.Is(err, dict.ErrNotEnoughSamples) || err == nil && zstd.DictID(d) == 0 {
		return nil // an ID of 0 would read as "no dictionary" in the manifest
	}
	if err != nil {
		return err
	}
	return db.useDictLocked(d)
}

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
	n := len(blob) - 8
	if n < len(dictMagic) || [4]byte(blob[:4]) != dictMagic || xxhash.Sum64(blob[:n]) != binary.LittleEndian.Uint64(blob[n:]) {
		return fmt.Errorf("%w: %s magic or checksum", ErrCorrupt, dictName)
	}
	d := blob[len(dictMagic):n:n]
	if got := zstd.DictID(d); got != id {
		return fmt.Errorf("%w: %s holds dictionary %08x, the manifest names %08x", ErrCorrupt, dictName, got, id)
	}
	db.dictPersisted = true
	return db.useDictLocked(d)
}

// encodeDict frames d as the store.dict blob.
func encodeDict(d []byte) []byte {
	b := make([]byte, 0, len(dictMagic)+len(d)+8)
	b = append(append(b, dictMagic[:]...), d...)
	return binary.LittleEndian.AppendUint64(b, xxhash.Sum64(b))
}
