package kvstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"

	"github.com/datacomp/datacomp/internal/container"
)

// Durability format (DESIGN.md §11).
//
// WAL: a stream of container-framed records (uvarint compLen | uvarint
// rawLen | XXH64 | compressed payload). Each record holds one batch:
//
//	uvarint seq | uvarint opCount |
//	per op: 1B kind (0=put, 1=delete) | uvarint klen | key |
//	        (put only) uvarint vlen | value
//
// Snapshot: a full container whose block 0 is a meta block ("KVSN" |
// uvarint seq = the WAL sequence the snapshot covers) and whose remaining
// blocks pack live entries in key order (uvarint klen | key | uvarint
// vlen | value). Recovery loads the snapshot straight into the bottom
// level, then replays WAL batches with seq greater than the meta seq.

const (
	opPut    = 0
	opDelete = 1
)

var snapMeta = [4]byte{'K', 'V', 'S', 'N'}

// Batch accumulates writes that apply atomically through one WAL record —
// the storage-side sibling of codec.CompressBatch: N small items share one
// compression dispatch and one fsync. Ops replay in insertion order, so a
// later op on the same key wins.
type Batch struct {
	ops []batchOp
	// size approximates the encoded payload, for callers packing toward a
	// target record size.
	size int
}

type batchOp struct {
	key, value []byte
	del        bool
}

// Put queues key→value (copies both).
func (b *Batch) Put(key, value []byte) {
	b.ops = append(b.ops, batchOp{
		key:   append([]byte{}, key...),
		value: append([]byte{}, value...),
	})
	b.size += len(key) + len(value) + 12
}

// Delete queues a tombstone for key (copies it).
func (b *Batch) Delete(key []byte) {
	b.ops = append(b.ops, batchOp{key: append([]byte{}, key...), del: true})
	b.size += len(key) + 12
}

// Len reports the queued op count.
func (b *Batch) Len() int { return len(b.ops) }

// Size approximates the encoded payload bytes.
func (b *Batch) Size() int { return b.size }

// Reset empties the batch, retaining capacity.
func (b *Batch) Reset() {
	b.ops = b.ops[:0]
	b.size = 0
}

// appendBatchPayload encodes seq plus b's ops onto dst.
func appendBatchPayload(dst []byte, seq uint64, b *Batch) []byte {
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(len(b.ops)))
	for _, op := range b.ops {
		kind := byte(opPut)
		if op.del {
			kind = opDelete
		}
		dst = append(dst, kind)
		dst = binary.AppendUvarint(dst, uint64(len(op.key)))
		dst = append(dst, op.key...)
		if !op.del {
			dst = binary.AppendUvarint(dst, uint64(len(op.value)))
			dst = append(dst, op.value...)
		}
	}
	return dst
}

// decodeBatchPayload parses one batch payload, invoking fn per op. The
// key and value slices alias raw. value is nil for deletes.
func decodeBatchPayload(raw []byte, fn func(key, value []byte, del bool) error) (seq uint64, err error) {
	seq, n := binary.Uvarint(raw)
	if n <= 0 {
		return 0, fmt.Errorf("%w: batch seq", ErrCorrupt)
	}
	pos := n
	count, n := binary.Uvarint(raw[pos:])
	if n <= 0 || count > uint64(len(raw)) {
		return 0, fmt.Errorf("%w: batch count", ErrCorrupt)
	}
	pos += n
	for i := uint64(0); i < count; i++ {
		if pos >= len(raw) {
			return 0, fmt.Errorf("%w: batch op", ErrCorrupt)
		}
		kind := raw[pos]
		pos++
		if kind != opPut && kind != opDelete {
			return 0, fmt.Errorf("%w: batch op kind %d", ErrCorrupt, kind)
		}
		klen, n := binary.Uvarint(raw[pos:])
		if n <= 0 || klen == 0 || klen > uint64(len(raw)-pos-n) {
			return 0, fmt.Errorf("%w: batch key", ErrCorrupt)
		}
		pos += n
		key := raw[pos : pos+int(klen)]
		pos += int(klen)
		var value []byte
		if kind == opPut {
			vlen, n := binary.Uvarint(raw[pos:])
			if n <= 0 || vlen > uint64(len(raw)-pos-n) {
				return 0, fmt.Errorf("%w: batch value", ErrCorrupt)
			}
			pos += n
			value = raw[pos : pos+int(vlen)]
			pos += int(vlen)
		}
		if err := fn(key, value, kind == opDelete); err != nil {
			return 0, err
		}
	}
	if pos != len(raw) {
		return 0, fmt.Errorf("%w: batch trailing bytes", ErrCorrupt)
	}
	return seq, nil
}

// buildSnapshotLocked serializes the DB's full live state (memtable
// overlaid on every level) into a snapshot container covering db.seq.
func (db *DB) buildSnapshotLocked(ctx context.Context) ([]byte, error) {
	var out bytes.Buffer
	bw, err := container.NewBuilder(&out, db.cfg.codecName, db.eng, db.cfg.blockSize)
	if err != nil {
		return nil, err
	}
	meta := append([]byte{}, snapMeta[:]...)
	meta = binary.AppendUvarint(meta, db.seq)
	if err := bw.AppendBlock(meta); err != nil {
		return nil, err
	}

	mi, err := db.fullMergeIteratorLocked()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, db.cfg.blockSize+4096)
	entries := 0
	for mi.valid() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !mi.tombstone() {
			buf = binary.AppendUvarint(buf, uint64(len(mi.key())))
			buf = append(buf, mi.key()...)
			buf = binary.AppendUvarint(buf, uint64(len(mi.value())))
			buf = append(buf, mi.value()...)
			entries++
			if len(buf) >= db.cfg.blockSize {
				if err := bw.AppendBlock(buf); err != nil {
					return nil, err
				}
				buf = buf[:0]
			}
		}
		if err := mi.next(); err != nil {
			return nil, err
		}
	}
	if mi.err != nil {
		return nil, mi.err
	}
	if len(buf) > 0 {
		if err := bw.AppendBlock(buf); err != nil {
			return nil, err
		}
	}
	if err := bw.Close(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// fullMergeIteratorLocked merges the memtable (as the newest source) with
// every table on every level — the iterator behind Scan and snapshots.
func (db *DB) fullMergeIteratorLocked() (*mergeIterator, error) {
	w := newTableWriter(-1, db.cfg.codecName, db.eng, db.cfg.blockSize, nil)
	for it := db.mem.iterator(); it.valid(); it.next() {
		var v []byte
		if !it.tombstone() {
			v = it.value()
			if v == nil {
				v = []byte{}
			}
		}
		if err := w.add(it.key(), v); err != nil {
			return nil, err
		}
	}
	memTable, err := w.finish()
	if err != nil {
		return nil, err
	}
	var inputs []*sstable
	if memTable != nil {
		inputs = append(inputs, memTable)
	}
	inputs = append(inputs, db.levels[0]...)
	for lvl := 1; lvl < numLevels; lvl++ {
		inputs = append(inputs, db.levels[lvl]...)
	}
	return newMergeIterator(inputs, &db.stats), nil
}

// loadSnapshotLocked rebuilds the bottom level from a snapshot container
// and returns the WAL sequence it covers. Called only on an empty DB.
func (db *DB) loadSnapshotLocked(snap []byte) (uint64, error) {
	ra, err := container.NewReaderAt(bytes.NewReader(snap), int64(len(snap)),
		container.WithEngine(db.eng))
	if err != nil {
		return 0, fmt.Errorf("kvstore: snapshot: %w", err)
	}
	if ra.NumBlocks() < 1 {
		return 0, fmt.Errorf("%w: snapshot has no meta block", ErrCorrupt)
	}
	meta, err := ra.DecodeBlock(nil, 0)
	if err != nil {
		return 0, err
	}
	if len(meta) < len(snapMeta) || [4]byte(meta[:4]) != snapMeta {
		return 0, fmt.Errorf("%w: snapshot meta magic", ErrCorrupt)
	}
	seq, n := binary.Uvarint(meta[4:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: snapshot meta seq", ErrCorrupt)
	}

	w := newTableWriter(db.nextID, db.cfg.codecName, db.eng, db.cfg.blockSize, &db.stats)
	db.nextID++
	var out []*sstable
	rawInTable := 0
	var blk []byte
	for bi := 1; bi < ra.NumBlocks(); bi++ {
		blk, err = ra.DecodeBlock(blk[:0], bi)
		if err != nil {
			return 0, err
		}
		pos := 0
		for pos < len(blk) {
			klen, n := binary.Uvarint(blk[pos:])
			if n <= 0 || klen == 0 || klen > uint64(len(blk)-pos-n) {
				return 0, fmt.Errorf("%w: snapshot entry key", ErrCorrupt)
			}
			pos += n
			key := blk[pos : pos+int(klen)]
			pos += int(klen)
			vlen, n := binary.Uvarint(blk[pos:])
			if n <= 0 || vlen > uint64(len(blk)-pos-n) {
				return 0, fmt.Errorf("%w: snapshot entry value", ErrCorrupt)
			}
			pos += n
			value := blk[pos : pos+int(vlen)]
			pos += int(vlen)
			if err := w.add(key, value); err != nil {
				return 0, err
			}
			rawInTable += int(klen) + int(vlen)
			if rawInTable >= db.cfg.maxTableBytes {
				t, err := w.finish()
				if err != nil {
					return 0, err
				}
				if t != nil {
					out = append(out, t)
				}
				w = newTableWriter(db.nextID, db.cfg.codecName, db.eng, db.cfg.blockSize, &db.stats)
				db.nextID++
				rawInTable = 0
			}
		}
	}
	t, err := w.finish()
	if err != nil {
		return 0, err
	}
	if t != nil {
		out = append(out, t)
	}
	db.levels[numLevels-1] = out
	return seq, nil
}
