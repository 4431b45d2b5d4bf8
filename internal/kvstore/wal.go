package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/datacomp/datacomp/internal/xxhash"
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
// Manifest: the one mutable blob, replaced atomically whenever the table
// set changes:
//
//	"KVM2" | uvarint seq | uvarint nextID | uvarint dictID |
//	per level (numLevels of them): uvarint count | count × uvarint table id |
//	8-byte LE XXH64 of everything before it
//
// seq is the last batch the named tables hold. dictID is the zstd ID of the
// store dictionary every table is coded against (storedict.go), 0 for none;
// a "KVM1" manifest is the same without it, and decodes as dictless.
// Recovery opens those tables (sst.go: no data block is decoded), then
// replays WAL batches with a greater seq, so a stale log next to a newer
// manifest changes nothing.

const (
	opPut    = 0
	opDelete = 1
)

// Blob names. legacySnapshotName is the snapshot container of the format
// before tables were persisted; no reader for it remains.
const (
	manifestName       = "MANIFEST"
	dictName           = "store.dict"
	tableSuffix        = ".sst"
	legacySnapshotName = "snapshot.zsxs"
)

var (
	manifestMagic   = [4]byte{'K', 'V', 'M', '2'}
	manifestMagicV1 = [4]byte{'K', 'V', 'M', '1'} // no dictID
)

// ErrLegacySnapshot is returned by Open for a store last written in the
// snapshot format: its data is intact but this version cannot load it.
var ErrLegacySnapshot = errors.New("kvstore: store holds a legacy snapshot (" + legacySnapshotName + "), which this version cannot read")

func tableName(id int64) string { return fmt.Sprintf("%06d%s", id, tableSuffix) }

// Batch accumulates writes that apply atomically through one WAL record —
// the storage-side sibling of codec.CompressBatch: N small items share one
// compression dispatch and one fsync. Ops replay in insertion order, so a
// later op on the same key wins.
type Batch struct {
	ops []batchOp
	buf []byte // every op's key and value, back to back; kept across Reset
}

// batchOp is one op: its key is buf[off:off+klen], its value the vlen bytes
// after it.
type batchOp struct {
	off, klen, vlen int
	del             bool
}

// Put queues key→value (copies both).
func (b *Batch) Put(key, value []byte) {
	b.ops = append(b.ops, batchOp{off: len(b.buf), klen: len(key), vlen: len(value)})
	b.buf = append(append(b.buf, key...), value...)
}

// Delete queues a tombstone for key (copies it).
func (b *Batch) Delete(key []byte) {
	b.ops = append(b.ops, batchOp{off: len(b.buf), klen: len(key), del: true})
	b.buf = append(b.buf, key...)
}

// op returns op i's key and value (nil for a delete), which alias the batch
// until its next Put, Delete or Reset.
func (b *Batch) op(i int) (key, value []byte, del bool) {
	o := b.ops[i]
	key = b.buf[o.off : o.off+o.klen]
	if !o.del {
		value = b.buf[o.off+o.klen : o.off+o.klen+o.vlen]
	}
	return key, value, o.del
}

// Len reports the queued op count.
func (b *Batch) Len() int { return len(b.ops) }

// Reset empties the batch, retaining capacity.
func (b *Batch) Reset() {
	b.ops = b.ops[:0]
	b.buf = b.buf[:0]
}

// appendBatchPayload encodes seq plus b's ops onto dst.
func appendBatchPayload(dst []byte, seq uint64, b *Batch) []byte {
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(len(b.ops)))
	for i := range b.ops {
		key, value, del := b.op(i)
		kind := byte(opPut)
		if del {
			kind = opDelete
		}
		dst = append(dst, kind)
		dst = binary.AppendUvarint(dst, uint64(len(key)))
		dst = append(dst, key...)
		if !del {
			dst = binary.AppendUvarint(dst, uint64(len(value)))
			dst = append(dst, value...)
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

// manifest is the durable description of the table set.
type manifest struct {
	seq    uint64
	nextID int64
	dictID uint32 // 0: the tables are coded without a dictionary
	levels [numLevels][]int64
}

func (m *manifest) encode() []byte {
	b := append([]byte{}, manifestMagic[:]...)
	b = binary.AppendUvarint(b, m.seq)
	b = binary.AppendUvarint(b, uint64(m.nextID))
	b = binary.AppendUvarint(b, uint64(m.dictID))
	for _, ids := range m.levels {
		b = binary.AppendUvarint(b, uint64(len(ids)))
		for _, id := range ids {
			b = binary.AppendUvarint(b, uint64(id))
		}
	}
	return binary.LittleEndian.AppendUint64(b, xxhash.Sum64(b))
}

// metaReader parses the uvarint-framed metadata formats (manifest, table
// index) off the front of b. Running past the end sets bad and yields zeros
// from then on, so a parser reads straight through and checks once; counts
// it is about to allocate for it checks against len(b) first.
type metaReader struct {
	b   []byte
	bad bool
}

func (r *metaReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.b, r.bad = nil, true
		return 0
	}
	r.b = r.b[n:]
	return v
}

// appendPrefixed is what metaReader.bytes reads back.
func appendPrefixed(dst, s []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// bytes cuts a uvarint-length-prefixed string, aliasing the input.
func (r *metaReader) bytes() []byte {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.b, r.bad = nil, true
		return nil
	}
	s := r.b[:n:n]
	r.b = r.b[n:]
	return s
}

// decodeManifest parses hostile bytes: every failure is ErrCorrupt and the
// only allocations are id slices no longer than the input.
func decodeManifest(b []byte) (manifest, error) {
	n := len(b) - 8
	if n < len(manifestMagic) || [4]byte(b[:4]) != manifestMagic && [4]byte(b[:4]) != manifestMagicV1 ||
		xxhash.Sum64(b[:n]) != binary.LittleEndian.Uint64(b[n:]) {
		return manifest{}, fmt.Errorf("%w: manifest magic or checksum", ErrCorrupt)
	}
	r := metaReader{b: b[len(manifestMagic):n]}
	m := manifest{seq: r.uvarint(), nextID: int64(min(r.uvarint(), 1<<62))}
	if [4]byte(b[:4]) == manifestMagic {
		id := r.uvarint()
		m.dictID = uint32(id)
		r.bad = r.bad || id > math.MaxUint32
	}
	for lvl := range m.levels {
		count := r.uvarint()
		m.levels[lvl] = make([]int64, min(count, uint64(len(r.b)+1))) // an id takes a byte at least
		for i := range m.levels[lvl] {
			m.levels[lvl][i] = int64(r.uvarint())
			r.bad = r.bad || m.levels[lvl][i] < 0 || m.levels[lvl][i] >= m.nextID
		}
	}
	if r.bad || len(r.b) != 0 {
		return manifest{}, fmt.Errorf("%w: manifest body", ErrCorrupt)
	}
	return m, nil
}
