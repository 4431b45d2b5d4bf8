package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/container"
	"github.com/datacomp/datacomp/internal/xxhash"
)

// Durability format (DESIGN.md §11).
//
// WAL: a stream of records, one batch each. A batch's body is
//
//	uvarint opCount |
//	per op: 1B kind (0=put, 1=delete) | uvarint klen | key |
//	        (put only) uvarint vlen | value
//
// and its record frames the batch's sequence number with the body as the
// WAL codec (lz4 by default) codes it:
//
//	0x00 | uvarint seq | uvarint codingLen | coding |
//	8-byte LE XXH64 of everything before it
//
// or, in the dictionary form, as zstd codes it against a WAL dictionary the
// record names by its zstd.DictID:
//
//	0x01 | uvarint seq | uvarint dictID | uvarint codingLen | coding |
//	8-byte LE XXH64 of everything before it
//
// The coding is the same bytes whoever made it: the store codes a body
// itself with the WAL codec, or keeps the coding it arrived in when the
// sender coded it with the WAL codec, or with zstd against a dictionary the
// store holds for its log (DB.ApplyCoded, DB.AddWALDict; a replicated put's
// kv.put request is a batch body). Replay decodes a coding with the WAL
// engine, or with an engine for the dictionary its record names, which the
// store persisted before it logged any record naming it (storedict.go). A
// v1 record, the format before these, is container-framed (uvarint compLen
// | uvarint rawLen | XXH64 | compressed payload) and codes the sequence
// number inside the payload, ahead of the body; its compLen is never 0, and
// never 1 (the payload holds a sequence number and a batch body, at least 5
// bytes, which the WAL codec never codes to one), so the leading byte tells
// the formats apart, and replay reads all three.
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

// Batch accumulates writes that apply atomically through one WAL record:
// N small items share one compression dispatch and one fsync. Ops replay
// in insertion order, so a later op on the same key wins.
type Batch struct {
	ops []batchOp
	buf []byte // every op's key and value; kept across Reset
}

// batchOp is one op: its key is buf[koff:koff+klen], its value
// buf[voff:voff+vlen].
type batchOp struct {
	koff, klen, voff, vlen int
	del                    bool
}

// Put queues key→value (copies both).
func (b *Batch) Put(key, value []byte) {
	b.ops = append(b.ops, batchOp{koff: len(b.buf), klen: len(key), voff: len(b.buf) + len(key), vlen: len(value)})
	b.buf = append(append(b.buf, key...), value...)
}

// Delete queues a tombstone for key (copies it).
func (b *Batch) Delete(key []byte) {
	b.ops = append(b.ops, batchOp{koff: len(b.buf), klen: len(key), del: true})
	b.buf = append(b.buf, key...)
}

// op returns op i's key and value (nil for a delete), which alias the batch
// until its next Put, Delete or Reset.
func (b *Batch) op(i int) (key, value []byte, del bool) {
	o := b.ops[i]
	key = b.buf[o.koff : o.koff+o.klen]
	if !o.del {
		value = b.buf[o.voff : o.voff+o.vlen]
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

// appendBatchBody encodes b's ops onto dst as a batch body.
func appendBatchBody(dst []byte, b *Batch) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b.ops)))
	for i := range b.ops {
		key, value, del := b.op(i)
		kind := byte(opPut)
		if del {
			kind = opDelete
		}
		dst = appendPrefixed(append(dst, kind), key)
		if !del {
			dst = appendPrefixed(dst, value)
		}
	}
	return dst
}

// readBody points b at the ops of body, a batch body, without copying: b
// aliases body until the next readBody or clear, and takes no Put or
// Delete meanwhile. On error b is empty.
func (b *Batch) readBody(body []byte) error {
	b.ops, b.buf = b.ops[:0], body
	r := metaReader{b: body}
	count := r.uvarint()
	if count > uint64(len(body)) {
		r.bad = true
	}
	for i := uint64(0); i < count && !r.bad; i++ {
		if len(r.b) == 0 || r.b[0] != opPut && r.b[0] != opDelete {
			r.bad = true
			break
		}
		op := batchOp{del: r.b[0] == opDelete}
		r.b = r.b[1:]
		key := r.bytes()
		op.koff, op.klen = len(body)-len(r.b)-len(key), len(key)
		if !op.del {
			value := r.bytes()
			op.voff, op.vlen = len(body)-len(r.b)-len(value), len(value)
		}
		r.bad = r.bad || len(key) == 0
		b.ops = append(b.ops, op)
	}
	if r.bad || len(r.b) != 0 {
		b.clear()
		return fmt.Errorf("%w: batch body", ErrCorrupt)
	}
	return nil
}

// clear empties a batch readBody filled, dropping its hold on the body.
func (b *Batch) clear() { b.ops, b.buf = b.ops[:0], nil }

// PutBodyLen is the length of a batch body holding one put of a klen-byte
// key and a vlen-byte value.
func PutBodyLen(klen, vlen int) int {
	return 2 + uvarintLen(uint64(klen)) + klen + uvarintLen(uint64(vlen)) + vlen
}

// AppendPutHead appends the head of a batch body holding one put of key —
// everything before its value, which the caller appends next, vlen bytes of
// it. ParsePutBody reads the whole body back, and DB.ApplyCoded commits it.
func AppendPutHead(dst, key []byte, vlen int) []byte {
	return binary.AppendUvarint(appendPrefixed(append(dst, 1, opPut), key), uint64(vlen))
}

// ParsePutBody returns the key and value of body, a batch body that must
// hold exactly one put. Both alias body.
func ParsePutBody(body []byte) (key, value []byte, err error) {
	r := metaReader{b: body}
	if r.uvarint() != 1 || len(r.b) == 0 || r.b[0] != opPut {
		return nil, nil, errPutBody
	}
	r.b = r.b[1:]
	key, value = r.bytes(), r.bytes()
	if r.bad || len(key) == 0 || len(r.b) != 0 {
		return nil, nil, errPutBody
	}
	return key, value, nil
}

var errPutBody = fmt.Errorf("%w: not a one-put batch body", ErrCorrupt)

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// walRecordMark opens every record of the current WAL format, and
// walDictRecordMark every record of its dictionary form.
const (
	walRecordMark     = 0x00
	walDictRecordMark = 0x01
)

// maxWALCoding bounds a record's coding: a header claiming more is garbage.
// A body is at most container.MaxBlockSize, and no codec doubles it.
const maxWALCoding = 2 * container.MaxBlockSize

var (
	errWALRecord    = fmt.Errorf("%w: WAL record torn or malformed", ErrCorrupt)
	errWALRecordSum = fmt.Errorf("%w: WAL record checksum mismatch", ErrCorrupt)
	// errWALDictMissing fails a verified record that names a dictionary the
	// store does not hold.
	errWALDictMissing = fmt.Errorf("%w: WAL record names a dictionary the store does not hold", ErrCorrupt)
)

// appendWALRecord frames seq and coding, a batch body as the WAL codec
// coded it (dictID 0) or as zstd coded it against WAL dictionary dictID, as
// one record.
func appendWALRecord(dst []byte, seq uint64, dictID uint32, coding []byte) []byte {
	start := len(dst)
	if dictID == 0 {
		dst = binary.AppendUvarint(append(dst, walRecordMark), seq)
	} else {
		dst = binary.AppendUvarint(binary.AppendUvarint(append(dst, walDictRecordMark), seq), uint64(dictID))
	}
	dst = append(binary.AppendUvarint(dst, uint64(len(coding))), coding...)
	return binary.LittleEndian.AppendUint64(dst, xxhash.Sum64(dst[start:]))
}

// walRecordBounds returns the length of the record at the start of b, of
// any format. Any error means no whole record starts there: the log's clean
// end (io.EOF), a torn tail or garbage.
func walRecordBounds(b []byte) (int, error) {
	if len(b) == 0 || b[0] != walRecordMark && b[0] != walDictRecordMark {
		return container.RecordBounds(b)
	}
	r := metaReader{b: b[1:]}
	r.uvarint() // seq
	if b[0] == walDictRecordMark {
		r.uvarint() // dictID
	}
	n := r.uvarint()
	if r.bad || n == 0 || n > maxWALCoding || uint64(len(r.b)) < n+8 {
		return 0, errWALRecord
	}
	return len(b) - len(r.b) + int(n) + 8, nil
}

// decodeWALRecord verifies rec, one record as walRecordBounds cut it, and
// decodes its coding onto dst with eng, the WAL engine, or with the engine
// dicts returns for the dictionary a dictionary-form record names. out is
// dst extended, for the caller to reuse; body is the batch body within it.
func decodeWALRecord(dst []byte, eng codec.Engine, dicts func(id uint32) (codec.Engine, error), rec []byte) (out []byte, seq uint64, body []byte, err error) {
	base := len(dst)
	if rec[0] != walRecordMark && rec[0] != walDictRecordMark {
		// v1: the sequence number leads the coded payload.
		if out, _, err = container.DecodeRecord(dst, eng, rec); err != nil {
			return dst, 0, nil, err
		}
		n := 0
		if seq, n = binary.Uvarint(out[base:]); n <= 0 {
			return out, 0, nil, errWALRecord
		}
		return out, seq, out[base+n:], nil
	}
	r := metaReader{b: rec[1:]}
	seq = r.uvarint()
	var dictID uint64
	if rec[0] == walDictRecordMark {
		dictID = r.uvarint()
	}
	coding := r.bytes()
	end := len(rec) - len(r.b)
	if r.bad || len(r.b) != 8 || dictID > math.MaxUint32 || rec[0] == walDictRecordMark && dictID == 0 {
		return dst, 0, nil, errWALRecord
	}
	if xxhash.Sum64(rec[:end]) != binary.LittleEndian.Uint64(r.b) {
		return dst, 0, nil, errWALRecordSum
	}
	if dictID != 0 {
		if eng, err = dicts(uint32(dictID)); err != nil {
			return dst, 0, nil, err
		}
	}
	if out, err = eng.Decompress(dst, coding); err != nil {
		return dst, 0, nil, err
	}
	return out, seq, out[base:], nil
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
