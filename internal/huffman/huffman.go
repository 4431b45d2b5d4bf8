// Package huffman implements canonical, length-limited Huffman coding.
//
// Two layers are exposed:
//
//   - Primitives (BuildLengths, CanonicalCodesInto) that compute optimal
//     length-limited code lengths via the package-merge algorithm and assign
//     canonical codes. The DEFLATE-style codec builds its lit/len and
//     distance tables from these. BuildScratch.BuildLengths and
//     CanonicalCodesInto run allocation-free once warmed.
//   - A byte-stream coder (Compress/Decompress) with a compact 4-bit weight
//     table header, used by the Zstd-style codec to compress block literals.
//     Codes are limited to MaxCodeLen bits and decoded with a single
//     table lookup. The Scratch type carries every table and work buffer
//     across blocks so the steady-state path performs zero heap allocations.
package huffman

import (
	"errors"
	"fmt"
	"slices"

	"github.com/datacomp/datacomp/internal/bits"
	"github.com/datacomp/datacomp/internal/fse"
)

// MaxCodeLen is the code-length limit for the byte-stream coder.
const MaxCodeLen = 11

// maxBuildBits bounds the code-length limit BuildScratch supports; both
// in-repo alphabets (MaxCodeLen=11, zlibx's 12) fit well under it.
const maxBuildBits = 16

// ErrIncompressible is returned by Compress when Huffman coding does not
// shrink the input; callers should store the data raw.
var ErrIncompressible = errors.New("huffman: input not compressible")

// ErrCorrupt is returned when a compressed payload cannot be decoded.
var ErrCorrupt = errors.New("huffman: corrupt payload")

// BuildScratch holds the package-merge work lists, reused across builds so
// steady-state table construction does not allocate.
type BuildScratch struct {
	syms  []int32  // used symbols, sorted by (frequency, symbol)
	prevW []uint64 // weights of the previous level's merged list
	curW  []uint64
	// levels[l] is level l's merged list: an entry ≥ 0 indexes syms (a base
	// item), -1 marks a package of two entries from level l-1. Level 0 is
	// the base list itself and is not stored.
	levels [maxBuildBits][]int32
}

// BuildLengths computes optimal length-limited code lengths for freqs into
// lengths (len(lengths) must equal len(freqs)), reusing the scratch work
// lists. Semantics match the package-level BuildLengths.
func (s *BuildScratch) BuildLengths(lengths []uint8, freqs []uint32, maxBits uint8) error {
	if len(lengths) != len(freqs) {
		return errors.New("huffman: lengths/freqs size mismatch")
	}
	if maxBits == 0 || int(maxBits) > maxBuildBits {
		return fmt.Errorf("huffman: bit limit %d out of range [1,%d]", maxBits, maxBuildBits)
	}
	for i := range lengths {
		lengths[i] = 0
	}
	s.syms = s.syms[:0]
	for sym, f := range freqs {
		if f > 0 {
			s.syms = append(s.syms, int32(sym))
		}
	}
	n := len(s.syms)
	switch n {
	case 0:
		return errors.New("huffman: no symbols")
	case 1:
		lengths[s.syms[0]] = 1
		return nil
	}
	if n > 1<<maxBits {
		return fmt.Errorf("huffman: %d symbols exceed %d-bit limit", n, maxBits)
	}
	slices.SortFunc(s.syms, func(a, b int32) int {
		if fa, fb := freqs[a], freqs[b]; fa != fb {
			if fa < fb {
				return -1
			}
			return 1
		}
		return int(a - b)
	})

	// Forward package-merge: level l's list merges the base items with the
	// pairwise packages of level l-1, recording only base-or-package per
	// entry (package contents are implied by position, so no per-item
	// symbol sets are materialized).
	pw := s.prevW[:0]
	for _, sym := range s.syms {
		pw = append(pw, uint64(freqs[sym]))
	}
	cw := s.curW[:0]
	for l := 1; l < int(maxBits); l++ {
		list := s.levels[l][:0]
		cw = cw[:0]
		npkg := len(pw) / 2
		bi, pi := 0, 0
		for bi < n || pi < npkg {
			var pkgW uint64
			if pi < npkg {
				pkgW = pw[2*pi] + pw[2*pi+1]
			}
			if pi >= npkg || (bi < n && uint64(freqs[s.syms[bi]]) <= pkgW) {
				list = append(list, int32(bi))
				cw = append(cw, uint64(freqs[s.syms[bi]]))
				bi++
			} else {
				list = append(list, -1)
				cw = append(cw, pkgW)
				pi++
			}
		}
		s.levels[l] = list
		pw, cw = cw, pw
	}
	s.prevW, s.curW = pw, cw

	// Backward walk: the first 2n-2 entries of the final list are taken;
	// a taken package expands to the first 2·(packages taken) entries one
	// level down, and every taken base item adds one bit to its symbol.
	take := 2*n - 2
	for l := int(maxBits) - 1; l >= 1; l-- {
		list := s.levels[l]
		if take > len(list) {
			take = len(list)
		}
		npkgTaken := 0
		for _, e := range list[:take] {
			if e >= 0 {
				lengths[s.syms[e]]++
			} else {
				npkgTaken++
			}
		}
		take = 2 * npkgTaken
	}
	if take > n {
		take = n
	}
	for _, sym := range s.syms[:take] {
		lengths[sym]++
	}
	return nil
}

// BuildLengths returns optimal length-limited Huffman code lengths for the
// given symbol frequencies, using the package-merge algorithm. Symbols with
// zero frequency receive length 0. maxBits must satisfy
// 2^maxBits ≥ number of used symbols. A single used symbol gets length 1.
func BuildLengths(freqs []uint32, maxBits uint8) ([]uint8, error) {
	var s BuildScratch
	lengths := make([]uint8, len(freqs))
	if err := s.BuildLengths(lengths, freqs, maxBits); err != nil {
		return nil, err
	}
	return lengths, nil
}

// CanonicalCodesInto assigns canonical (MSB-first) codes for lengths into
// codes, which must have len(codes) == len(lengths). Entries with length 0
// are set to 0. It performs no heap allocation.
func CanonicalCodesInto(codes []uint32, lengths []uint8) error {
	if len(codes) != len(lengths) {
		return errors.New("huffman: codes/lengths size mismatch")
	}
	maxLen := uint8(0)
	for _, l := range lengths {
		if l > maxLen {
			maxLen = l
		}
	}
	if maxLen == 0 {
		return errors.New("huffman: all lengths zero")
	}
	var blCount [256]uint32
	var nextCode [257]uint32
	for _, l := range lengths {
		if l > 0 {
			blCount[l]++
		}
	}
	code := uint32(0)
	for b := uint8(1); b <= maxLen; b++ {
		code = (code + blCount[b-1]) << 1
		nextCode[b] = code
	}
	// Kraft check: the final code for the longest length must not overflow.
	if code+blCount[maxLen] > 1<<maxLen {
		return errors.New("huffman: oversubscribed code lengths")
	}
	for s, l := range lengths {
		if l > 0 {
			codes[s] = nextCode[l]
			nextCode[l]++
		} else {
			codes[s] = 0
		}
	}
	return nil
}

// ReverseBits reverses the low n bits of v (used to store MSB-first canonical
// codes in an LSB-first bit stream).
func ReverseBits(v uint32, n uint8) uint32 {
	r := uint32(0)
	for i := uint8(0); i < n; i++ {
		r = r<<1 | (v & 1)
		v >>= 1
	}
	return r
}

// Decode-table entries pack a symbol and its code length into one uint16
// (sym<<4 | len), so the decode inner loop costs a single 16-bit load per
// symbol. len occupies 4 bits (MaxCodeLen = 11 < 16); entry 0 marks an
// unused slot: a valid entry always has len ≥ 1.
const decEntryBits = 4

// Table is a prepared coder for the byte alphabet: canonical codes limited
// to MaxCodeLen bits plus a single-level packed lookup table for decoding,
// sized 1<<tableLog where tableLog is the longest code actually assigned.
type Table struct {
	lengths  [256]uint8
	codes    [256]uint32 // bit-reversed, ready for LSB-first emission
	dec      []uint16    // 1<<tableLog packed entries, see decEntryBits
	tableLog uint8       // longest assigned code length
	maxSym   int
}

// BuildTable constructs a Table from symbol frequencies (length ≤ 256).
func BuildTable(freqs []uint32) (*Table, error) {
	lengths, err := BuildLengths(freqs, MaxCodeLen)
	if err != nil {
		return nil, err
	}
	return tableFromLengths(lengths)
}

func tableFromLengths(lengths []uint8) (*Table, error) {
	t := &Table{}
	if err := t.init(lengths); err != nil {
		return nil, err
	}
	return t, nil
}

// init (re)builds the table in place, reusing the decode slab. The decode
// table is sized to the longest assigned code, not the MaxCodeLen ceiling:
// shorter alphabets get a smaller, cache-friendlier table and a cheaper
// rebuild per block.
func (t *Table) init(lengths []uint8) error {
	if len(lengths) > 256 {
		return errors.New("huffman: alphabet exceeds 256 symbols")
	}
	var codes [256]uint32
	if err := CanonicalCodesInto(codes[:len(lengths)], lengths); err != nil {
		return err
	}
	maxLen := uint8(0)
	for _, l := range lengths {
		if l > maxLen {
			maxLen = l
		}
	}
	if maxLen > MaxCodeLen {
		return fmt.Errorf("huffman: length %d exceeds limit", maxLen)
	}
	t.tableLog = maxLen
	tableSize := 1 << maxLen
	if cap(t.dec) < tableSize {
		t.dec = make([]uint16, 1<<MaxCodeLen)
	}
	t.dec = t.dec[:tableSize]
	// Unused entries must read as 0 so corrupt streams are detected.
	clear(t.dec)
	clear(t.lengths[:])
	clear(t.codes[:])
	t.maxSym = -1
	for s, l := range lengths {
		if l == 0 {
			continue
		}
		t.maxSym = s
		rev := ReverseBits(codes[s], l)
		t.lengths[s] = l
		t.codes[s] = rev
		step := uint32(1) << l
		e := uint16(s)<<decEntryBits | uint16(l)
		for idx := int(rev); idx < tableSize; idx += int(step) {
			t.dec[idx] = e
		}
	}
	return nil
}

// Lengths returns the code length for each symbol (0 = unused).
func (t *Table) Lengths() []uint8 { return t.lengths[:] }

// EstimateSize returns the exact payload size in bits of encoding data whose
// histogram is freqs with this table (excluding the table header).
func (t *Table) EstimateSize(freqs []uint32) int {
	total := 0
	for s, f := range freqs {
		total += int(f) * int(t.lengths[s])
	}
	return total
}

// headerSize returns the serialized weight-table size in bytes for an
// alphabet reaching maxSym.
func headerSize(maxSym int) int { return 1 + (maxSym+2)/2 }

// ReadTable builds a table from a weight header at the start of src,
// returning it and the bytes the header took.
func ReadTable(src []byte) (*Table, int, error) {
	t := &Table{}
	var lengths [256]uint8
	n, err := t.readHeader(src, &lengths)
	if err != nil {
		return nil, 0, err
	}
	return t, n, nil
}

// AppendHeader appends the table's weight header — the one Compress sends
// ahead of every payload, and the form ReadTable parses: code lengths as
// 4-bit weights, MaxCodeLen+1-length for used symbols, 0 for unused.
func (t *Table) AppendHeader(dst []byte) []byte {
	n := t.maxSym + 1
	dst = append(dst, byte(n-1))
	for i := 0; i < n; i += 2 {
		var b byte
		if l := t.lengths[i]; l > 0 {
			b = byte(MaxCodeLen + 1 - l)
		}
		if i+1 < n {
			if l := t.lengths[i+1]; l > 0 {
				b |= byte(MaxCodeLen+1-l) << 4
			}
		}
		dst = append(dst, b)
	}
	return dst
}

// Scratch owns every table and work buffer the byte-stream coder needs, so
// a warmed encoder or decoder runs the steady-state path with zero heap
// allocations. The zero value is ready to use; a Scratch is not safe for
// concurrent use.
type Scratch struct {
	build   BuildScratch
	table   Table
	w64     bits.Writer64
	freqs   [256]uint32
	lengths [256]uint8
}

// grow extends b by n bytes without zero-filling, reusing capacity. The
// extension holds stale bytes until the caller overwrites all of them.
func grow(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b[:len(b)+n]
	}
	nb := make([]byte, len(b)+n, 2*len(b)+n)
	copy(nb, b)
	return nb
}

// readHeader parses a weight table into t, with scratch for the code
// lengths, and returns the bytes consumed.
func (t *Table) readHeader(src []byte, scratch *[256]uint8) (int, error) {
	if len(src) < 1 {
		return 0, ErrCorrupt
	}
	n := int(src[0]) + 1
	need := 1 + (n+1)/2
	if len(src) < need {
		return 0, ErrCorrupt
	}
	lengths := scratch[:n]
	for i := 0; i < n; i++ {
		b := src[1+i/2]
		var w byte
		if i%2 == 0 {
			w = b & 0xf
		} else {
			w = b >> 4
		}
		if w > MaxCodeLen+1 {
			return 0, ErrCorrupt
		}
		if w > 0 {
			lengths[i] = MaxCodeLen + 1 - w
		} else {
			lengths[i] = 0
		}
	}
	if err := t.init(lengths); err != nil {
		return 0, ErrCorrupt
	}
	return need, nil
}

// Compress is the scratch-reusing form of the package-level Compress.
func (s *Scratch) Compress(dst, src []byte) ([]byte, error) {
	if len(src) < 2 {
		return nil, ErrIncompressible
	}
	clear(s.freqs[:])
	for _, b := range src {
		s.freqs[b]++
	}
	distinct := 0
	for _, f := range s.freqs {
		if f > 0 {
			distinct++
		}
	}
	if distinct < 2 {
		return nil, ErrIncompressible // RLE territory
	}
	if err := s.build.BuildLengths(s.lengths[:], s.freqs[:], MaxCodeLen); err != nil {
		return nil, err
	}
	t := &s.table
	if err := t.init(s.lengths[:]); err != nil {
		return nil, err
	}
	payloadBits := t.EstimateSize(s.freqs[:])
	estimate := headerSize(t.maxSym) + (payloadBits+7)/8
	if estimate >= len(src) {
		return nil, ErrIncompressible
	}
	return s.encode1(t.AppendHeader(dst), src, t), nil
}

// encode1 appends src coded with t as one stream.
func (s *Scratch) encode1(dst, src []byte, t *Table) []byte {
	s.w64.ResetBuf(dst)
	encodeStream(&s.w64, t, src)
	return s.w64.Flush()
}

// CompressWith codes src with t and sends no header — one stream, or with
// four the four streams and jump table of Compress4 — for a decoder that
// already holds t (Table.Decode, Table.Decode4). It returns
// ErrIncompressible when t has no code for a byte of src, or four is set
// and src is shorter than Compress4 accepts.
func (s *Scratch) CompressWith(dst, src []byte, t *Table, four bool) ([]byte, error) {
	for _, b := range src {
		if t.lengths[b] == 0 {
			return dst, ErrIncompressible
		}
	}
	if !four {
		return s.encode1(dst, src, t), nil
	}
	if len(src) < minCompress4 {
		return dst, ErrIncompressible
	}
	return s.encode4(dst, src, t)
}

// MinSize returns a lower bound on the payload Compress (Compress4 when
// four) makes of src, or 0 when it refuses src outright: the weight header
// plus the entropy of src's byte histogram, which no prefix code beats. A
// caller holding another table compares against it before paying for a
// table build.
func (s *Scratch) MinSize(src []byte, four bool) int {
	if len(src) < 2 || four && len(src) < minCompress4 {
		return 0
	}
	clear(s.freqs[:])
	for _, b := range src {
		s.freqs[b]++
	}
	maxSym, distinct := 0, 0
	nlogn := fse.NLog2N(len(src))
	for sym, f := range s.freqs {
		if f > 0 {
			maxSym, distinct = sym, distinct+1
			nlogn -= fse.NLog2N(int(f))
		}
	}
	if distinct < 2 {
		return 0
	}
	size := headerSize(maxSym) + (int(nlogn)+7)/8
	if four {
		size += 6
	}
	return size
}

// Decompress is the scratch-reusing form of the package-level Decompress.
func (s *Scratch) Decompress(dst, src []byte, n int) ([]byte, error) {
	used, err := s.table.readHeader(src, &s.lengths)
	if err != nil {
		return nil, err
	}
	return s.table.Decode(dst, src[used:], n)
}

// Decode decodes n bytes that CompressWith coded with t as one stream,
// appending them to dst.
func (t *Table) Decode(dst, src []byte, n int) ([]byte, error) {
	base := len(dst)
	dst = grow(dst, n)
	if !decodeStream(dst[base:], t, src) {
		return nil, ErrCorrupt
	}
	return dst, nil
}

// decodeStream decodes len(out) symbols from one bitstream into out using
// the branch-reduced reader: one 8-byte refill per 4 symbols, no per-bit
// branches in the loop. Invalid table entries (packed value 0) set bit 15
// of the running e-1 accumulator, so corruption is detected with a single
// check per group instead of a branch per symbol; a stream that consumed
// more bits than it holds is caught by the final overrun check.
func decodeStream(out []byte, t *Table, stream []byte) bool {
	var r bits.Reader64
	r.Init(stream)
	dec := t.dec
	tlog := uint(t.tableLog)
	bad := uint16(0)
	i, n := 0, len(out)
	for ; i+4 <= n; i += 4 {
		r.Refill()
		e := dec[r.Peek(tlog)]
		r.Consume(uint(e & 0xf))
		out[i] = byte(e >> decEntryBits)
		bad |= e - 1
		e = dec[r.Peek(tlog)]
		r.Consume(uint(e & 0xf))
		out[i+1] = byte(e >> decEntryBits)
		bad |= e - 1
		e = dec[r.Peek(tlog)]
		r.Consume(uint(e & 0xf))
		out[i+2] = byte(e >> decEntryBits)
		bad |= e - 1
		e = dec[r.Peek(tlog)]
		r.Consume(uint(e & 0xf))
		out[i+3] = byte(e >> decEntryBits)
		bad |= e - 1
	}
	for ; i < n; i++ {
		r.Refill()
		e := dec[r.Peek(tlog)]
		r.Consume(uint(e & 0xf))
		out[i] = byte(e >> decEntryBits)
		bad |= e - 1
	}
	return bad&0x8000 == 0 && !r.Overrun()
}

// encodeStream emits src's codes into w as one LSB-first bitstream,
// grouping four codes (≤ 44 bits) per 8-byte carry.
func encodeStream(w *bits.Writer64, t *Table, src []byte) {
	i := 0
	for ; i+4 <= len(src); i += 4 {
		w.Add(uint64(t.codes[src[i]]), uint(t.lengths[src[i]]))
		w.Add(uint64(t.codes[src[i+1]]), uint(t.lengths[src[i+1]]))
		w.Add(uint64(t.codes[src[i+2]]), uint(t.lengths[src[i+2]]))
		w.Add(uint64(t.codes[src[i+3]]), uint(t.lengths[src[i+3]]))
		w.Carry()
	}
	for ; i < len(src); i++ {
		w.WriteBits(uint64(t.codes[src[i]]), uint(t.lengths[src[i]]))
	}
}

// minCompress4 is the smallest input Compress4 accepts: each of the four
// streams must hold at least one symbol and the 6-byte jump header has to
// amortize.
const minCompress4 = 16

// Compress4 encodes src with a single shared table into four independent
// bitstreams — one per quarter of the input — so the decoder can run four
// symbol chains in parallel (instruction-level, not goroutines). Layout:
//
//	weight-table header · 3×uint16 LE stream sizes · stream1..stream4
//
// The last stream's size is implied by the payload length. Streams cover
// ceil(n/4) symbols each except the fourth, which takes the remainder.
// Returns ErrIncompressible under the same policy as Compress.
func (s *Scratch) Compress4(dst, src []byte) ([]byte, error) {
	if len(src) < minCompress4 {
		return nil, ErrIncompressible
	}
	clear(s.freqs[:])
	for _, b := range src {
		s.freqs[b]++
	}
	distinct := 0
	for _, f := range s.freqs {
		if f > 0 {
			distinct++
		}
	}
	if distinct < 2 {
		return nil, ErrIncompressible // RLE territory
	}
	if err := s.build.BuildLengths(s.lengths[:], s.freqs[:], MaxCodeLen); err != nil {
		return nil, err
	}
	t := &s.table
	if err := t.init(s.lengths[:]); err != nil {
		return nil, err
	}
	payloadBits := t.EstimateSize(s.freqs[:])
	estimate := headerSize(t.maxSym) + 6 + (payloadBits+7)/8 + 3
	if estimate >= len(src) {
		return nil, ErrIncompressible
	}
	start := len(dst)
	dst, err := s.encode4(t.AppendHeader(dst), src, t)
	if err != nil {
		return nil, err
	}
	if len(dst)-start >= len(src) {
		// Return dst at its original length, not nil: the caller keeps the
		// capacity this attempt grew, so incompressible small payloads
		// don't reallocate the staging buffer every call.
		return dst[:start], ErrIncompressible
	}
	return dst, nil
}

// encode4 appends src coded with t as four streams behind their jump table.
func (s *Scratch) encode4(dst, src []byte, t *Table) ([]byte, error) {
	jump := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0)
	q := (len(src) + 3) / 4
	w := &s.w64
	for k := 0; k < 4; k++ {
		lo := k * q
		hi := lo + q
		if k == 3 {
			hi = len(src)
		}
		prev := len(dst)
		w.ResetBuf(dst)
		encodeStream(w, t, src[lo:hi])
		dst = w.Flush()
		if k < 3 {
			size := len(dst) - prev
			if size > 0xffff {
				return nil, fmt.Errorf("huffman: stream %d overflows jump table (%d bytes)", k, size)
			}
			dst[jump+2*k] = byte(size)
			dst[jump+2*k+1] = byte(size >> 8)
		}
	}
	return dst, nil
}

// Decompress4 decodes a payload produced by Compress4 into exactly n
// bytes appended to dst.
func (s *Scratch) Decompress4(dst, src []byte, n int) ([]byte, error) {
	used, err := s.table.readHeader(src, &s.lengths)
	if err != nil {
		return nil, err
	}
	return s.table.Decode4(dst, src[used:], n)
}

// Decode4 decodes n bytes that CompressWith coded with t as four streams,
// appending them to dst. The four streams are decoded in one interleaved
// loop, two symbols per stream per refill, so the four dependent-load
// chains overlap instead of serializing.
func (t *Table) Decode4(dst, src []byte, n int) ([]byte, error) {
	if n < 4 {
		return nil, ErrCorrupt
	}
	q := (n + 3) / 4
	n4 := n - 3*q
	if n4 <= 0 {
		return nil, ErrCorrupt
	}
	if len(src) < 6 {
		return nil, ErrCorrupt
	}
	sz1 := int(src[0]) | int(src[1])<<8
	sz2 := int(src[2]) | int(src[3])<<8
	sz3 := int(src[4]) | int(src[5])<<8
	const p = 6
	if p+sz1+sz2+sz3 > len(src) {
		return nil, ErrCorrupt
	}
	b1 := src[p : p+sz1]
	b2 := src[p+sz1 : p+sz1+sz2]
	b3 := src[p+sz1+sz2 : p+sz1+sz2+sz3]
	b4 := src[p+sz1+sz2+sz3:]

	base := len(dst)
	dst = grow(dst, n)
	out := dst[base:]
	o1, o2, o3, o4 := out[:q], out[q:2*q], out[2*q:3*q], out[3*q:]

	dec := t.dec
	tlog := uint(t.tableLog)
	var r1, r2, r3, r4 bits.Reader64
	r1.Init(b1)
	r2.Init(b2)
	r3.Init(b3)
	r4.Init(b4)

	// Interleaved main loop: bounded by the shortest stream (the fourth),
	// two symbols per stream per refill — 8 independent table lookups in
	// flight per iteration.
	bad := uint16(0)
	k := 0
	for ; k+2 <= n4; k += 2 {
		r1.Refill()
		r2.Refill()
		r3.Refill()
		r4.Refill()
		e := dec[r1.Peek(tlog)]
		r1.Consume(uint(e & 0xf))
		o1[k] = byte(e >> decEntryBits)
		bad |= e - 1
		e = dec[r2.Peek(tlog)]
		r2.Consume(uint(e & 0xf))
		o2[k] = byte(e >> decEntryBits)
		bad |= e - 1
		e = dec[r3.Peek(tlog)]
		r3.Consume(uint(e & 0xf))
		o3[k] = byte(e >> decEntryBits)
		bad |= e - 1
		e = dec[r4.Peek(tlog)]
		r4.Consume(uint(e & 0xf))
		o4[k] = byte(e >> decEntryBits)
		bad |= e - 1
		e = dec[r1.Peek(tlog)]
		r1.Consume(uint(e & 0xf))
		o1[k+1] = byte(e >> decEntryBits)
		bad |= e - 1
		e = dec[r2.Peek(tlog)]
		r2.Consume(uint(e & 0xf))
		o2[k+1] = byte(e >> decEntryBits)
		bad |= e - 1
		e = dec[r3.Peek(tlog)]
		r3.Consume(uint(e & 0xf))
		o3[k+1] = byte(e >> decEntryBits)
		bad |= e - 1
		e = dec[r4.Peek(tlog)]
		r4.Consume(uint(e & 0xf))
		o4[k+1] = byte(e >> decEntryBits)
		bad |= e - 1
	}
	if bad&0x8000 != 0 {
		return nil, ErrCorrupt
	}
	// Stream tails: at most 3 symbols each for streams 1-3 (their length
	// exceeds the fourth's by at most 3) plus the odd symbol of stream 4.
	if !finishStream(o1, k, &r1, dec, tlog) ||
		!finishStream(o2, k, &r2, dec, tlog) ||
		!finishStream(o3, k, &r3, dec, tlog) ||
		!finishStream(o4, k, &r4, dec, tlog) {
		return nil, ErrCorrupt
	}
	if r1.Overrun() || r2.Overrun() || r3.Overrun() || r4.Overrun() {
		return nil, ErrCorrupt
	}
	return dst, nil
}

// finishStream drains the last few symbols of one stream after the
// interleaved loop.
func finishStream(out []byte, k int, r *bits.Reader64, dec []uint16, tlog uint) bool {
	for ; k < len(out); k++ {
		r.Refill()
		e := dec[r.Peek(tlog)]
		if e == 0 {
			return false
		}
		r.Consume(uint(e & 0xf))
		out[k] = byte(e >> decEntryBits)
	}
	return true
}

// Compress Huffman-codes src, appending the table header and payload to dst.
// It returns ErrIncompressible when the encoded form (header included) would
// not be smaller than src, and an error when src is empty or single-symbol
// (callers handle those with raw/RLE block modes).
func Compress(dst, src []byte) ([]byte, error) {
	var s Scratch
	return s.Compress(dst, src)
}

// Decompress decodes a payload produced by Compress into exactly n bytes,
// appended to dst.
func Decompress(dst, src []byte, n int) ([]byte, error) {
	var s Scratch
	return s.Decompress(dst, src, n)
}

// Compress4 is the one-shot form of Scratch.Compress4.
func Compress4(dst, src []byte) ([]byte, error) {
	var s Scratch
	return s.Compress4(dst, src)
}

// Decompress4 is the one-shot form of Scratch.Decompress4.
func Decompress4(dst, src []byte, n int) ([]byte, error) {
	var s Scratch
	return s.Decompress4(dst, src, n)
}
