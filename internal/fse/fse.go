// Package fse implements Finite State Entropy coding (tANS), the entropy
// stage that distinguishes the Zstd-style codec from LZ4 in this repository.
//
// The construction follows the published Zstandard/FSE design: normalized
// symbol counts (power-of-two total) are spread over the state table with the
// prime-step walk, encoding runs back-to-front emitting variable bit counts
// per symbol, and decoding walks forward from a flushed final state read via
// a reverse bit stream. Payloads are self-describing: a one-byte table log
// followed by the bit-packed normalized counts, then the tANS bit stream.
//
// The tables are built from a byte Histogram whose counts Normalize scales
// to a power-of-two total, every present symbol keeping a nonzero slot.
// Tables support in-place reinitialization (EncTable.Init, DecTable.Init)
// and the Scratch type threads them plus the bit-stream state across blocks,
// so a warmed steady-state encoder or decoder performs zero heap
// allocations per payload.
package fse

import (
	"errors"
	"fmt"
	mathbits "math/bits"

	"github.com/datacomp/datacomp/internal/bits"
)

// ErrIncompressible is returned by Compress when FSE coding does not shrink
// the input.
var ErrIncompressible = errors.New("fse: input not compressible")

// ErrCorrupt is returned when a payload cannot be decoded.
var ErrCorrupt = errors.New("fse: corrupt payload")

// spreadInto distributes symbols over the state table using the FSE step
// walk, reusing table's capacity.
func spreadInto(table []byte, norm []uint16, tableLog uint) []byte {
	tableSize := 1 << tableLog
	if cap(table) < tableSize {
		table = make([]byte, tableSize)
	} else {
		table = table[:tableSize]
	}
	step := (tableSize >> 1) + (tableSize >> 3) + 3
	mask := tableSize - 1
	pos := 0
	for s, n := range norm {
		for i := 0; i < int(n); i++ {
			table[pos] = byte(s)
			pos = (pos + step) & mask
		}
	}
	return table
}

type symbolTransform struct {
	deltaNbBits    uint32
	deltaFindState int32
}

// EncTable is a prepared tANS encoding table. The zero value is empty;
// (re)initialize it with Init, which reuses the table's storage.
type EncTable struct {
	tableLog   uint
	stateTable []uint16 // next-state values, indexed by cumulative slot
	symbolTT   []symbolTransform
	norm       []uint16
	spread     []byte // scratch for the state-spread walk
}

// Init (re)builds the encoding table in place from normalized counts summing
// to 1<<tableLog, reusing all internal storage. A distribution giving the
// whole table to one symbol is rejected: callers should use RLE for
// single-symbol data. The table keeps a reference to norm.
func (t *EncTable) Init(norm []uint16, tableLog uint) error {
	if tableLog < MinTableLog || tableLog > MaxTableLog {
		return fmt.Errorf("fse: table log %d out of range", tableLog)
	}
	tableSize := uint32(1) << tableLog
	distinct := 0
	for _, n := range norm {
		if n > 0 {
			distinct++
		}
		if uint32(n) == tableSize {
			return errors.New("fse: single-symbol distribution (use RLE)")
		}
	}
	if distinct == 0 {
		return errors.New("fse: empty distribution")
	}
	t.spread = spreadInto(t.spread, norm, tableLog)

	t.tableLog = tableLog
	t.norm = norm
	if cap(t.stateTable) < int(tableSize) {
		t.stateTable = make([]uint16, tableSize)
	} else {
		t.stateTable = t.stateTable[:tableSize]
	}
	if cap(t.symbolTT) < len(norm) {
		t.symbolTT = make([]symbolTransform, len(norm))
	} else {
		t.symbolTT = t.symbolTT[:len(norm)]
	}
	// Cumulative slot index per symbol.
	var cumul [257]uint32
	var next [256]uint32
	for s, n := range norm {
		cumul[s+1] = cumul[s] + uint32(n)
	}
	copy(next[:len(norm)], cumul[:len(norm)])
	for u := uint32(0); u < tableSize; u++ {
		s := t.spread[u]
		t.stateTable[next[s]] = uint16(tableSize + u)
		next[s]++
	}
	total := int32(0)
	for s, n := range norm {
		switch n {
		case 0:
			t.symbolTT[s] = symbolTransform{}
		case 1:
			t.symbolTT[s] = symbolTransform{
				deltaNbBits:    uint32(tableLog)<<16 - tableSize,
				deltaFindState: total - 1,
			}
			total++
		default:
			maxBitsOut := uint32(tableLog) - uint32(mathbits.Len16(n-1)-1)
			minStatePlus := uint32(n) << maxBitsOut
			t.symbolTT[s] = symbolTransform{
				deltaNbBits:    maxBitsOut<<16 - minStatePlus,
				deltaFindState: total - int32(n),
			}
			total += int32(n)
		}
	}
	return nil
}

// encState carries the rolling tANS encoder state.
type encState struct {
	value uint32 // in [tableSize, 2*tableSize)
	t     *EncTable
}

// init positions the state to encode sym without emitting bits.
func (c *encState) init(t *EncTable, sym byte) {
	c.t = t
	tt := t.symbolTT[sym]
	nbBitsOut := (tt.deltaNbBits + (1 << 15)) >> 16
	value := (nbBitsOut << 16) - tt.deltaNbBits
	c.value = uint32(t.stateTable[int32(value>>nbBitsOut)+tt.deltaFindState])
}

// encode emits the transition bits for sym without carrying: the caller
// adds a bounded group of encodes between Carry calls.
func (c *encState) encode(w *bits.Writer64, sym byte) {
	tt := c.t.symbolTT[sym]
	nbBitsOut := (c.value + tt.deltaNbBits) >> 16
	w.Add(uint64(c.value), uint(nbBitsOut))
	c.value = uint32(c.t.stateTable[int32(c.value>>nbBitsOut)+tt.deltaFindState])
}

func (c *encState) flush(w *bits.Writer64) {
	w.WriteBits(uint64(c.value), c.t.tableLog)
}

type decEntry struct {
	newStateBase uint16
	symbol       byte
	nbBits       uint8
}

// DecTable is a prepared tANS decoding table. The zero value is empty;
// (re)initialize it with Init, which reuses the table's storage.
type DecTable struct {
	tableLog uint
	table    []decEntry
	spread   []byte // scratch for the state-spread walk
}

// Init (re)builds the decoding table in place from normalized counts,
// reusing all internal storage.
func (d *DecTable) Init(norm []uint16, tableLog uint) error {
	if tableLog < MinTableLog || tableLog > MaxTableLog {
		return fmt.Errorf("fse: table log %d out of range", tableLog)
	}
	tableSize := uint32(1) << tableLog
	sum := uint32(0)
	for _, n := range norm {
		sum += uint32(n)
	}
	if sum != tableSize {
		return ErrCorrupt
	}
	d.spread = spreadInto(d.spread, norm, tableLog)
	d.tableLog = tableLog
	if cap(d.table) < int(tableSize) {
		d.table = make([]decEntry, tableSize)
	} else {
		d.table = d.table[:tableSize]
	}
	var next [256]uint32
	for s, n := range norm {
		next[s] = uint32(n)
	}
	for u := uint32(0); u < tableSize; u++ {
		s := d.spread[u]
		x := next[s]
		next[s]++
		nbBits := uint8(tableLog) - uint8(mathbits.Len32(x)-1)
		d.table[u] = decEntry{
			newStateBase: uint16((x << nbBits) - tableSize),
			symbol:       s,
			nbBits:       nbBits,
		}
	}
	return nil
}

// encodeWith encodes syms with one tANS state and a prepared table,
// appending the raw bit stream (no table header) through w. Symbols are
// processed back-to-front per tANS; the decoder recovers them in forward
// order.
func encodeWith(w *bits.Writer64, t *EncTable, syms []byte) error {
	if len(syms) == 0 {
		return errors.New("fse: empty input")
	}
	if err := t.check(syms); err != nil {
		return err
	}
	var c encState
	c.init(t, syms[len(syms)-1])
	i := len(syms) - 1
	for ; i >= 4; i -= 4 {
		// Four symbols per carry: ≤ 4×tableLog ≤ 48 bits accumulated.
		c.encode(w, syms[i-1])
		c.encode(w, syms[i-2])
		c.encode(w, syms[i-3])
		c.encode(w, syms[i-4])
		w.Carry()
	}
	for ; i > 0; i-- {
		c.encode(w, syms[i-1])
	}
	c.flush(w)
	return nil
}

// check reports a symbol of syms that t has no state for.
func (t *EncTable) check(syms []byte) error {
	for _, s := range syms {
		if int(s) >= len(t.symbolTT) || t.norm[s] == 0 {
			return fmt.Errorf("fse: symbol %d not in table", s)
		}
	}
	return nil
}

// encodeWith2 encodes syms (len ≥ 2) with two interleaved tANS states —
// state1 carries the even input positions, state2 the odd ones — so the
// decoder can overlap the two dependent state-transition chains. Symbols
// are processed back-to-front; state2 is flushed before state1, so the
// decoder (reading in reverse write order) recovers state1 first. The raw
// bit stream (no table header) is appended through w.
func encodeWith2(w *bits.Writer64, t *EncTable, syms []byte) error {
	if len(syms) < 2 {
		return errors.New("fse: two-state encoding needs at least 2 symbols")
	}
	if err := t.check(syms); err != nil {
		return err
	}
	i := len(syms)
	var c1, c2 encState
	if i&1 == 1 {
		// Odd count: state1 ends up with one more symbol. Its extra encode
		// step keeps the decoder's strict 1-2-1-2 alternation intact.
		c1.init(t, syms[i-1])
		c2.init(t, syms[i-2])
		i -= 2
		c1.encode(w, syms[i-1])
		i--
		w.Carry()
	} else {
		c2.init(t, syms[i-1])
		c1.init(t, syms[i-2])
		i -= 2
	}
	for ; i >= 4; i -= 4 {
		// Two pairs per carry: ≤ 4×tableLog ≤ 48 bits accumulated.
		c2.encode(w, syms[i-1])
		c1.encode(w, syms[i-2])
		c2.encode(w, syms[i-3])
		c1.encode(w, syms[i-4])
		w.Carry()
	}
	if i > 0 {
		c2.encode(w, syms[i-1])
		c1.encode(w, syms[i-2])
		w.Carry()
	}
	c2.flush(w)
	c1.flush(w)
	return nil
}

// decodeWith2 decodes n symbols (n ≥ 2) produced by encodeWith2,
// appending to dst. Both states stay in registers; the reader is refilled
// once per decoded pair.
func decodeWith2(dst []byte, d *DecTable, r *bits.ReverseReader64, n int) ([]byte, error) {
	if n < 2 {
		return nil, ErrCorrupt
	}
	base := len(dst)
	dst = grow(dst, n)
	out := dst[base:]
	table := d.table
	tlog := d.tableLog
	st1 := r.ReadBits(tlog)
	st2 := r.ReadBits(tlog)
	i := 0
	// Two pairs per refill: 4 transitions × tableLog ≤ 12 = 48 bits ≤ 56.
	for ; i+4 <= n-2; i += 4 {
		r.Refill()
		e1 := table[st1]
		out[i] = e1.symbol
		st1 = uint64(e1.newStateBase) + r.ReadBits(uint(e1.nbBits))
		e2 := table[st2]
		out[i+1] = e2.symbol
		st2 = uint64(e2.newStateBase) + r.ReadBits(uint(e2.nbBits))
		e1 = table[st1]
		out[i+2] = e1.symbol
		st1 = uint64(e1.newStateBase) + r.ReadBits(uint(e1.nbBits))
		e2 = table[st2]
		out[i+3] = e2.symbol
		st2 = uint64(e2.newStateBase) + r.ReadBits(uint(e2.nbBits))
	}
	for ; i+2 <= n-2; i += 2 {
		r.Refill()
		e1 := table[st1]
		out[i] = e1.symbol
		st1 = uint64(e1.newStateBase) + r.ReadBits(uint(e1.nbBits))
		e2 := table[st2]
		out[i+1] = e2.symbol
		st2 = uint64(e2.newStateBase) + r.ReadBits(uint(e2.nbBits))
	}
	// The final symbol of each stream is carried entirely by its state.
	// Odd n: state1 holds one extra symbol, and the stream ends odd-even,
	// so the final pair comes state2-first.
	if n-i == 3 {
		r.Refill()
		e1 := table[st1]
		out[i] = e1.symbol
		st1 = uint64(e1.newStateBase) + r.ReadBits(uint(e1.nbBits))
		i++
		out[i] = table[st2].symbol
		out[i+1] = table[st1].symbol
	} else {
		out[i] = table[st1].symbol
		out[i+1] = table[st2].symbol
	}
	if r.Overrun() {
		return nil, ErrCorrupt
	}
	return dst, nil
}

// decodeWith is the single-state decode loop over the branch-reduced
// reverse reader, used by Scratch.Decompress (the serial dependent-load
// chain remains, but each step loses its per-bit refill branches).
func decodeWith(dst []byte, d *DecTable, r *bits.ReverseReader64, n int) ([]byte, error) {
	if n == 0 {
		return dst, nil
	}
	base := len(dst)
	dst = grow(dst, n)
	out := dst[base:]
	table := d.table
	st := r.ReadBits(d.tableLog)
	i := 0
	// Four symbols per refill: 4 transitions × tableLog ≤ 12 = 48 bits ≤ 56.
	for ; i+4 <= n-1; i += 4 {
		r.Refill()
		e := table[st]
		out[i] = e.symbol
		st = uint64(e.newStateBase) + r.ReadBits(uint(e.nbBits))
		e = table[st]
		out[i+1] = e.symbol
		st = uint64(e.newStateBase) + r.ReadBits(uint(e.nbBits))
		e = table[st]
		out[i+2] = e.symbol
		st = uint64(e.newStateBase) + r.ReadBits(uint(e.nbBits))
		e = table[st]
		out[i+3] = e.symbol
		st = uint64(e.newStateBase) + r.ReadBits(uint(e.nbBits))
	}
	for ; i+2 <= n-1; i += 2 {
		r.Refill()
		e := table[st]
		out[i] = e.symbol
		st = uint64(e.newStateBase) + r.ReadBits(uint(e.nbBits))
		e = table[st]
		out[i+1] = e.symbol
		st = uint64(e.newStateBase) + r.ReadBits(uint(e.nbBits))
	}
	if i < n-1 {
		r.Refill()
		e := table[st]
		out[i] = e.symbol
		st = uint64(e.newStateBase) + r.ReadBits(uint(e.nbBits))
		i++
	}
	out[i] = table[st].symbol
	if r.Overrun() {
		return nil, ErrCorrupt
	}
	return dst, nil
}

// grow extends b by n bytes without zero-filling, reusing capacity.
func grow(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b[:len(b)+n]
	}
	nb := make([]byte, len(b)+n, 2*len(b)+n)
	copy(nb, b)
	return nb
}

// writeNormHeader appends tableLog and the normalized counts to dst
// through w and returns the buffer. The counts are bit-packed with a
// shrinking width: each count is written in Len(remaining) bits where
// remaining is the number of unassigned slots, and the stream ends when
// remaining hits zero.
func writeNormHeader(w *bits.Writer64, dst []byte, norm []uint16, tableLog uint) []byte {
	w.ResetBuf(append(dst, byte(tableLog)))
	remaining := 1 << tableLog
	for _, n := range norm {
		w.WriteBits(uint64(n), uint(mathbits.Len32(uint32(remaining))))
		remaining -= int(n)
		if remaining == 0 {
			break
		}
	}
	return w.Flush()
}

// AppendNormHeader appends tableLog and the normalized counts in the header
// form Compress writes ahead of its stream.
func AppendNormHeader(dst []byte, norm []uint16, tableLog uint) []byte {
	var w bits.Writer64
	return writeNormHeader(&w, dst, norm, tableLog)
}

// ReadNormHeader parses a header AppendNormHeader wrote at the start of src,
// returning the counts, the table log and the bytes the header took.
func ReadNormHeader(src []byte) (norm []uint16, tableLog uint, consumed int, err error) {
	return readNormHeaderInto(nil, src)
}

// readNormHeaderInto parses a header, appending the counts to norm[:0] and
// returning the counts, table log and the number of bytes consumed. Reads
// past the end of src return zero bits; the overrun is checked once the
// counts are complete.
func readNormHeaderInto(scratch []uint16, src []byte) (norm []uint16, tableLog uint, consumed int, err error) {
	if len(src) < 2 {
		return nil, 0, 0, ErrCorrupt
	}
	tableLog = uint(src[0])
	if tableLog < MinTableLog || tableLog > MaxTableLog {
		return nil, 0, 0, ErrCorrupt
	}
	norm = scratch[:0]
	var r bits.Reader64
	r.Init(src[1:])
	remaining := 1 << tableLog
	for remaining > 0 {
		r.Refill()
		v := int(r.ReadBits(uint(mathbits.Len32(uint32(remaining)))))
		if v > remaining || len(norm) == 256 {
			return nil, 0, 0, ErrCorrupt
		}
		norm = append(norm, uint16(v))
		remaining -= v
	}
	if r.Overrun() {
		return nil, 0, 0, ErrCorrupt
	}
	return norm, tableLog, 1 + (r.BitsConsumed()+7)/8, nil
}

// Scratch owns the coding tables, normalized-count buffer and bit-stream
// state, so a warmed steady-state encoder or decoder performs zero heap
// allocations per payload. The zero value is ready to use; a Scratch is not
// safe for concurrent use.
type Scratch struct {
	enc  EncTable
	dec  DecTable
	norm []uint16
	w64  bits.Writer64
	rr64 bits.ReverseReader64
}

// Compress is the scratch-reusing form of the package-level Compress.
func (s *Scratch) Compress(dst, syms []byte, maxTableLog uint) ([]byte, error) {
	return s.compress(dst, syms, maxTableLog, false)
}

// Decompress is the scratch-reusing form of the package-level Decompress.
func (s *Scratch) Decompress(dst, src []byte, n int) ([]byte, error) {
	return s.decompress(dst, src, n, false)
}

// compress builds a table for syms and codes them behind its header with
// one tANS state, or with two the two interleaved states of Compress2.
func (s *Scratch) compress(dst, syms []byte, maxTableLog uint, two bool) ([]byte, error) {
	if len(syms) < 2 {
		return nil, ErrIncompressible
	}
	h := Count(syms)
	if h.IsSingleSymbol() {
		return nil, ErrIncompressible
	}
	tableLog := OptimalTableLog(&h, maxTableLog)
	norm, err := h.NormalizeInto(s.norm, tableLog)
	if err != nil {
		return nil, err
	}
	s.norm = norm
	if err := s.enc.Init(norm, tableLog); err != nil {
		return nil, err
	}
	start := len(dst)
	dst, err = s.CompressWith(writeNormHeader(&s.w64, dst, norm, tableLog), syms, &s.enc, two)
	if err != nil {
		return nil, err
	}
	if len(dst)-start >= len(syms) {
		// Return dst at its original length, not nil: the caller keeps the
		// capacity the attempt grew, so a workload of incompressible small
		// payloads doesn't reallocate the staging buffer on every call.
		return dst[:start], ErrIncompressible
	}
	return dst, nil
}

// decompress reads the table header at the start of src and decodes the
// n symbols of the stream behind it.
func (s *Scratch) decompress(dst, src []byte, n int, two bool) ([]byte, error) {
	norm, tableLog, consumed, err := readNormHeaderInto(s.norm, src)
	if err != nil {
		return nil, err
	}
	s.norm = norm
	if err := s.dec.Init(norm, tableLog); err != nil {
		return nil, err
	}
	return s.DecompressWith(dst, src[consumed:], n, &s.dec, two)
}

// CompressWith codes syms with t and sends no header — one tANS state, or
// with two the two interleaved states of Compress2 — for a decoder that
// already holds the table (DecompressWith). It returns ErrIncompressible
// when t has no state for a symbol of syms, or two is set and syms is
// shorter than 2.
func (s *Scratch) CompressWith(dst, syms []byte, t *EncTable, two bool) ([]byte, error) {
	encode := encodeWith
	if two {
		encode = encodeWith2
	}
	s.w64.ResetBuf(dst)
	if err := encode(&s.w64, t, syms); err != nil {
		return dst, ErrIncompressible
	}
	return s.w64.FlushMarker(), nil
}

// DecompressWith decodes n symbols that CompressWith coded with the table d
// decodes, appending them to dst.
func (s *Scratch) DecompressWith(dst, src []byte, n int, d *DecTable, two bool) ([]byte, error) {
	if err := s.rr64.Init(src); err != nil {
		return nil, ErrCorrupt
	}
	if two {
		return decodeWith2(dst, d, &s.rr64, n)
	}
	return decodeWith(dst, d, &s.rr64, n)
}

// MinSize returns a lower bound on the payload Compress or Compress2 makes
// of syms, or 0 when they refuse syms outright: the shortest header the
// table they would build can have, plus the entropy of syms' histogram and
// the stream's marker bit. (A tANS stream matches the entropy of its
// table's distribution up to the states it flushes, which cover the symbols
// each state takes without emitting bits; no table's distribution beats the
// histogram's own.) A caller holding another table compares against it
// before paying for a table build.
func (s *Scratch) MinSize(syms []byte, maxTableLog uint) int {
	if len(syms) < 2 {
		return 0
	}
	h := Count(syms)
	if h.IsSingleSymbol() {
		return 0
	}
	// Each count up to the last present symbol takes Len(remaining) bits:
	// tableLog+1 for the first, and for the others at least the length of
	// the number of present symbols from there on.
	hdrBits := int(OptimalTableLog(&h, maxTableLog)) + 1
	left := h.Distinct()
	for sym := 0; sym < h.MaxSymbol; sym++ {
		if h.Counts[sym] > 0 {
			left--
		}
		hdrBits += mathbits.Len32(uint32(left))
	}
	return 1 + (hdrBits+7)/8 + (int(h.EstimateCompressedBits())+1+7)/8
}

// Compress2 entropy-codes syms with two interleaved tANS states into a
// self-describing payload appended to dst. The header format matches
// Compress (table log byte + bit-packed normalized counts); only the bit
// stream differs, so the payload must be decoded with Decompress2.
func (s *Scratch) Compress2(dst, syms []byte, maxTableLog uint) ([]byte, error) {
	return s.compress(dst, syms, maxTableLog, true)
}

// Decompress2 decodes a payload produced by Compress2 into exactly n
// symbols appended to dst.
func (s *Scratch) Decompress2(dst, src []byte, n int) ([]byte, error) {
	return s.decompress(dst, src, n, true)
}

// Compress entropy-codes syms into a self-describing payload appended to
// dst. It returns ErrIncompressible when coding would not shrink the input
// and an error for empty or single-symbol input (handle those as raw/RLE).
func Compress(dst, syms []byte, maxTableLog uint) ([]byte, error) {
	var s Scratch
	return s.Compress(dst, syms, maxTableLog)
}

// Decompress decodes a payload produced by Compress into exactly n symbols
// appended to dst.
func Decompress(dst, src []byte, n int) ([]byte, error) {
	var s Scratch
	return s.Decompress(dst, src, n)
}

// Compress2 is the one-shot form of Scratch.Compress2.
func Compress2(dst, syms []byte, maxTableLog uint) ([]byte, error) {
	var s Scratch
	return s.Compress2(dst, syms, maxTableLog)
}

// Decompress2 is the one-shot form of Scratch.Decompress2.
func Decompress2(dst, src []byte, n int) ([]byte, error) {
	var s Scratch
	return s.Decompress2(dst, src, n)
}
