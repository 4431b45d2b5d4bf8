// Package zlibx implements a DEFLATE-style codec: LZ77 over a 32 KiB window
// (minimum match 3, maximum 258) followed by dynamic canonical Huffman
// coding of a merged literal/length alphabet and a distance alphabet.
//
// In the reproduced paper's taxonomy this is the "non-LZ-entropy" legacy
// codec (Zlib): it shares the LZ match-finding stage with LZ4 and the
// Zstd-style codec but uses Huffman for everything — no FSE — which places
// it between the two in ratio and last in decompression speed. Levels 0-9
// mirror zlib: 0 stores, 1 is fastest, 9 searches hardest. The container is
// this repository's own (DEFLATE's alphabets, not its exact bitstream).
package zlibx

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/datacomp/datacomp/internal/bits"
	"github.com/datacomp/datacomp/internal/huffman"
	"github.com/datacomp/datacomp/internal/lz"
	"github.com/datacomp/datacomp/internal/wildcopy"
)

// Level bounds. Level 0 stores blocks uncompressed.
const (
	MinLevel = 0
	MaxLevel = 9
)

// ErrCorrupt is returned for undecodable payloads.
var ErrCorrupt = errors.New("zlibx: corrupt payload")

const (
	eobSym      = 256 // end-of-block symbol in the lit/len alphabet
	firstLenSym = 257
	numLitLen   = 286 // 0..285
	numDist     = 30
	minMatch    = 3
	maxMatch    = 258
	windowLog   = 15
	maxCodeBits = 12      // this container limits codes to 12 bits
	blockSize   = 1 << 16 // input chunk per dynamic-table block
	typeStored  = 0
	typeDynamic = 1
)

var lengthBase = [29]uint16{
	3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31,
	35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258,
}

var lengthExtra = [29]uint8{
	0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2,
	3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
}

var distBase = [30]uint16{
	1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193,
	257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
}

var distExtra = [30]uint8{
	0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6,
	7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13,
}

// lengthCodeTab maps matchLen-3 (0..255) to a length code index (0..28).
var lengthCodeTab [256]uint8

// distCodeTab maps offsets: index [0,256) holds codes for offsets 1..256;
// index [256,512) holds codes for (offset-1)>>7 when offset > 256.
var distCodeTab [512]uint8

func init() {
	for c := len(lengthBase) - 1; c >= 0; c-- {
		lo := int(lengthBase[c]) - minMatch
		hi := lo + 1<<lengthExtra[c]
		for v := lo; v < hi && v < 256; v++ {
			lengthCodeTab[v] = uint8(c)
		}
	}
	// Length 258 has its own zero-extra code (28); make sure it wins.
	lengthCodeTab[maxMatch-minMatch] = 28
	for c := 0; c < len(distBase); c++ {
		lo := int(distBase[c])
		hi := lo + 1<<distExtra[c]
		for off := lo; off < hi && off <= 1<<windowLog; off++ {
			if off <= 256 {
				distCodeTab[off-1] = uint8(c)
			} else {
				distCodeTab[256+(off-1)>>7] = uint8(c)
			}
		}
	}
}

func lengthCode(matchLen int) uint8 { return lengthCodeTab[matchLen-minMatch] }

func distCode(offset int) uint8 {
	if offset <= 256 {
		return distCodeTab[offset-1]
	}
	return distCodeTab[256+(offset-1)>>7]
}

// params maps levels 1..9 to match-finder settings, following zlib's
// fast→lazy progression.
func params(level int) lz.Params {
	p := lz.Params{
		WindowLog: windowLog,
		MinMatch:  minMatch,
		MaxMatch:  maxMatch,
		SkipStep:  1,
	}
	switch {
	case level <= 2:
		p.Strategy = lz.Fast
		p.HashLog = 12 + uint(level) // 13, 14
	case level <= 5:
		p.Strategy = lz.Greedy
		p.HashLog = 15
		p.ChainLog = 15
		p.Depth = 8 << uint(level-3) // 8, 16, 32
	default:
		p.Strategy = lz.Lazy
		if level >= 8 {
			p.Strategy = lz.Lazy2
		}
		p.HashLog = 15
		p.ChainLog = 15
		p.Depth = 32 << uint(level-6) // 32 .. 256
	}
	return p
}

// Encoder compresses at a fixed level. Not safe for concurrent use.
type Encoder struct {
	level   int
	matcher *lz.Matcher // nil for level 0
	seqs    []lz.Sequence

	// Entropy-stage scratch, reused across blocks so a warmed encoder
	// performs zero heap allocations per payload.
	build      huffman.BuildScratch
	litLenFreq [numLitLen]uint32
	distFreq   [numDist]uint32
	litLens    [numLitLen]uint8
	distLens   [numDist]uint8
	litCodes   [numLitLen]uint32
	distCodes  [numDist]uint32
	w          bits.Writer64
}

// NewEncoder returns an encoder for the given level.
func NewEncoder(level int) (*Encoder, error) {
	if level < MinLevel || level > MaxLevel {
		return nil, fmt.Errorf("zlibx: level %d out of range [%d,%d]", level, MinLevel, MaxLevel)
	}
	e := &Encoder{level: level}
	if level > 0 {
		m, err := lz.NewMatcher(params(level))
		if err != nil {
			return nil, err
		}
		e.matcher = m
	}
	return e, nil
}

// Level returns the encoder's compression level.
func (e *Encoder) Level() int { return e.level }

// Compress appends a self-describing payload to dst.
func (e *Encoder) Compress(dst, src []byte) ([]byte, error) {
	var tmp [binary.MaxVarintLen64]byte
	dst = append(dst, tmp[:binary.PutUvarint(tmp[:], uint64(len(src)))]...)
	if len(src) == 0 {
		return append(dst, typeStored<<1|1, 0), nil
	}
	for start := 0; start < len(src); start += blockSize {
		end := start + blockSize
		if end > len(src) {
			end = len(src)
		}
		last := end == len(src)
		var err error
		dst, err = e.compressBlock(dst, src, start, end, last)
		if err != nil {
			return nil, err
		}
	}
	return dst, nil
}

func storedBlock(dst []byte, content []byte, last bool) []byte {
	hdr := byte(typeStored << 1)
	if last {
		hdr |= 1
	}
	var tmp [binary.MaxVarintLen64]byte
	dst = append(dst, hdr)
	dst = append(dst, tmp[:binary.PutUvarint(tmp[:], uint64(len(content)))]...)
	return append(dst, content...)
}

func (e *Encoder) compressBlock(dst, src []byte, start, end int, last bool) ([]byte, error) {
	content := src[start:end]
	if e.level == 0 {
		return storedBlock(dst, content, last), nil
	}
	// History is limited to the window preceding the block.
	base := start - 1<<windowLog
	if base < 0 {
		base = 0
	}
	e.seqs = e.matcher.Parse(e.seqs[:0], src[base:end], start-base)
	payload, err := e.encodeDynamic(content, e.seqs)
	if err != nil {
		return nil, err
	}
	if payload == nil || len(payload) >= len(content) {
		return storedBlock(dst, content, last), nil
	}
	hdr := byte(typeDynamic << 1)
	if last {
		hdr |= 1
	}
	var tmp [binary.MaxVarintLen64]byte
	dst = append(dst, hdr)
	dst = append(dst, tmp[:binary.PutUvarint(tmp[:], uint64(len(payload)))]...)
	return append(dst, payload...), nil
}

// writeTable serializes code lengths: 1-bit flag then either a 4-bit length
// or a 6-bit zero-run (1..64).
func writeTable(w *bits.Writer64, lengths []uint8) {
	i := 0
	for i < len(lengths) {
		if lengths[i] == 0 {
			run := 1
			for i+run < len(lengths) && lengths[i+run] == 0 && run < 64 {
				run++
			}
			w.WriteBits(1, 1)
			w.WriteBits(uint64(run-1), 6)
			i += run
			continue
		}
		w.WriteBits(0, 1)
		w.WriteBits(uint64(lengths[i]), 4)
		i++
	}
}

// readTable deserializes n code lengths into lengths (len(lengths) == n).
func readTable(r *bits.Reader64, lengths []uint8) error {
	i := 0
	for i < len(lengths) {
		r.Refill() // ≤11 bits per iteration
		if r.Overrun() {
			return ErrCorrupt
		}
		if r.ReadBits(1) == 1 {
			run := int(r.ReadBits(6))
			for k := 0; k <= run && i < len(lengths); k++ {
				lengths[i] = 0
				i++
			}
			continue
		}
		lengths[i] = uint8(r.ReadBits(4))
		i++
	}
	return nil
}

// encodeDynamic serializes one dynamic-Huffman block. Returns nil when the
// alphabet degenerates (e.g. a single distinct token), signalling the caller
// to store the block.
func (e *Encoder) encodeDynamic(content []byte, seqs []lz.Sequence) ([]byte, error) {
	// Histogram both alphabets.
	litLenFreq := e.litLenFreq[:]
	distFreq := e.distFreq[:]
	for i := range litLenFreq {
		litLenFreq[i] = 0
	}
	for i := range distFreq {
		distFreq[i] = 0
	}
	pos := 0
	hasMatch := false
	for _, s := range seqs {
		for _, b := range content[pos : pos+int(s.LitLen)] {
			litLenFreq[b]++
		}
		pos += int(s.LitLen) + int(s.MatchLen)
		if s.MatchLen > 0 {
			hasMatch = true
			litLenFreq[firstLenSym+int(lengthCode(int(s.MatchLen)))]++
			distFreq[distCode(int(s.Offset))]++
		}
	}
	if pos != len(content) {
		return nil, fmt.Errorf("zlibx: internal: parse covers %d of %d bytes", pos, len(content))
	}
	litLenFreq[eobSym]++

	litLens := e.litLens[:]
	litCodes := e.litCodes[:]
	if err := e.build.BuildLengths(litLens, litLenFreq, maxCodeBits); err != nil {
		return nil, err
	}
	if err := huffman.CanonicalCodesInto(litCodes, litLens); err != nil {
		return nil, err
	}
	distLens := e.distLens[:]
	distCodes := e.distCodes[:]
	if hasMatch {
		if err := e.build.BuildLengths(distLens, distFreq, maxCodeBits); err != nil {
			return nil, err
		}
		if err := huffman.CanonicalCodesInto(distCodes, distLens); err != nil {
			return nil, err
		}
	} else {
		for i := range distLens {
			distLens[i] = 0
		}
	}

	w := &e.w
	w.Reset()
	writeTable(w, litLens)
	writeTable(w, distLens)

	emit := func(codes []uint32, lens []uint8, sym int) {
		w.WriteBits(uint64(huffman.ReverseBits(codes[sym], lens[sym])), uint(lens[sym]))
	}
	pos = 0
	for _, s := range seqs {
		for _, b := range content[pos : pos+int(s.LitLen)] {
			emit(litCodes, litLens, int(b))
		}
		pos += int(s.LitLen) + int(s.MatchLen)
		if s.MatchLen == 0 {
			continue
		}
		// One match token is ≤42 bits (12+5+12+13); after a Carry the
		// accumulator holds <8, so the whole group fits one carry cycle.
		w.Carry()
		lc := lengthCode(int(s.MatchLen))
		ls := firstLenSym + int(lc)
		w.Add(uint64(huffman.ReverseBits(litCodes[ls], litLens[ls])), uint(litLens[ls]))
		w.Add(uint64(int(s.MatchLen)-int(lengthBase[lc])), uint(lengthExtra[lc]))
		dc := distCode(int(s.Offset))
		w.Add(uint64(huffman.ReverseBits(distCodes[dc], distLens[dc])), uint(distLens[dc]))
		w.Add(uint64(int(s.Offset)-int(distBase[dc])), uint(distExtra[dc]))
		w.Carry()
	}
	emit(litCodes, litLens, eobSym)
	return w.Flush(), nil
}

// decTable is a flat lookup decoder for ≤maxCodeBits codes. The zero value
// is empty; (re)build it with init, which reuses the entry slab.
type decTable struct {
	entries []uint32 // sym<<8 | len; len 0 = invalid
}

// init (re)builds the lookup table in place from code lengths. codes is
// caller-provided scratch with len(codes) ≥ len(lengths).
func (t *decTable) init(lengths []uint8, codes []uint32) error {
	if err := huffman.CanonicalCodesInto(codes[:len(lengths)], lengths); err != nil {
		return err
	}
	if cap(t.entries) < 1<<maxCodeBits {
		t.entries = make([]uint32, 1<<maxCodeBits)
	} else {
		t.entries = t.entries[:1<<maxCodeBits]
		clear(t.entries)
	}
	for sym, l := range lengths {
		if l == 0 {
			continue
		}
		if l > maxCodeBits {
			return ErrCorrupt
		}
		rev := huffman.ReverseBits(codes[sym], l)
		step := uint32(1) << l
		for idx := rev; idx < 1<<maxCodeBits; idx += step {
			t.entries[idx] = uint32(sym)<<8 | uint32(l)
		}
	}
	return nil
}

// decode reads one symbol with the branch-reduced peek/consume split; a
// false second return marks an invalid code. The caller refills the
// reader and checks Overrun once per token.
func (t *decTable) decode(r *bits.Reader64) (int, bool) {
	e := t.entries[r.Peek(maxCodeBits)]
	l := e & 0xff
	r.Consume(uint(l))
	return int(e >> 8), l != 0
}

// Decoder decompresses payloads, reusing its Huffman lookup tables and
// length scratch across calls so a warmed Decoder performs zero heap
// allocations per payload. The zero value is ready to use; a Decoder is not
// safe for concurrent use.
type Decoder struct {
	litTab   decTable
	distTab  decTable
	litLens  [numLitLen]uint8
	distLens [numDist]uint8
	codes    [numLitLen]uint32 // canonical-code scratch for table builds
}

// NewDecoder returns an empty Decoder.
func NewDecoder() *Decoder { return &Decoder{} }

// Decompress decodes a payload produced by Compress, appending to dst.
func Decompress(dst, src []byte) ([]byte, error) {
	var d Decoder
	return d.Decompress(dst, src)
}

// Decompress decodes a payload produced by Compress, appending to dst.
func (d *Decoder) Decompress(dst, src []byte) ([]byte, error) {
	contentSize, n := binary.Uvarint(src)
	if n <= 0 || contentSize > 1<<31 {
		return nil, ErrCorrupt
	}
	pos := n
	base := len(dst)
	out := dst
	for {
		if pos >= len(src) {
			return nil, ErrCorrupt
		}
		hdr := src[pos]
		pos++
		last := hdr&1 != 0
		typ := int(hdr >> 1)
		switch typ {
		case typeStored:
			sz, k := binary.Uvarint(src[pos:])
			if k <= 0 || pos+k+int(sz) > len(src) {
				return nil, ErrCorrupt
			}
			pos += k
			out = append(out, src[pos:pos+int(sz)]...)
			pos += int(sz)
		case typeDynamic:
			sz, k := binary.Uvarint(src[pos:])
			if k <= 0 || pos+k+int(sz) > len(src) {
				return nil, ErrCorrupt
			}
			pos += k
			var err error
			out, err = d.decodeDynamic(out, base, src[pos:pos+int(sz)])
			if err != nil {
				return nil, err
			}
			pos += int(sz)
		default:
			return nil, ErrCorrupt
		}
		if len(out)-base > int(contentSize) {
			return nil, ErrCorrupt
		}
		if last {
			break
		}
	}
	if len(out)-base != int(contentSize) {
		return nil, ErrCorrupt
	}
	if pos != len(src) {
		return nil, ErrCorrupt
	}
	return out, nil
}

func (d *Decoder) decodeDynamic(out []byte, base int, payload []byte) ([]byte, error) {
	var rv bits.Reader64
	rv.Init(payload)
	r := &rv
	if err := readTable(r, d.litLens[:]); err != nil {
		return nil, err
	}
	if err := readTable(r, d.distLens[:]); err != nil {
		return nil, err
	}
	if err := d.litTab.init(d.litLens[:], d.codes[:]); err != nil {
		return nil, ErrCorrupt
	}
	var distTab *decTable
	hasDist := false
	for _, l := range d.distLens {
		if l > 0 {
			hasDist = true
			break
		}
	}
	if hasDist {
		if err := d.distTab.init(d.distLens[:], d.codes[:]); err != nil {
			return nil, ErrCorrupt
		}
		distTab = &d.distTab
	}
	litTab := &d.litTab
	for {
		// One refill covers a whole token: literal ≤12 bits, match ≤42
		// (12+5+12+13). The per-iteration Overrun check terminates corrupt
		// streams whose zero-extended tail keeps decoding as valid codes.
		r.Refill()
		if r.Overrun() {
			return nil, ErrCorrupt
		}
		sym, ok := litTab.decode(r)
		if !ok {
			return nil, ErrCorrupt
		}
		switch {
		case sym < 256:
			out = append(out, byte(sym))
		case sym == eobSym:
			if r.Overrun() {
				return nil, ErrCorrupt
			}
			return out, nil
		default:
			lc := sym - firstLenSym
			if lc >= len(lengthBase) {
				return nil, ErrCorrupt
			}
			matchLen := int(lengthBase[lc]) + int(r.ReadBits(uint(lengthExtra[lc])))
			if distTab == nil {
				return nil, ErrCorrupt
			}
			dc, ok := distTab.decode(r)
			if !ok {
				return nil, ErrCorrupt
			}
			offset := int(distBase[dc]) + int(r.ReadBits(uint(distExtra[dc])))
			if offset > len(out)-base {
				return nil, ErrCorrupt
			}
			// DEFLATE doesn't carry the decompressed size, so there is no
			// one-shot slack reservation; wildcopy.Match grows as it goes.
			out = wildcopy.Match(out, offset, matchLen)
		}
	}
}
