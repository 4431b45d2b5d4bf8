package zstd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"

	"github.com/datacomp/datacomp/internal/bits"
	"github.com/datacomp/datacomp/internal/fse"
	"github.com/datacomp/datacomp/internal/huffman"
	"github.com/datacomp/datacomp/internal/lz"
	"github.com/datacomp/datacomp/internal/wildcopy"
)

// Frame constants. Version 2 frames may carry the multi-stream entropy
// sections (4-stream Huffman literals, 2-state FSE sequence streams);
// version 3 frames, coded against a dictionary that carries entropy tables
// (dict.go), may also code a section with those tables. Version 1 frames
// are still decoded for backward compatibility.
var (
	frameMagicV1 = [4]byte{'Z', 'S', 'X', '1'}
	frameMagicV2 = [4]byte{'Z', 'S', 'X', '2'}
	frameMagicV3 = [4]byte{'Z', 'S', 'X', '3'}
)

const (
	flagDict     = 1 << 0
	flagChecksum = 1 << 1
)

// Block types.
const (
	blockRaw = iota
	blockRLE
	blockCompressed
)

// Literal-section modes. litsHuff4 (4 independent bitstreams sharing one
// table) only appears in version ≥2 frames; litsDict and litsDict4 are
// litsHuff and litsHuff4 coded with the dictionary's table and no header,
// and only appear in version 3 frames.
const (
	litsRaw = iota
	litsRLE
	litsHuff
	litsHuff4
	litsDict
	litsDict4
)

// Sequence-stream modes. seqFSE2 (two interleaved tANS states) only
// appears in version ≥2 frames.
const (
	seqFSE = iota
	seqRLE
	seqRaw
	seqFSE2
)

// seqDictBit, set in a version 3 frame's sequence mode byte, codes every
// seqFSE and seqFSE2 stream of the block with the dictionary's table for
// its code and no header.
const seqDictBit = 1 << 6

// seqTableLog is the FSE table size for sequence code streams.
const seqTableLog = 9

// Multi-stream thresholds: below these sizes the split/jump-header overhead
// and the second-state flush outweigh the decode-ILP win.
const (
	huff4MinLits = 1024
	fse2MinSeqs  = 16
)

// Options configure an Encoder.
type Options struct {
	// Level selects the speed/ratio trade-off, MinLevel..MaxLevel.
	// 0 means DefaultLevel.
	Level int
	// WindowLog overrides the level's match window (MinWindowLog..
	// MaxWindowLog). 0 keeps the level default. This is the knob the
	// paper's sensitivity study 3 sweeps for hardware sizing.
	WindowLog uint
	// Dict is a dictionary shared out-of-band with the decompressor, the
	// mechanism behind the paper's small-item cache compression (§IV-C): a
	// content prefix, or one TrainTables made, which also carries entropy
	// tables (dict.go).
	Dict []byte
	// Checksum appends an FNV-64a of the content to the frame.
	Checksum bool
}

// DictID identifies dictionary content; frames record it so decompression
// with a mismatched dictionary fails cleanly.
func DictID(dict []byte) uint32 {
	if len(dict) == 0 {
		return 0
	}
	h := fnv.New32a()
	h.Write(dict)
	return h.Sum32()
}

// Encoder compresses frames at a fixed configuration. Not safe for
// concurrent use.
type Encoder struct {
	opts     Options
	base     levelParams
	dictID   uint32
	content  []byte // the dictionary's content: the history every frame starts from
	matchers map[lz.Params]*lz.Matcher
	lastP    lz.Params
	lastM    *lz.Matcher

	seqs []lz.Sequence
	lits []byte
	llc  []byte
	ofc  []byte
	mlc  []byte
	work []byte

	// Entropy-stage scratch, reused across blocks so a warmed encoder
	// performs zero heap allocations per frame.
	huff    huffman.Scratch
	fseSc   fse.Scratch
	extras  bits.Writer64
	payload []byte
	litEnc  []byte
	seqEnc  [3][]byte

	// The dictionary's tables, built once (dictLits nil: it carries none),
	// and the sections coded with them, kept apart from the ones coded with
	// tables built for the block so the smaller can be sent.
	dictLits *huffman.Table
	dictSeq  [3]fse.EncTable
	litAlt   []byte
	seqAlt   [3][]byte
}

// NewEncoder validates opts and returns an Encoder.
func NewEncoder(opts Options) (*Encoder, error) {
	if opts.Level == 0 {
		opts.Level = DefaultLevel
	}
	base, err := paramsForLevel(opts.Level)
	if err != nil {
		return nil, err
	}
	if opts.WindowLog != 0 && (opts.WindowLog < MinWindowLog || opts.WindowLog > MaxWindowLog) {
		return nil, fmt.Errorf("zstd: window log %d out of range [%d,%d]", opts.WindowLog, MinWindowLog, MaxWindowLog)
	}
	content, tables, err := parseDict(opts.Dict)
	if err != nil {
		return nil, err
	}
	e := &Encoder{
		opts:     opts,
		base:     base,
		dictID:   DictID(opts.Dict),
		content:  content,
		matchers: make(map[lz.Params]*lz.Matcher),
	}
	if tables != nil {
		e.dictLits = tables.lits
		for i := range e.dictSeq {
			if err := e.dictSeq[i].Init(tables.norm[i], tables.log[i]); err != nil {
				return nil, fmt.Errorf("%w: dictionary sequence table %d: %v", ErrCorrupt, i, err)
			}
		}
	}
	return e, nil
}

// Options returns the encoder's configuration.
func (e *Encoder) Options() Options { return e.opts }

func (e *Encoder) matcher(srcLen int) (*lz.Matcher, error) {
	p := adaptParams(e.base, srcLen, e.opts.WindowLog)
	// Same-shape payloads (a batch of cache items, RPC bodies) resolve to
	// the same adapted params; the one-entry cache skips the map hash on
	// that path, which is measurable at small payload sizes.
	if p == e.lastP && e.lastM != nil {
		return e.lastM, nil
	}
	m, ok := e.matchers[p]
	if !ok {
		var err error
		m, err = lz.NewMatcher(p)
		if err != nil {
			return nil, err
		}
		m.SetDict(e.content)
		e.matchers[p] = m
	}
	e.lastP, e.lastM = p, m
	return m, nil
}

// Compress appends a complete frame holding src to dst.
func (e *Encoder) Compress(dst, src []byte) ([]byte, error) {
	if e.dictLits != nil {
		dst = append(dst, frameMagicV3[:]...)
	} else {
		dst = append(dst, frameMagicV2[:]...)
	}
	flags := byte(0)
	if len(e.opts.Dict) > 0 {
		flags |= flagDict
	}
	if e.opts.Checksum {
		flags |= flagChecksum
	}
	dst = append(dst, flags)
	var tmp [binary.MaxVarintLen64]byte
	dst = append(dst, tmp[:binary.PutUvarint(tmp[:], uint64(len(src)))]...)
	if flags&flagDict != 0 {
		dst = binary.LittleEndian.AppendUint32(dst, e.dictID)
	}

	// Work buffer: dictionary content acts as parse history.
	buf := src
	start := 0
	if len(e.content) > 0 {
		e.work = append(e.work[:0], e.content...)
		e.work = append(e.work, src...)
		buf = e.work
		start = len(e.content)
	}

	if len(src) == 0 {
		dst = appendBlockHeader(dst, true, blockRaw, 0)
	}
	for blockStart := start; blockStart < len(buf); blockStart += MaxBlockSize {
		blockEnd := blockStart + MaxBlockSize
		if blockEnd > len(buf) {
			blockEnd = len(buf)
		}
		last := blockEnd == len(buf)
		var err error
		dst, err = e.compressBlock(dst, buf, blockStart, blockEnd, last)
		if err != nil {
			return nil, err
		}
	}
	if e.opts.Checksum {
		dst = binary.LittleEndian.AppendUint64(dst, fnv64a(src))
	}
	return dst, nil
}

// fnv64a is an inline FNV-64a so checksumming does not allocate a
// hash.Hash64 per frame (hash/fnv's constructor escapes to the heap).
func fnv64a(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// appendBlockHeader writes the 3-byte block header:
// bit0 last, bits1-2 type, bits3-23 size.
func appendBlockHeader(dst []byte, last bool, typ, size int) []byte {
	v := uint32(size) << 3
	v |= uint32(typ) << 1
	if last {
		v |= 1
	}
	return append(dst, byte(v), byte(v>>8), byte(v>>16))
}

func allSame(b []byte) bool {
	for i := 1; i < len(b); i++ {
		if b[i] != b[0] {
			return false
		}
	}
	return true
}

func (e *Encoder) compressBlock(dst, buf []byte, blockStart, blockEnd int, last bool) ([]byte, error) {
	content := buf[blockStart:blockEnd]
	if len(content) >= 16 && allSame(content) {
		dst = appendBlockHeader(dst, last, blockRLE, len(content))
		return append(dst, content[0]), nil
	}

	// Stage 1: match finding over the window preceding the block.
	m, err := e.matcher(blockEnd - blockStart)
	if err != nil {
		return nil, err
	}
	e.parse(m, buf, blockStart, blockEnd)

	// Stage 2: entropy coding.
	payload, err := e.encodeBlockPayload(content)
	if err != nil {
		return nil, err
	}
	if payload == nil || len(payload) >= len(content) {
		dst = appendBlockHeader(dst, last, blockRaw, len(content))
		return append(dst, content...), nil
	}
	dst = appendBlockHeader(dst, last, blockCompressed, len(payload))
	return append(dst, payload...), nil
}

// parse finds the matches of buf[blockStart:blockEnd] with m, over the
// window preceding the block, into e.seqs. The first block's window is the
// dictionary content's tail, which m has indexed once (lz.Matcher.SetDict).
func (e *Encoder) parse(m *lz.Matcher, buf []byte, blockStart, blockEnd int) {
	windowBase := max(0, blockStart-(1<<m.Params().WindowLog))
	if blockStart == len(e.content) {
		e.seqs = m.ParseDict(e.seqs[:0], buf[windowBase:blockEnd], blockStart-windowBase)
		return
	}
	e.seqs = m.Parse(e.seqs[:0], buf[windowBase:blockEnd], blockStart-windowBase)
}

// encodeBlockPayload serializes the parsed sequences. It returns nil when
// the representation cannot beat a raw block.
func (e *Encoder) encodeBlockPayload(content []byte) ([]byte, error) {
	if err := e.sequences(content); err != nil {
		return nil, err
	}
	var tmp [binary.MaxVarintLen64]byte
	payload, err := e.appendLiterals(e.payload[:0])
	if err != nil {
		return nil, err
	}
	numSeqs := len(e.llc)
	payload = append(payload, tmp[:binary.PutUvarint(tmp[:], uint64(numSeqs))]...)
	if numSeqs > 0 {
		if payload, err = e.appendSequences(payload); err != nil {
			return nil, err
		}
		ex := e.extras.Flush()
		payload = append(payload, tmp[:binary.PutUvarint(tmp[:], uint64(len(ex)))]...)
		payload = append(payload, ex...)
	}
	e.payload = payload // keep capacity for the next block
	return payload, nil
}

// sequences turns the parsed sequences of content into its literals, the
// three code streams (one code per sequence) and their extra bits. The
// extras writer's state and the repeat offsets live in locals for the
// loop, and a short literal run is copied as one 16-byte move into slack
// the literal buffer keeps.
func (e *Encoder) sequences(content []byte) error {
	n := len(e.seqs)
	lits := slices.Grow(e.lits[:0], len(content)+16)
	llc := slices.Grow(e.llc[:0], n)[:n]
	ofc := slices.Grow(e.ofc[:0], n)[:n]
	mlc := slices.Grow(e.mlc[:0], n)[:n]
	e.extras.Reset()
	buf, acc, nacc := e.extras.State()
	r0, r1, r2 := uint32(1), uint32(4), uint32(8) // newRepState
	pos, k := 0, 0
	for _, s := range e.seqs {
		ll := int(s.LitLen)
		if pos+ll > len(content) {
			return fmt.Errorf("zstd: internal: sequences cover more than %d bytes", len(content))
		}
		if ll <= 16 && pos+16 <= len(content) {
			at := len(lits)
			wildcopy.Copy16(lits[at:at+16], content[pos:])
			lits = lits[:at+ll]
		} else {
			lits = append(lits, content[pos:pos+ll]...)
		}
		pos += ll + int(s.MatchLen)
		if s.MatchLen == 0 {
			continue // trailing literals live only in the literal section
		}
		if s.MatchLen < 3 || s.Offset == 0 {
			return errors.New("zstd: internal: invalid sequence")
		}
		// repState.encode over r0, r1, r2.
		var ofValue uint32
		switch s.Offset {
		case r0:
			ofValue = 1
		case r1:
			r0, r1 = r1, r0
			ofValue = 2
		case r2:
			r0, r1, r2 = r2, r0, r1
			ofValue = 3
		default:
			r0, r1, r2 = s.Offset, r0, r1
			ofValue = s.Offset + 3
		}
		lc, oc, mc := llCode(s.LitLen), ofCode(ofValue), mlCode(s.MatchLen)
		llc[k], ofc[k], mlc[k] = lc, oc, mc
		k++
		// The three fields, carried before the first and the third: a carry
		// leaves at most 7 bits, so the literal length's and the offset's
		// (at most 16 + 31 bits) fit, and then the match length's (16).
		for j, f := range [3]struct {
			v uint32
			n uint8
		}{{llExtra(s.LitLen, lc), llExtraBits[lc]}, {ofValue - 1<<oc, oc}, {mlExtra(s.MatchLen, mc), mlExtraBits[mc]}} {
			if j != 1 {
				if cap(buf)-len(buf) < 8 {
					buf = slices.Grow(buf, 8)
				}
				at := len(buf)
				binary.LittleEndian.PutUint64(buf[at:at+8], acc)
				buf = buf[:at+int(nacc>>3)]
				acc >>= (nacc >> 3) * 8 & 63
				nacc &= 7
			}
			l := uint(f.n) & 63
			acc |= (uint64(f.v) & (1<<l - 1)) << (nacc & 63)
			nacc += l
		}
	}
	e.extras.SetState(buf, acc, nacc)
	e.lits, e.llc, e.ofc, e.mlc = lits, llc[:k], ofc[:k], mlc[:k]
	if pos != len(content) {
		return fmt.Errorf("zstd: internal: sequences cover %d of %d bytes", pos, len(content))
	}
	return nil
}

// codedLen is what a coded stream takes in a section: its uvarint length,
// then its bytes.
func codedLen(n int) int {
	var tmp [binary.MaxVarintLen64]byte
	return binary.PutUvarint(tmp[:], uint64(n)) + n
}

// The choice between a dictionary's tables and tables built for the block
// (appendLiterals, appendSequences) is made per section and never sends
// more than the built tables would: the section coded with the
// dictionary's tables (no table build) is compared first against a lower
// bound on the section a build can give (its header and the entropy of the
// symbols, or raw), and only when that does not settle it are the tables
// built and the two sections compared.

// appendLiterals appends the literal section.
func (e *Encoder) appendLiterals(payload []byte) ([]byte, error) {
	lits := e.lits
	var tmp [binary.MaxVarintLen64]byte
	switch {
	case len(lits) == 0:
		return append(payload, litsRaw, 0), nil
	case len(lits) >= 8 && allSame(lits):
		payload = append(payload, litsRLE)
		payload = append(payload, tmp[:binary.PutUvarint(tmp[:], uint64(len(lits)))]...)
		return append(payload, lits[0]), nil
	}
	four := len(lits) >= huff4MinLits
	var alt []byte // lits coded with the dictionary's table
	if e.dictLits != nil {
		enc, err := e.huff.CompressWith(e.litAlt[:0], lits, e.dictLits, four)
		e.litAlt = enc
		if err == nil {
			alt = enc
			least := len(lits)
			if m := e.huff.MinSize(lits, four); m > 0 {
				least = min(least, codedLen(m))
			}
			if codedLen(len(alt)) <= least {
				return appendLitSection(payload, litsDict, four, lits, alt), nil
			}
		}
	}
	var enc []byte
	var err error
	if four {
		enc, err = e.huff.Compress4(e.litEnc[:0], lits)
	} else {
		enc, err = e.huff.Compress(e.litEnc[:0], lits)
	}
	switch {
	case err == nil:
		e.litEnc = enc
	case err == huffman.ErrIncompressible:
		if enc != nil {
			e.litEnc = enc // empty, but keeps the grown capacity
		}
		enc = nil
	default:
		return nil, err
	}
	built := len(lits)
	if enc != nil {
		built = codedLen(len(enc))
	}
	switch {
	case alt != nil && codedLen(len(alt)) <= built:
		return appendLitSection(payload, litsDict, four, lits, alt), nil
	case enc != nil:
		return appendLitSection(payload, litsHuff, four, lits, enc), nil
	}
	payload = append(payload, litsRaw)
	payload = append(payload, tmp[:binary.PutUvarint(tmp[:], uint64(len(lits)))]...)
	return append(payload, lits...), nil
}

// appendLitSection appends a Huffman-coded literal section: mode (litsHuff
// or litsDict, made four-stream by four) | literal count | coded length |
// enc.
func appendLitSection(payload []byte, mode byte, four bool, lits, enc []byte) []byte {
	if four {
		mode++ // litsHuff4, litsDict4
	}
	var tmp [binary.MaxVarintLen64]byte
	payload = append(payload, mode)
	payload = append(payload, tmp[:binary.PutUvarint(tmp[:], uint64(len(lits)))]...)
	payload = append(payload, tmp[:binary.PutUvarint(tmp[:], uint64(len(enc)))]...)
	return append(payload, enc...)
}

// seqSection is one way to code the three sequence-code streams.
type seqSection struct {
	modes [3]byte
	enc   [3][]byte
	size  int // bytes the streams take after the mode byte
}

func (c *seqSection) set(i int, mode byte, enc []byte) {
	c.modes[i], c.enc[i] = mode, enc
	switch mode {
	case seqRLE:
		c.size++
	case seqRaw: // length implied by numSeqs
		c.size += len(enc)
	default:
		c.size += codedLen(len(enc))
	}
}

// appendSequences appends the sequence section's mode byte and streams. The
// dictionary's tables code all of its FSE streams or none.
func (e *Encoder) appendSequences(payload []byte) ([]byte, error) {
	streams := [3][]byte{e.llc, e.ofc, e.mlc}
	two := len(e.llc) >= fse2MinSeqs
	fseMode := byte(seqFSE)
	if two {
		fseMode = seqFSE2
	}
	var dict seqSection
	useDict := e.dictLits != nil
	if useDict {
		least := 0
		for i, s := range streams {
			if allSame(s) {
				dict.set(i, seqRLE, s[:1])
				least++
				continue
			}
			enc, err := e.fseSc.CompressWith(e.seqAlt[i][:0], s, &e.dictSeq[i], two)
			e.seqAlt[i] = enc
			if err != nil {
				useDict = false
				break
			}
			if codedLen(len(enc)) < len(s) {
				dict.set(i, fseMode, enc)
			} else {
				dict.set(i, seqRaw, s)
			}
			low := len(s)
			if m := e.fseSc.MinSize(s, seqTableLog); m > 0 {
				low = min(low, codedLen(m))
			}
			least += low
		}
		if useDict && dict.size <= least {
			return dict.appendTo(payload, seqDictBit), nil
		}
	}
	var built seqSection
	for i, s := range streams {
		if allSame(s) {
			built.set(i, seqRLE, s[:1])
			continue
		}
		var enc []byte
		var err error
		if two {
			enc, err = e.fseSc.Compress2(e.seqEnc[i][:0], s, seqTableLog)
		} else {
			enc, err = e.fseSc.Compress(e.seqEnc[i][:0], s, seqTableLog)
		}
		switch {
		case err == nil:
			e.seqEnc[i] = enc
			built.set(i, fseMode, enc)
		case err == fse.ErrIncompressible:
			if enc != nil {
				e.seqEnc[i] = enc // empty, but keeps the grown capacity
			}
			built.set(i, seqRaw, s)
		default:
			return nil, err
		}
	}
	if useDict && dict.size <= built.size {
		return dict.appendTo(payload, seqDictBit), nil
	}
	return built.appendTo(payload, 0), nil
}

// appendTo appends the mode byte, with flags, and the streams.
func (c *seqSection) appendTo(payload []byte, flags byte) []byte {
	payload = append(payload, c.modes[0]|c.modes[1]<<2|c.modes[2]<<4|flags)
	var tmp [binary.MaxVarintLen64]byte
	for i, enc := range c.enc {
		switch c.modes[i] {
		case seqRLE:
			payload = append(payload, enc[0])
		case seqRaw:
			payload = append(payload, enc...)
		default:
			payload = append(payload, tmp[:binary.PutUvarint(tmp[:], uint64(len(enc)))]...)
			payload = append(payload, enc...)
		}
	}
	return payload
}
