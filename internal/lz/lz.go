// Package lz implements the Lempel-Ziv match-finding stage shared by the
// LZ4, Zstd-style and DEFLATE-style codecs in this repository.
//
// The paper this repository reproduces (ISPASS'23, "Characterization of Data
// Compression in Datacenters") describes LZ compressors as a match-finding
// stage followed by an entropy stage, with the compression-speed/ratio
// trade-off governed almost entirely by the match finder. This package
// provides that stage as a family of strategies of increasing effort:
//
//	Fast    — single hash table, greedy, optional skip acceleration
//	          (used by LZ4 fast levels and negative Zstd-style levels)
//	Greedy  — hash chains, takes the best match at each position
//	Lazy    — hash chains, defers one position when a longer match follows
//	Lazy2   — hash chains, evaluates two following positions
//	Optimal — dynamic programming over chain candidates (approximate
//	          cheapest encoding; the paper's "slow dynamic programming
//	          algorithms" end of the spectrum)
//
// Parsers emit Sequences: runs of literals followed by a (offset, length)
// match, exactly the intermediate representation both entropy stages
// consume.
//
// The hot kernels are SWAR-shaped: every hashed position is loaded as one
// unaligned 64-bit word (through encoding/binary, so 32-bit and
// alignment-strict targets stay correct), hashed with a single
// multiply-shift, and match lengths resolve 8 bytes per XOR via
// bits.TrailingZeros64. Scalar reference kernels live in ref.go and the
// differential tests in swar_test.go hold the two implementations equal.
package lz

import (
	"encoding/binary"
	"fmt"
	mathbits "math/bits"
)

// Sequence is a single LZ77 parse step: LitLen literals copied verbatim,
// followed by MatchLen bytes copied from Offset bytes back. The final
// sequence of a parse may have MatchLen == 0 and Offset == 0 to flush
// trailing literals.
type Sequence struct {
	LitLen   uint32
	MatchLen uint32
	Offset   uint32
}

// Strategy selects the match-finding algorithm.
type Strategy int

const (
	// Fast uses a single hash table and greedy parsing with optional skip
	// acceleration.
	Fast Strategy = iota
	// Greedy walks hash chains and commits to the best match at each
	// position.
	Greedy
	// Lazy additionally evaluates the next position before committing.
	Lazy
	// Lazy2 evaluates the next two positions before committing.
	Lazy2
	// Optimal runs a dynamic program over chain candidates to approximate
	// the cheapest encoding (the btopt end of the spectrum). Slowest,
	// best ratio.
	Optimal
)

func (s Strategy) String() string {
	switch s {
	case Fast:
		return "fast"
	case Greedy:
		return "greedy"
	case Lazy:
		return "lazy"
	case Lazy2:
		return "lazy2"
	case Optimal:
		return "optimal"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Params configure a match finder. The zero value is not valid; use a codec
// level table or fill every field.
type Params struct {
	WindowLog uint // maximum match offset is 1<<WindowLog
	HashLog   uint // hash table has 1<<HashLog heads
	ChainLog  uint // chain table has 1<<ChainLog links (chain strategies)
	Depth     int  // maximum chain positions examined per search
	MinMatch  int  // smallest emitted match length (3 or 4)
	MaxMatch  int  // largest emitted match length, 0 = unlimited
	SkipStep  int  // Fast only: advance per miss; >1 trades ratio for speed
	Strategy  Strategy
	// RepeatOffsets says the format codes a match at the most recent offset
	// for a few bits (zstd's repeat codes; LZ4 and DEFLATE have none). Fast
	// then parses the way zstd's fast strategy does: it probes that offset
	// one byte ahead before each lookup, and checks the next position for a
	// longer match before it takes a short one, since in such a format a
	// sequence costs about what the literals of a short match save.
	RepeatOffsets bool
}

// Validate reports whether the parameters are internally consistent.
func (p Params) Validate() error {
	if p.WindowLog < 10 || p.WindowLog > 30 {
		return fmt.Errorf("lz: window log %d out of range [10,30]", p.WindowLog)
	}
	if p.HashLog < 6 || p.HashLog > 28 {
		return fmt.Errorf("lz: hash log %d out of range [6,28]", p.HashLog)
	}
	if p.Strategy != Fast && (p.ChainLog < 6 || p.ChainLog > 30) {
		return fmt.Errorf("lz: chain log %d out of range [6,30]", p.ChainLog)
	}
	if p.MinMatch < 3 || p.MinMatch > 7 {
		return fmt.Errorf("lz: min match %d out of range [3,7]", p.MinMatch)
	}
	if p.MaxMatch != 0 && p.MaxMatch < p.MinMatch {
		return fmt.Errorf("lz: max match %d below min match %d", p.MaxMatch, p.MinMatch)
	}
	if p.Depth < 0 {
		return fmt.Errorf("lz: negative depth")
	}
	if p.SkipStep < 0 {
		return fmt.Errorf("lz: negative skip step")
	}
	return nil
}

// hashMul64 is the 64-bit odd multiply-shift constant (2^64/φ) all hash
// widths share: the hashed prefix is shifted to the top of the word, so one
// multiply mixes MinMatch bytes and the top HashLog product bits become the
// bucket. See hashWord and hashRef (the scalar reference).
const hashMul64 = 0x9e3779b185ebca87

// hashWord hashes the low (64-preShift)/8 bytes of an unaligned 64-bit
// little-endian load. preShift = 64 - 8*MinMatch discards the bytes beyond
// the hashed prefix; postShift = 64 - HashLog selects the bucket from the
// top product bits. One shift, one multiply, one shift — cheap enough to
// run at every input position.
func hashWord(x uint64, preShift, postShift uint) uint32 {
	return uint32(((x << preShift) * hashMul64) >> postShift)
}

// matchLen counts equal bytes between src[a:] and src[b:] (a < b), up to
// limit. The fast loop XORs unaligned 8-byte words and converts the first
// difference to a byte count with TrailingZeros64; the scalar tail handles
// the final <8 bytes.
func matchLen(src []byte, a, b, limit int) int {
	n := 0
	for b+n+8 <= limit {
		x := binary.LittleEndian.Uint64(src[a+n:]) ^ binary.LittleEndian.Uint64(src[b+n:])
		if x != 0 {
			return n + mathbits.TrailingZeros64(x)>>3
		}
		n += 8
	}
	for b+n < limit && src[a+n] == src[b+n] {
		n++
	}
	return n
}

// skipTrigger shifts the Fast strategy's miss counter into its stride: after
// 1<<skipTrigger consecutive misses the parser starts skipping positions
// geometrically (the lz4/zstd-fast acceleration shape, but branch-free —
// the stride is a shift of the counter, not a conditional).
const skipTrigger = 6

// seedCap bounds how many leading interior positions of an accepted match
// the Fast strategy re-hashes. Matched spans used to seed only their
// midpoint and tail, which made repeated content (log lines, fixed-width
// records) invisible to later searches; now every skipped position is
// hashed up to this cap, with midpoint and tail still covering the rest of
// longer matches. Measured on the bench corpora, cap 8 keeps ~all of the
// ratio gain of unbounded seeding (+0.7% logs, +1.4% records) at a
// fraction of its cost.
const seedCap = 8

// lazyLen is the match length below which a RepeatOffsets Fast parse looks
// one position on for a longer match.
const lazyLen = 12

// Matcher is a reusable match finder. It is not safe for concurrent use.
type Matcher struct {
	p    Params
	head []int32
	prev []int32
	// base is the epoch offset of the current parse: tables store base+pos
	// and a lookup subtracts base, so entries from earlier parses surface
	// as negative (invalid) without clearing the tables. Parse bumps base
	// by len(src) each call and only memclears on int32 overflow — this is
	// what makes small-payload and batch compression cheap, since a 64 KiB
	// table clear would otherwise dominate a 1 KiB parse.
	base int32
	// Precomputed hashWord shifts for p.MinMatch and p.HashLog.
	hashPre  uint8
	hashPost uint8
	// dict and dictSeeds are the dictionary SetDict gave a Fast matcher and
	// its one-time index: for each bucket some position hashed to, the last
	// dictionary position whose 8-byte hash window lies wholly inside the
	// dictionary and hashes there — what indexing the whole dictionary
	// leaves in the table.
	dict      []byte
	dictSeeds []dictSeed
}

// dictSeed is one bucket's entry of a dictionary's index.
type dictSeed struct {
	h   uint32
	pos int32
}

// NewMatcher allocates a match finder for the given parameters.
func NewMatcher(p Params) (*Matcher, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := &Matcher{
		p:        p,
		head:     make([]int32, 1<<p.HashLog),
		base:     1, // 0 is the empty table value
		hashPre:  uint8(64 - 8*p.MinMatch),
		hashPost: uint8(64 - p.HashLog),
	}
	if p.Strategy != Fast {
		m.prev = make([]int32, 1<<p.ChainLog)
	}
	return m, nil
}

// Params returns the matcher's configuration.
func (m *Matcher) Params() Params { return m.p }

// SetDict gives the matcher the dictionary d that ParseDict's history is
// cut from. A Fast matcher indexes d here, once, where Parse indexes its
// history on every call; chain strategies keep indexing per call. The
// matcher keeps d, which must not change while it is set.
func (m *Matcher) SetDict(d []byte) {
	m.dict, m.dictSeeds = d, nil
	if m.p.Strategy != Fast || len(d) < 8 {
		return
	}
	last := make([]int32, 1<<m.p.HashLog) // 1 + a bucket's last position, 0: none
	pre, post := uint(m.hashPre), uint(m.hashPost)
	for j := 0; j+8 <= len(d); j++ {
		last[hashWord(binary.LittleEndian.Uint64(d[j:]), pre, post)] = int32(j + 1)
	}
	m.dictSeeds = []dictSeed{}
	for h, v := range last {
		if v != 0 {
			m.dictSeeds = append(m.dictSeeds, dictSeed{h: uint32(h), pos: v - 1})
		}
	}
}

// ParseDict is Parse for an src whose first start bytes are the last start
// bytes of the dictionary SetDict gave, and returns exactly what Parse
// returns. A Fast matcher seeds its table from the dictionary's index —
// one store per bucket the dictionary hashed to, each entry what indexing
// the whole history would have left there, since a later position always
// overwrites an earlier one — and hashes only the history's last 7
// positions, whose hash windows reach into src[start:]. So a small src does
// not pay to index the whole dictionary on every call.
func (m *Matcher) ParseDict(dst []Sequence, src []byte, start int) []Sequence {
	if m.dictSeeds == nil || start > len(m.dict) || start >= len(src) {
		return m.Parse(dst, src, start)
	}
	m.resetEpoch(len(src))
	// Dictionary position j is src position j-doff; one before the history
	// lands below base, where a lookup reads it as no candidate.
	at := m.base - int32(len(m.dict)-start)
	head := m.head
	for _, sd := range m.dictSeeds {
		head[sd.h] = at + sd.pos
	}
	dst = m.fast(dst, src, start, max(0, start-7))
	m.base += int32(len(src))
	return dst
}

// fast is the Fast parse of src[start:] with src[first:start] indexed as
// history: one loop for formats with repeat offsets, one for those without.
func (m *Matcher) fast(dst []Sequence, src []byte, start, first int) []Sequence {
	if m.p.RepeatOffsets {
		return m.parseFastRep(dst, src, start, first)
	}
	return m.parseFast(dst, src, start, first)
}

// resetEpoch takes the one real table clear when a parse of n bytes would
// overflow the epoch counter (~2 GiB parsed through one matcher).
func (m *Matcher) resetEpoch(n int) {
	if int64(m.base)+int64(n) >= 1<<31 {
		clear(m.head)
		clear(m.prev)
		m.base = 1
	}
}

// hashAt hashes the MinMatch-byte prefix at src[i:]. Callers must ensure
// i+8 <= len(src): the kernel always loads a full word.
func (m *Matcher) hashAt(src []byte, i int) uint32 {
	return hashWord(binary.LittleEndian.Uint64(src[i:]), uint(m.hashPre), uint(m.hashPost))
}

// Parse appends the LZ77 sequences covering src[start:] to dst. Bytes before
// start act as history (dictionary or previous blocks): matches may point
// into them but no sequence covers them. The sum of LitLen+MatchLen over the
// returned sequences always equals len(src)-start.
func (m *Matcher) Parse(dst []Sequence, src []byte, start int) []Sequence {
	if start >= len(src) {
		return dst
	}
	m.resetEpoch(len(src))
	switch m.p.Strategy {
	case Fast:
		dst = m.fast(dst, src, start, 0)
	case Optimal:
		dst = m.parseOptimal(dst, src, start)
	default:
		dst = m.parseChain(dst, src, start)
	}
	m.base += int32(len(src))
	return dst
}

// parseFast is the Fast parse for a format without repeat offsets (LZ4,
// DEFLATE): greedy, with skip acceleration over misses. It indexes the
// history src[first:start] into the main table first, so matches may reach
// into it.
func (m *Matcher) parseFast(dst []Sequence, src []byte, start, first int) []Sequence {
	minMatch := m.p.MinMatch
	window := 1 << m.p.WindowLog
	step := max(m.p.SkipStep, 1)
	end := len(src)
	// The SWAR kernels load 8 bytes at every hashed position, so indexing
	// stops at len-8; the final tail stays literal (LZ4's own end-of-block
	// rules forbid matches there anyway).
	hashEnd := end - 8
	pre, post := uint(m.hashPre), uint(m.hashPost)
	base := m.base
	head := m.head
	// The quick-reject compares the hashed prefix of a candidate in one
	// register op; minMatch 3 masks the fourth byte out.
	qmask := uint32(0xffffffff)
	if minMatch == 3 {
		qmask = 0x00ffffff
	}
	for i := first; i < start && i <= hashEnd; i++ {
		head[hashWord(binary.LittleEndian.Uint64(src[i:]), pre, post)] = base + int32(i)
	}

	litStart := start
	i := start
	// Branch-reduced skip acceleration: sw counts misses in its low bits and
	// yields the stride from its high bits, so incompressible stretches are
	// skipped geometrically without a conditional in the loop.
	sw := uint32(step) << skipTrigger
	for i <= hashEnd {
		x := binary.LittleEndian.Uint64(src[i:])
		h := hashWord(x, pre, post)
		cand := int(head[h] - base)
		head[h] = base + int32(i)
		if cand < 0 || i-cand > window ||
			(uint32(x)^binary.LittleEndian.Uint32(src[cand:]))&qmask != 0 {
			i += int(sw >> skipTrigger)
			sw++
			continue
		}
		ml := matchLen(src, cand, i, end)
		if ml < minMatch {
			i += int(sw >> skipTrigger)
			sw++
			continue
		}
		// Extend backwards into pending literals.
		for i > litStart && cand > 0 && src[i-1] == src[cand-1] {
			i--
			cand--
			ml++
		}
		if m.p.MaxMatch > 0 && ml > m.p.MaxMatch {
			ml = m.p.MaxMatch
		}
		dst = append(dst, Sequence{
			LitLen:   uint32(i - litStart),
			MatchLen: uint32(ml),
			Offset:   uint32(i - cand),
		})
		i = seedMatch(head, src, i, ml, hashEnd, base, pre, post)
		litStart = i
		sw = uint32(step) << skipTrigger
	}
	if litStart < end {
		dst = append(dst, Sequence{LitLen: uint32(end - litStart)})
	}
	return dst
}

// parseFastRep is the Fast parse for a format with repeat offsets (zstd),
// parsing the way zstd's fast strategy does: before each lookup it probes
// the last match's offset one byte ahead and takes a match there first,
// and it checks the next position for a longer match before it takes a
// short one. Otherwise it is parseFast.
func (m *Matcher) parseFastRep(dst []Sequence, src []byte, start, first int) []Sequence {
	minMatch := m.p.MinMatch
	window := 1 << m.p.WindowLog
	step := max(m.p.SkipStep, 1)
	end := len(src)
	hashEnd := end - 8
	pre, post := uint(m.hashPre), uint(m.hashPost)
	base := m.base
	head := m.head
	qmask := uint32(0xffffffff)
	if minMatch == 3 {
		qmask = 0x00ffffff
	}
	for i := first; i < start && i <= hashEnd; i++ {
		head[hashWord(binary.LittleEndian.Uint64(src[i:]), pre, post)] = base + int32(i)
	}

	// rep is the offset of the last match (0: none yet). A repeat probe
	// reads src itself, whose history is the dictionary's tail when there
	// is one.
	rep := 0
	litStart := start
	i := start
	sw := uint32(step) << skipTrigger
	for i <= hashEnd {
		x := binary.LittleEndian.Uint64(src[i:])
		h := hashWord(x, pre, post)
		cand := int(head[h] - base)
		head[h] = base + int32(i)
		ml := 0
		// A match at the last offset one byte on codes as a repeat: take
		// it before the table's candidate.
		if rep > 0 {
			if r := i + 1 - rep; r >= 0 && uint32(x>>8) == binary.LittleEndian.Uint32(src[r:]) {
				i, cand = i+1, r
				ml = matchLen(src, cand, i, end)
			}
		}
		if ml == 0 {
			if cand < 0 || i-cand > window ||
				(uint32(x)^binary.LittleEndian.Uint32(src[cand:]))&qmask != 0 {
				i += int(sw >> skipTrigger)
				sw++
				continue
			}
			if ml = matchLen(src, cand, i, end); ml < minMatch {
				i += int(sw >> skipTrigger)
				sw++
				continue
			}
			if ml < lazyLen && i < hashEnd {
				// One step lazy: a longer match at i+1 is worth the literal.
				h1 := hashWord(binary.LittleEndian.Uint64(src[i+1:]), pre, post)
				c1 := int(head[h1] - base)
				head[h1] = base + int32(i+1)
				if c1 >= 0 && i+1-c1 <= window {
					if ml1 := matchLen(src, c1, i+1, end); ml1 > ml {
						i, cand, ml = i+1, c1, ml1
					}
				}
			}
		}
		// Extend backwards into pending literals.
		for i > litStart && cand > 0 && src[i-1] == src[cand-1] {
			i--
			cand--
			ml++
		}
		if m.p.MaxMatch > 0 && ml > m.p.MaxMatch {
			ml = m.p.MaxMatch
		}
		dst = append(dst, Sequence{
			LitLen:   uint32(i - litStart),
			MatchLen: uint32(ml),
			Offset:   uint32(i - cand),
		})
		rep = i - cand
		i = seedMatch(head, src, i, ml, hashEnd, base, pre, post)
		litStart = i
		sw = uint32(step) << skipTrigger
	}
	if litStart < end {
		dst = append(dst, Sequence{LitLen: uint32(end - litStart)})
	}
	return dst
}

// seedMatch indexes the match of ml bytes at i so later data still finds
// it — every skipped position up to seedCap, then the midpoint and tail of
// anything longer — and returns the position after it.
func seedMatch(head []int32, src []byte, i, ml, hashEnd int, base int32, pre, post uint) int {
	next := i + ml
	seedEnd := min(next, i+1+seedCap, hashEnd+1)
	for k := i + 1; k < seedEnd; k++ {
		head[hashWord(binary.LittleEndian.Uint64(src[k:]), pre, post)] = base + int32(k)
	}
	if mid := i + ml/2; mid <= hashEnd && mid >= seedEnd {
		head[hashWord(binary.LittleEndian.Uint64(src[mid:]), pre, post)] = base + int32(mid)
	}
	if t := next - 1; t >= seedEnd && t <= hashEnd {
		head[hashWord(binary.LittleEndian.Uint64(src[t:]), pre, post)] = base + int32(t)
	}
	return next
}

// findBest walks the hash chain at position i and returns the best match.
func (m *Matcher) findBest(src []byte, i, end int) (bestLen, bestPos int) {
	window := 1 << m.p.WindowLog
	chainMask := int32(1<<m.p.ChainLog - 1)
	minMatch := m.p.MinMatch
	base := m.base
	limit := i - window
	if limit < 0 {
		limit = 0
	}
	cand := int(m.head[m.hashAt(src, i)] - base)
	depth := m.p.Depth
	bestLen = minMatch - 1
	for d := 0; d < depth && cand >= limit && cand >= 0 && cand < i; d++ {
		// Fetch the next link before the byte compares so the chain load
		// overlaps the match work (prefetch-shaped walk).
		next := int(m.prev[int32(cand)&chainMask] - base)
		// Quick reject: check the byte just past the current best.
		if i+bestLen < end && src[cand+bestLen] == src[i+bestLen] {
			if ml := matchLen(src, cand, i, end); ml > bestLen {
				bestLen = ml
				bestPos = cand
				if m.p.MaxMatch > 0 && ml >= m.p.MaxMatch {
					break
				}
				if i+ml >= end {
					break
				}
			}
		}
		if next >= cand {
			break // stale entry from a farther position, chain ended
		}
		cand = next
	}
	if bestLen < minMatch {
		return 0, 0
	}
	return bestLen, bestPos
}

func (m *Matcher) insert(src []byte, i int) {
	h := m.hashAt(src, i)
	chainMask := int32(1<<m.p.ChainLog - 1)
	m.prev[int32(i)&chainMask] = m.head[h]
	m.head[h] = m.base + int32(i)
}

func (m *Matcher) parseChain(dst []Sequence, src []byte, start int) []Sequence {
	minMatch := m.p.MinMatch
	end := len(src)
	hashEnd := end - 8
	for i := 0; i < start && i <= hashEnd; i++ {
		m.insert(src, i)
	}

	lazySteps := 0
	switch m.p.Strategy {
	case Lazy:
		lazySteps = 1
	case Lazy2:
		lazySteps = 2
	}

	litStart := start
	i := start
	lastOffset := 0
	for i+minMatch <= end && i <= hashEnd {
		ml, pos := m.findBest(src, i, end)
		m.insert(src, i)
		// Repeat-offset probe: re-using the previous match distance is
		// nearly free to encode downstream (Zstandard's rep codes), so a
		// same-distance match wins unless the chain found a clearly longer
		// one.
		if lastOffset > 0 && i-lastOffset >= 0 {
			if repLen := matchLen(src, i-lastOffset, i, end); repLen >= minMatch {
				if m.p.MaxMatch > 0 && repLen > m.p.MaxMatch {
					repLen = m.p.MaxMatch
				}
				if repLen+2 >= ml {
					ml, pos = repLen, i-lastOffset
				}
			}
		}
		if ml == 0 {
			i++
			continue
		}
		// Lazy evaluation: a longer match starting 1-2 bytes later wins.
		for step := 0; step < lazySteps; step++ {
			j := i + 1
			if j+minMatch > end || j > hashEnd {
				break
			}
			ml2, pos2 := m.findBest(src, j, end)
			m.insert(src, j)
			if ml2 > ml+step { // must beat the cost of an extra literal
				i, ml, pos = j, ml2, pos2
			} else {
				break
			}
		}
		// Extend backwards into pending literals.
		for i > litStart && pos > 0 && src[i-1] == src[pos-1] {
			i--
			pos--
			ml++
		}
		if m.p.MaxMatch > 0 && ml > m.p.MaxMatch {
			ml = m.p.MaxMatch
		}
		dst = append(dst, Sequence{
			LitLen:   uint32(i - litStart),
			MatchLen: uint32(ml),
			Offset:   uint32(i - pos),
		})
		lastOffset = i - pos
		// Index the interior of the match (bounded so long matches stay
		// cheap).
		interior := ml
		if interior > 64 {
			interior = 64
		}
		for k := i + 1; k < i+interior && k <= hashEnd; k++ {
			m.insert(src, k)
		}
		i += ml
		litStart = i
	}
	if litStart < end {
		dst = append(dst, Sequence{LitLen: uint32(end - litStart)})
	}
	return dst
}

// Apply reconstructs the parsed region from sequences: literals are taken
// from orig (the original buffer handed to Parse) and matches are copied
// from the sliding history. It is the reference decoder used by tests.
func Apply(orig []byte, start int, seqs []Sequence) ([]byte, error) {
	out := make([]byte, 0, len(orig)-start)
	hist := append([]byte{}, orig[:start]...)
	pos := start
	for _, s := range seqs {
		if pos+int(s.LitLen) > len(orig) {
			return nil, fmt.Errorf("lz: literal run past end")
		}
		hist = append(hist, orig[pos:pos+int(s.LitLen)]...)
		out = append(out, orig[pos:pos+int(s.LitLen)]...)
		pos += int(s.LitLen)
		if s.MatchLen > 0 {
			if int(s.Offset) > len(hist) || s.Offset == 0 {
				return nil, fmt.Errorf("lz: bad offset %d at pos %d", s.Offset, pos)
			}
			for k := 0; k < int(s.MatchLen); k++ {
				b := hist[len(hist)-int(s.Offset)]
				hist = append(hist, b)
				out = append(out, b)
			}
			pos += int(s.MatchLen)
		}
	}
	if pos != len(orig) {
		return nil, fmt.Errorf("lz: sequences cover %d bytes, want %d", pos-start, len(orig)-start)
	}
	return out, nil
}

// TotalLen sums the bytes covered by a sequence list.
func TotalLen(seqs []Sequence) int {
	n := 0
	for _, s := range seqs {
		n += int(s.LitLen) + int(s.MatchLen)
	}
	return n
}
