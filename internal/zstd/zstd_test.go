package zstd

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/datacomp/datacomp/internal/bits"
	"github.com/datacomp/datacomp/internal/corpus"
	"github.com/datacomp/datacomp/internal/lz"
)

func compressible(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"warehouse", "ingestion", "compression", "dictionary", "entropy",
		"sequence", "literal", "offset", "match", "zstd", "level", "block"}
	var buf bytes.Buffer
	for buf.Len() < n {
		buf.WriteString(words[rng.Intn(len(words))])
		buf.WriteByte(' ')
	}
	return buf.Bytes()[:n]
}

func roundtrip(t *testing.T, opts Options, src []byte) []byte {
	t.Helper()
	e, err := NewEncoder(opts)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Compress(nil, src)
	if err != nil {
		t.Fatalf("opts %+v size %d: %v", opts, len(src), err)
	}
	back, err := Decompress(nil, out, opts.Dict)
	if err != nil {
		t.Fatalf("opts %+v size %d: %v", opts, len(src), err)
	}
	if !bytes.Equal(back, src) {
		t.Fatalf("opts %+v size %d: roundtrip mismatch", opts, len(src))
	}
	return out
}

func TestRoundtripLevels(t *testing.T) {
	src := compressible(1, 300000) // multi-block
	for _, level := range []int{-5, -1, 1, 2, 3, 5, 7, 9, 12, 16, 19, 22} {
		out := roundtrip(t, Options{Level: level}, src)
		if len(out) >= len(src) {
			t.Errorf("level %d: no compression (%d >= %d)", level, len(out), len(src))
		}
	}
}

func TestRoundtripSizes(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 8, 100, 1000, MaxBlockSize - 1, MaxBlockSize, MaxBlockSize + 1, 3 * MaxBlockSize} {
		roundtrip(t, Options{Level: 1}, compressible(int64(n), n))
		roundtrip(t, Options{Level: 6}, compressible(int64(n)+1, n))
	}
}

func TestRoundtripIncompressible(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := make([]byte, 100000)
	rng.Read(src)
	out := roundtrip(t, Options{Level: 3}, src)
	if len(out) > len(src)+len(src)/100+64 {
		t.Fatalf("expansion too large on random data: %d vs %d", len(out), len(src))
	}
}

func TestRoundtripRLE(t *testing.T) {
	src := bytes.Repeat([]byte{'z'}, 500000)
	out := roundtrip(t, Options{Level: 1}, src)
	if len(out) > 64 {
		t.Fatalf("RLE blocks should collapse runs: got %d bytes", len(out))
	}
}

func TestHigherLevelBetterRatio(t *testing.T) {
	src := compressible(9, 1<<19)
	sizes := map[int]int{}
	for _, level := range []int{-5, 1, 3, 9, 19} {
		e, err := NewEncoder(Options{Level: level})
		if err != nil {
			t.Fatal(err)
		}
		out, err := e.Compress(nil, src)
		if err != nil {
			t.Fatal(err)
		}
		sizes[level] = len(out)
	}
	if sizes[19] > sizes[1] {
		t.Errorf("level 19 (%d) worse than level 1 (%d)", sizes[19], sizes[1])
	}
	if sizes[1] > sizes[-5] {
		t.Errorf("level 1 (%d) worse than level -5 (%d)", sizes[1], sizes[-5])
	}
}

func TestChecksum(t *testing.T) {
	src := compressible(11, 50000)
	e, err := NewEncoder(Options{Level: 3, Checksum: true})
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Compress(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decompress(nil, out, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, src) {
		t.Fatal("mismatch")
	}
	// Corrupt one content byte: the checksum (or structure checks) must
	// catch it.
	for i := 8; i < len(out)-9; i += 7 {
		mut := append([]byte{}, out...)
		mut[i] ^= 0x40
		if got, err := Decompress(nil, mut, nil); err == nil && bytes.Equal(got, src) == false {
			t.Fatalf("corruption at byte %d produced wrong data without error", i)
		}
	}
}

func TestDictionaryRoundtripAndGain(t *testing.T) {
	// Many small, structurally similar items: the paper's cache use case.
	dictSamples := make([]byte, 0, 1<<16)
	for i := 0; i < 200; i++ {
		dictSamples = append(dictSamples, compressible(int64(i%7), 300)...)
	}
	dict := dictSamples[:1<<14]
	item := compressible(3, 400)

	plain, err := NewEncoder(Options{Level: 3})
	if err != nil {
		t.Fatal(err)
	}
	withDict, err := NewEncoder(Options{Level: 3, Dict: dict})
	if err != nil {
		t.Fatal(err)
	}
	outPlain, err := plain.Compress(nil, item)
	if err != nil {
		t.Fatal(err)
	}
	outDict, err := withDict.Compress(nil, item)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decompress(nil, outDict, dict)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, item) {
		t.Fatal("dict roundtrip mismatch")
	}
	if len(outDict) >= len(outPlain) {
		t.Errorf("dictionary did not help small item: %d >= %d", len(outDict), len(outPlain))
	}
	// Wrong dictionary must be rejected.
	if _, err := Decompress(nil, outDict, dict[:len(dict)-1]); err != ErrDictMismatch {
		t.Fatalf("want ErrDictMismatch, got %v", err)
	}
	if _, err := Decompress(nil, outDict, nil); err != ErrDictMismatch {
		t.Fatalf("want ErrDictMismatch, got %v", err)
	}
	if _, err := Decompress(nil, outPlain, dict); err != ErrDictMismatch {
		t.Fatalf("dict on plain frame: want ErrDictMismatch, got %v", err)
	}
}

func TestWindowLogOverride(t *testing.T) {
	// Locally incompressible data repeated at 32 KiB distance: the copy is
	// visible with a 64 KiB window, invisible with a 1 KiB window.
	block := make([]byte, 32*1024)
	rand.New(rand.NewSource(13)).Read(block)
	src := append(append([]byte{}, block...), block...)
	small := roundtrip(t, Options{Level: 1, WindowLog: 10}, src)
	large := roundtrip(t, Options{Level: 1, WindowLog: 16}, src)
	if len(large) >= len(small) {
		t.Errorf("larger window should compress repetition better: %d >= %d", len(large), len(small))
	}
}

func TestDecompressedSize(t *testing.T) {
	src := compressible(19, 12345)
	out := roundtrip(t, Options{Level: 1}, src)
	n, err := DecompressedSize(out)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(src) {
		t.Fatalf("size = %d want %d", n, len(src))
	}
}

func TestDecompressCorrupt(t *testing.T) {
	src := compressible(23, 20000)
	out := roundtrip(t, Options{Level: 3}, src)
	cases := [][]byte{
		nil,
		{1, 2, 3},
		out[:5],
		out[:len(out)/2],
		append(append([]byte{}, out...), 0xff),
	}
	for i, c := range cases {
		if _, err := Decompress(nil, c, nil); err == nil {
			t.Errorf("case %d decoded successfully", i)
		}
	}
	bad := append([]byte{}, out...)
	bad[0] = 'Q'
	if _, err := Decompress(nil, bad, nil); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestBadOptions(t *testing.T) {
	if _, err := NewEncoder(Options{Level: 23}); err == nil {
		t.Error("level 23 accepted")
	}
	if _, err := NewEncoder(Options{Level: -6}); err == nil {
		t.Error("level -6 accepted")
	}
	if _, err := NewEncoder(Options{Level: 1, WindowLog: 5}); err == nil {
		t.Error("window log 5 accepted")
	}
	if _, err := NewEncoder(Options{Level: 1, WindowLog: 30}); err == nil {
		t.Error("window log 30 accepted")
	}
}

func TestRepeatOffsets(t *testing.T) {
	// Strictly periodic record data: after the first match almost every
	// sequence reuses the same distance, exercising the rep0 path; mixing
	// two periods exercises rep1/rep2 rotation.
	var src []byte
	recA := []byte("record-type-alpha|0123456789abcdef|")
	recB := []byte("rec-beta|fedcba98|")
	for i := 0; i < 400; i++ {
		src = append(src, recA...)
		if i%3 == 0 {
			src = append(src, recB...)
		}
	}
	for _, level := range []int{1, 3, 6, 12, 19} {
		out := roundtrip(t, Options{Level: level}, src)
		// Periodic data with rep codes should collapse dramatically.
		if len(out)*20 > len(src) {
			t.Errorf("level %d: periodic data compressed only to %d/%d", level, len(out), len(src))
		}
	}
	// The rep state machine itself.
	r := newRepState()
	if v := r.encode(100); v != 103 {
		t.Fatalf("fresh offset: %d", v)
	}
	if v := r.encode(100); v != 1 {
		t.Fatalf("rep0: %d", v)
	}
	if v := r.encode(200); v != 203 {
		t.Fatalf("second offset: %d", v)
	}
	if v := r.encode(100); v != 2 {
		t.Fatalf("rep1: %d", v)
	}
	// Mirror with a decoder state.
	d := newRepState()
	for _, pair := range [][2]uint32{{103, 100}, {1, 100}, {203, 200}, {2, 100}} {
		if got := d.decode(pair[0]); got != pair[1] {
			t.Fatalf("decode(%d) = %d want %d", pair[0], got, pair[1])
		}
	}
}

func TestCodeTables(t *testing.T) {
	// Every representable literal length maps to a code whose
	// baseline+extras range contains it.
	for _, v := range []uint32{0, 1, 15, 16, 17, 31, 32, 63, 64, 100, 1000, 65535, 65536, 100000} {
		c := llCode(v)
		if c > maxLLCode {
			t.Fatalf("llCode(%d) = %d", v, c)
		}
		lo := llBaselines[c]
		hi := lo + 1<<llExtraBits[c]
		if v < lo || v >= hi {
			t.Fatalf("llCode(%d) = %d covers [%d,%d)", v, c, lo, hi)
		}
	}
	for _, v := range []uint32{3, 4, 34, 35, 36, 37, 66, 67, 130, 131, 258, 259, 1027, 65539, 120000} {
		c := mlCode(v)
		if c > maxMLCode {
			t.Fatalf("mlCode(%d) = %d", v, c)
		}
		lo := mlBaselines[c]
		hi := lo + 1<<mlExtraBits[c]
		if v < lo || v >= hi {
			t.Fatalf("mlCode(%d) = %d covers [%d,%d)", v, c, lo, hi)
		}
	}
	for _, off := range []uint32{1, 2, 3, 4, 255, 256, 65535, 1 << 20, 1 << 26} {
		c := ofCode(off)
		extra, nb := ofExtra(off)
		if uint32(1)<<c+extra != off || nb != c {
			t.Fatalf("offset %d: code %d extra %d", off, c, extra)
		}
	}
}

func TestQuickRoundtrip(t *testing.T) {
	f := func(seed int64, size uint16, levelSel uint8, noise uint8) bool {
		n := int(size) % 40000
		src := compressible(seed, n)
		rng := rand.New(rand.NewSource(seed ^ 99))
		for k := 0; k < n*int(noise)/2048; k++ {
			src[rng.Intn(n)] = byte(rng.Intn(256))
		}
		level := int(levelSel)%(MaxLevel-MinLevel+1) + MinLevel
		if level == 0 {
			level = 3
		}
		e, err := NewEncoder(Options{Level: level})
		if err != nil {
			return false
		}
		out, err := e.Compress(nil, src)
		if err != nil {
			return false
		}
		back, err := Decompress(nil, out, nil)
		return err == nil && bytes.Equal(back, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDictRoundtrip(t *testing.T) {
	dict := compressible(123, 8192)
	f := func(seed int64, size uint16) bool {
		n := int(size) % 4000
		src := compressible(seed, n)
		e, err := NewEncoder(Options{Level: 3, Dict: dict})
		if err != nil {
			return false
		}
		out, err := e.Compress(nil, src)
		if err != nil {
			return false
		}
		back, err := Decompress(nil, out, dict)
		return err == nil && bytes.Equal(back, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCompress(b *testing.B) {
	src := compressible(1, 1<<18)
	for _, level := range []int{-5, 1, 3, 7, 12, 19} {
		name := "L" + itoa(level)
		b.Run(name, func(b *testing.B) {
			e, err := NewEncoder(Options{Level: level})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(src)))
			var out []byte
			for i := 0; i < b.N; i++ {
				out, err = e.Compress(out[:0], src)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(v int) string {
	if v < 0 {
		return "m" + itoa(-v)
	}
	if v >= 10 {
		return itoa(v/10) + string(rune('0'+v%10))
	}
	return string(rune('0' + v))
}

func BenchmarkDecompress(b *testing.B) {
	// Per-level decode benchmarks over log-like data: the shape the
	// multi-stream entropy stage (4-stream literals, 2-state sequences) is
	// tuned for, and the corpus the BENCH_codec.json regression gate tracks.
	// The dict row decodes 8 KiB frames against a 64 KiB dictionary, the
	// shape of a store-dictionary SST block read: the dictionary is hashed
	// once per Decoder, not once per frame.
	src := corpus.LogLines(7, 128<<10)
	for _, c := range []struct {
		name  string
		level int
		src   []byte
		dict  []byte
	}{
		{"L1", 1, src, nil},
		{"L3", 3, src, nil},
		{"L9", 9, src, nil},
		{"L1-8KiB-dict64KiB", 1, src[:8<<10], corpus.LogLines(8, 64<<10)},
	} {
		b.Run(c.name, func(b *testing.B) {
			e, err := NewEncoder(Options{Level: c.level, Dict: c.dict})
			if err != nil {
				b.Fatal(err)
			}
			out, err := e.Compress(nil, c.src)
			if err != nil {
				b.Fatal(err)
			}
			dec, err := NewDecoder(c.dict)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(c.src)))
			b.ReportAllocs()
			b.ResetTimer()
			var back []byte
			for i := 0; i < b.N; i++ {
				back, err = dec.Decompress(back[:0], out)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestFrameDictIDAndOptions(t *testing.T) {
	dict := compressible(51, 4096)
	e, err := NewEncoder(Options{Level: 2, Dict: dict})
	if err != nil {
		t.Fatal(err)
	}
	if e.Options().Level != 2 {
		t.Fatalf("options = %+v", e.Options())
	}
	frame, err := e.Compress(nil, compressible(52, 500))
	if err != nil {
		t.Fatal(err)
	}
	id, required, err := FrameDictID(frame)
	if err != nil || !required || id != DictID(dict) {
		t.Fatalf("id=%x required=%v err=%v", id, required, err)
	}
	plainEnc, _ := NewEncoder(Options{Level: 1})
	plain, err := plainEnc.Compress(nil, []byte("no dict here"))
	if err != nil {
		t.Fatal(err)
	}
	if _, required, err := FrameDictID(plain); err != nil || required {
		t.Fatalf("plain frame: required=%v err=%v", required, err)
	}
	if _, _, err := FrameDictID([]byte("junk")); err == nil {
		t.Fatal("junk accepted")
	}
	if _, err := DecompressedSize([]byte("junk")); err == nil {
		t.Fatal("junk size accepted")
	}
}

func TestLiteralRLEBlock(t *testing.T) {
	// Long literal run plus structure: exercises the litsRLE path.
	src := append(bytes.Repeat([]byte{'z'}, 600), compressible(53, 40)...)
	src = append(src, bytes.Repeat([]byte{'z'}, 600)...)
	roundtrip(t, Options{Level: 1}, src)
}

// TestSequencesExtraBits: the sequence step writes the extra bits a
// Writer64 writes field by field, also for a sequence whose three fields
// are as wide as they get (a literal length of 64 KiB, a 30-bit offset and
// a match length past 64 KiB) behind 0 to 7 bits a previous sequence left
// uncarried — more than one 64-bit accumulator holds at once.
func TestSequencesExtraBits(t *testing.T) {
	e, err := NewEncoder(Options{Level: 1})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint32(3); k <= 10; k++ {
		e.seqs = []lz.Sequence{
			{MatchLen: 3, Offset: 1 << k}, // k extra bits
			{LitLen: 65536, MatchLen: 65539, Offset: 1<<30 + 12345},
			{LitLen: 70000, MatchLen: 70000, Offset: 3<<28 + 7},
			{LitLen: 5},
		}
		size := 0
		for _, s := range e.seqs {
			size += int(s.LitLen + s.MatchLen)
		}
		if err := e.sequences(make([]byte, size)); err != nil {
			t.Fatal(err)
		}
		var w bits.Writer64
		reps := newRepState()
		for _, s := range e.seqs[:3] {
			lc, mc := llCode(s.LitLen), mlCode(s.MatchLen)
			ofx, ofn := ofExtra(reps.encode(s.Offset))
			w.WriteBits(uint64(llExtra(s.LitLen, lc)), uint(llExtraBits[lc]))
			w.WriteBits(uint64(ofx), uint(ofn))
			w.WriteBits(uint64(mlExtra(s.MatchLen, mc)), uint(mlExtraBits[mc]))
		}
		if got, want := e.extras.Flush(), w.Flush(); !bytes.Equal(got, want) {
			t.Fatalf("%d bits left before the wide sequences: extra bits %x, want %x", k%8, got, want)
		}
	}
}
