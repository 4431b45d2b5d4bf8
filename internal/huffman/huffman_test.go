package huffman

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBuildLengthsKraft(t *testing.T) {
	freqs := []uint32{45, 13, 12, 16, 9, 5}
	lengths, err := BuildLengths(freqs, 15)
	if err != nil {
		t.Fatal(err)
	}
	kraft := 0.0
	for _, l := range lengths {
		if l > 0 {
			kraft += 1.0 / float64(uint64(1)<<l)
		}
	}
	if kraft > 1.0+1e-12 {
		t.Fatalf("kraft sum %v > 1", kraft)
	}
	// The classic example: expected lengths 1,3,3,3,4,4 (total cost 224).
	cost := 0
	for i, l := range lengths {
		cost += int(freqs[i]) * int(l)
	}
	if cost != 224 {
		t.Fatalf("total cost %d, want optimal 224 (lengths %v)", cost, lengths)
	}
}

func TestBuildLengthsLimitRespected(t *testing.T) {
	// Fibonacci-like frequencies force deep trees without a limit.
	freqs := []uint32{1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987}
	for _, limit := range []uint8{4, 6, 8, 11} {
		lengths, err := BuildLengths(freqs, limit)
		if err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		kraft := 0.0
		for i, l := range lengths {
			if l == 0 {
				t.Fatalf("limit %d: symbol %d lost", limit, i)
			}
			if l > limit {
				t.Fatalf("limit %d exceeded: %v", limit, lengths)
			}
			kraft += 1.0 / float64(uint64(1)<<l)
		}
		if kraft > 1.0+1e-12 {
			t.Fatalf("limit %d: kraft %v", limit, kraft)
		}
	}
}

func TestBuildLengthsSingleSymbol(t *testing.T) {
	freqs := make([]uint32, 10)
	freqs[7] = 42
	lengths, err := BuildLengths(freqs, 11)
	if err != nil {
		t.Fatal(err)
	}
	if lengths[7] != 1 {
		t.Fatalf("single symbol length = %d, want 1", lengths[7])
	}
}

func TestBuildLengthsErrors(t *testing.T) {
	if _, err := BuildLengths(make([]uint32, 5), 11); err == nil {
		t.Fatal("want error for empty frequencies")
	}
	freqs := make([]uint32, 8)
	for i := range freqs {
		freqs[i] = 1
	}
	if _, err := BuildLengths(freqs, 2); err == nil {
		t.Fatal("want error when alphabet exceeds 2^maxBits")
	}
}

func TestCanonicalCodesPrefixFree(t *testing.T) {
	lengths := []uint8{2, 1, 3, 3}
	codes := make([]uint32, len(lengths))
	if err := CanonicalCodesInto(codes, lengths); err != nil {
		t.Fatal(err)
	}
	// Check pairwise prefix-freeness under MSB-first interpretation.
	for i := range codes {
		for j := range codes {
			if i == j || lengths[i] == 0 || lengths[j] == 0 {
				continue
			}
			li, lj := lengths[i], lengths[j]
			if li > lj {
				continue
			}
			if codes[j]>>(lj-li) == codes[i] {
				t.Fatalf("code %d is a prefix of code %d", i, j)
			}
		}
	}
}

func TestCanonicalCodesOversubscribed(t *testing.T) {
	if err := CanonicalCodesInto(make([]uint32, 3), []uint8{1, 1, 1}); err == nil {
		t.Fatal("want error for oversubscribed lengths")
	}
}

func TestReverseBits(t *testing.T) {
	if got := ReverseBits(0b1011, 4); got != 0b1101 {
		t.Fatalf("got %#b", got)
	}
	if got := ReverseBits(0b1, 1); got != 0b1 {
		t.Fatalf("got %#b", got)
	}
	if got := ReverseBits(0b100, 3); got != 0b001 {
		t.Fatalf("got %#b", got)
	}
}

func TestCompressRoundtrip(t *testing.T) {
	src := []byte("this is a message with plenty of repeated letters to make huffman coding worthwhile. " +
		"eeeee tttttt aaaaa ooo iii nnn sss hhh rrr ddd lll")
	out, err := Compress(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) >= len(src) {
		t.Fatalf("no compression: %d >= %d", len(out), len(src))
	}
	back, err := Decompress(nil, out, len(src))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, src) {
		t.Fatal("roundtrip mismatch")
	}
}

func TestCompressIncompressible(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := make([]byte, 4096)
	rng.Read(src)
	if _, err := Compress(nil, src); err != ErrIncompressible {
		t.Fatalf("want ErrIncompressible for random data, got %v", err)
	}
}

func TestCompressSingleSymbol(t *testing.T) {
	src := bytes.Repeat([]byte{9}, 100)
	if _, err := Compress(nil, src); err != ErrIncompressible {
		t.Fatalf("single-symbol input should be rejected (RLE territory), got %v", err)
	}
}

func TestCompressTiny(t *testing.T) {
	if _, err := Compress(nil, []byte{1}); err != ErrIncompressible {
		t.Fatalf("got %v", err)
	}
	if _, err := Compress(nil, nil); err != ErrIncompressible {
		t.Fatalf("got %v", err)
	}
}

func TestDecompressCorrupt(t *testing.T) {
	src := bytes.Repeat([]byte("hello huffman "), 40)
	out, err := Compress(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(nil, out[:1], len(src)); err == nil {
		t.Fatal("truncated header should fail")
	}
	// Ask for more symbols than the payload holds.
	if _, err := Decompress(nil, out, len(src)*100); err == nil {
		t.Fatal("overlong request should fail")
	}
}

func TestCompressWithTable(t *testing.T) {
	sample := []byte("abcabcabcaabbbccc")
	var freqs [256]uint32
	for _, b := range sample {
		freqs[b]++
	}
	tab, err := BuildTable(freqs[:])
	if err != nil {
		t.Fatal(err)
	}
	// A table both sides hold codes a payload with no header, one stream or
	// four; a header round-trips it.
	var s Scratch
	for _, src := range [][]byte{[]byte("cbacbacba"), bytes.Repeat([]byte("cbaab"), 10)} {
		for _, four := range []bool{false, true} {
			out, err := s.CompressWith(nil, src, tab, four)
			if four && len(src) < minCompress4 {
				if err != ErrIncompressible {
					t.Fatalf("four streams of %d bytes: %v, want ErrIncompressible", len(src), err)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			decode := tab.Decode
			if four {
				decode = tab.Decode4
			}
			back, err := decode(nil, out, len(src))
			if err != nil || !bytes.Equal(back, src) {
				t.Fatalf("four=%v: roundtrip mismatch (%v)", four, err)
			}
		}
	}
	if _, err := s.CompressWith(nil, []byte("xyz"), tab, false); err != ErrIncompressible {
		t.Fatalf("symbols outside the table: %v, want ErrIncompressible", err)
	}
	hdr := tab.AppendHeader(nil)
	back, n, err := ReadTable(append(hdr, 0xff))
	if err != nil || n != len(hdr) || !bytes.Equal(back.Lengths(), tab.Lengths()) {
		t.Fatalf("ReadTable: %d of %d bytes, %v", n, len(hdr), err)
	}
}

// TestMinSizeBoundsCompress: MinSize never exceeds what Compress or
// Compress4 emits, and is 0 exactly when they refuse the input outright.
func TestMinSizeBoundsCompress(t *testing.T) {
	var s Scratch
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		n := rng.Intn(6000)
		src := make([]byte, n)
		alpha := rng.Intn(255) + 1
		for j := range src {
			src[j] = byte(rng.Intn(alpha) * rng.Intn(2))
		}
		for _, four := range []bool{false, true} {
			compress := s.Compress
			if four {
				compress = s.Compress4
			}
			min := s.MinSize(src, four)
			out, err := compress(nil, src)
			switch {
			case err == nil && len(out) < min:
				t.Fatalf("n=%d four=%v: Compress made %d bytes, MinSize says ≥ %d", n, four, len(out), min)
			case min == 0 && err == nil:
				t.Fatalf("n=%d four=%v: MinSize 0 but Compress coded it", n, four)
			}
		}
	}
}

func TestQuickRoundtrip(t *testing.T) {
	f := func(seed int64, size uint16, alphaSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(size)%8192 + 2
		alpha := int(alphaSel)%30 + 2
		src := make([]byte, n)
		for i := range src {
			// Skewed distribution to keep data compressible.
			src[i] = byte(rng.Intn(alpha) * rng.Intn(2))
		}
		out, err := Compress(nil, src)
		if err == ErrIncompressible {
			return true
		}
		if err != nil {
			return false
		}
		back, err := Decompress(nil, out, n)
		return err == nil && bytes.Equal(back, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCompress(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := make([]byte, 1<<16)
	for i := range src {
		src[i] = byte(rng.Intn(16))
	}
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(nil, src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompress(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := make([]byte, 1<<16)
	for i := range src {
		src[i] = byte(rng.Intn(16))
	}
	out, err := Compress(nil, src)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompress(nil, out, len(src)); err != nil {
			b.Fatal(err)
		}
	}
}
