package fse

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func skewed(seed int64, n, alpha int) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	for i := range out {
		// Geometric-ish skew.
		v := 0
		for rng.Intn(2) == 0 && v < alpha-1 {
			v++
		}
		out[i] = byte(v)
	}
	return out
}

func TestCompressRoundtrip(t *testing.T) {
	for _, n := range []int{2, 16, 100, 1000, 10000, 65536} {
		src := skewed(int64(n), n, 20)
		out, err := Compress(nil, src, 11)
		if err == ErrIncompressible {
			continue
		}
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		back, err := Decompress(nil, out, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(back, src) {
			t.Fatalf("n=%d: roundtrip mismatch", n)
		}
	}
}

func TestCompressShrinks(t *testing.T) {
	src := skewed(42, 32768, 8)
	out, err := Compress(nil, src, 11)
	if err != nil {
		t.Fatal(err)
	}
	h := Count(src)
	ideal := int(h.EstimateCompressedBits()/8) + 1
	if len(out) > ideal+ideal/10+64 {
		t.Fatalf("FSE output %d far above entropy ideal %d", len(out), ideal)
	}
}

func TestCompressIncompressible(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := make([]byte, 4096)
	rng.Read(src)
	if _, err := Compress(nil, src, 11); err != ErrIncompressible {
		t.Fatalf("want ErrIncompressible, got %v", err)
	}
}

func TestCompressSingleSymbol(t *testing.T) {
	src := bytes.Repeat([]byte{7}, 500)
	if _, err := Compress(nil, src, 11); err != ErrIncompressible {
		t.Fatalf("want ErrIncompressible for RLE data, got %v", err)
	}
}

func TestCompressTiny(t *testing.T) {
	if _, err := Compress(nil, []byte{1}, 11); err != ErrIncompressible {
		t.Fatalf("got %v", err)
	}
}

func TestSharedTableEncodeDecode(t *testing.T) {
	// Sequence-coding usage: table built once from one distribution,
	// reused for a different message drawn from the same alphabet.
	train := skewed(1, 4096, 16)
	h := Count(train)
	tableLog := OptimalTableLog(&h, 9)
	norm, err := h.Normalize(tableLog)
	if err != nil {
		t.Fatal(err)
	}
	var enc EncTable
	if err := enc.Init(norm, tableLog); err != nil {
		t.Fatal(err)
	}
	var dec DecTable
	if err := dec.Init(norm, tableLog); err != nil {
		t.Fatal(err)
	}
	msg := skewed(2, 777, 16)
	var s Scratch
	stream, err := s.CompressWith(nil, msg, &enc, false)
	if err != nil {
		t.Fatal(err)
	}
	back, err := s.DecompressWith(nil, stream, len(msg), &dec, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, msg) {
		t.Fatal("shared-table roundtrip mismatch")
	}
	if !s.rr64.Finished() {
		t.Fatalf("bits left over: %d", s.rr64.BitsRemaining())
	}
}

func TestEncodeWithUnknownSymbol(t *testing.T) {
	train := skewed(1, 4096, 8)
	h := Count(train)
	norm, err := h.Normalize(8)
	if err != nil {
		t.Fatal(err)
	}
	var enc EncTable
	if err := enc.Init(norm, 8); err != nil {
		t.Fatal(err)
	}
	var s Scratch
	for _, two := range []bool{false, true} {
		if _, err := s.CompressWith(nil, []byte{200, 1}, &enc, two); err != ErrIncompressible {
			t.Fatalf("two=%v: want ErrIncompressible for out-of-table symbol, got %v", two, err)
		}
	}
}

func TestBuildEncTableRejectsSingleSymbol(t *testing.T) {
	norm := make([]uint16, 3)
	norm[1] = 1 << 8
	var enc EncTable
	if err := enc.Init(norm, 8); err == nil {
		t.Fatal("want error for single-symbol distribution")
	}
}

func TestBuildDecTableRejectsBadSum(t *testing.T) {
	norm := []uint16{3, 5} // sums to 8, not 2^8
	var dec DecTable
	if err := dec.Init(norm, 8); err == nil {
		t.Fatal("want error for bad normalized sum")
	}
}

func TestDecompressCorrupt(t *testing.T) {
	src := skewed(9, 2048, 12)
	out, err := Compress(nil, src, 11)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(nil, out[:2], len(src)); err == nil {
		t.Fatal("truncated payload should fail")
	}
	if _, err := Decompress(nil, nil, 1); err == nil {
		t.Fatal("empty payload should fail")
	}
	// Bad table log.
	bad := append([]byte{}, out...)
	bad[0] = 99
	if _, err := Decompress(nil, bad, len(src)); err == nil {
		t.Fatal("bad table log should fail")
	}
}

func TestNormHeaderRoundtrip(t *testing.T) {
	src := skewed(5, 3000, 25)
	h := Count(src)
	for _, log := range []uint{5, 7, 9, 11, 12} {
		norm, err := h.Normalize(log)
		if err != nil {
			t.Fatal(err)
		}
		hdr := AppendNormHeader(nil, norm, log)
		got, gotLog, consumed, err := readNormHeaderInto(nil, hdr)
		if err != nil {
			t.Fatalf("log %d: %v", log, err)
		}
		if gotLog != log || consumed != len(hdr) {
			t.Fatalf("log %d: gotLog=%d consumed=%d len=%d", log, gotLog, consumed, len(hdr))
		}
		if len(got) != len(norm) {
			t.Fatalf("log %d: count length %d want %d", log, len(got), len(norm))
		}
		for i := range norm {
			if got[i] != norm[i] {
				t.Fatalf("log %d: norm[%d] = %d want %d", log, i, got[i], norm[i])
			}
		}
		// Reads past the end zero-extend, so a truncated header must be
		// caught by the overrun check, not by a failed read.
		for n := 0; n < len(hdr); n++ {
			if _, _, _, err := readNormHeaderInto(nil, hdr[:n]); err != ErrCorrupt {
				t.Fatalf("log %d: %d-byte prefix of %d: err = %v, want ErrCorrupt", log, n, len(hdr), err)
			}
		}
		// Whatever follows the header is not part of it.
		for _, tail := range [][]byte{{0}, {0xff}, bytes.Repeat([]byte{0xa5}, 16)} {
			_, _, consumed, err := readNormHeaderInto(nil, append(append([]byte{}, hdr...), tail...))
			if err != nil || consumed != len(hdr) {
				t.Fatalf("log %d: %d trailing bytes: consumed=%d err=%v, want %d", log, len(tail), consumed, err, len(hdr))
			}
		}
	}
}

func TestQuickRoundtrip(t *testing.T) {
	f := func(seed int64, size uint16, alphaSel, logSel uint8) bool {
		n := int(size)%16384 + 2
		alpha := int(alphaSel)%40 + 2
		src := skewed(seed, n, alpha)
		maxLog := uint(logSel)%(MaxTableLog-MinTableLog+1) + MinTableLog
		out, err := Compress(nil, src, maxLog)
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
	src := skewed(1, 1<<16, 16)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(nil, src, 11); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompress(b *testing.B) {
	src := skewed(1, 1<<16, 16)
	out, err := Compress(nil, src, 11)
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
