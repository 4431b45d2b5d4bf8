package fse

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// TestCompress2Roundtrip sweeps the interleaved 2-state coder across every
// length from 2 to 599 so both parities of the odd-tail handling and every
// cleanup-loop phase get exercised.
func TestCompress2Roundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 2; n < 600; n++ {
		syms := make([]byte, n)
		for i := range syms {
			syms[i] = byte(rng.Intn(8)) // compressible
		}
		enc, err := Compress2(nil, syms, 9)
		if err == ErrIncompressible {
			continue
		}
		if err != nil {
			t.Fatalf("n=%d compress: %v", n, err)
		}
		dec, err := Decompress2(nil, enc, n)
		if err != nil {
			t.Fatalf("n=%d decompress: %v", n, err)
		}
		if !bytes.Equal(dec, syms) {
			t.Fatalf("n=%d mismatch", n)
		}
	}
}

// TestCompress2Large pushes bigger skewed payloads through a reused Scratch,
// the shape the zstd sequence stage uses.
func TestCompress2Large(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s Scratch
	for trial := 0; trial < 12; trial++ {
		n := 2000 + rng.Intn(50000)
		syms := make([]byte, n)
		for i := range syms {
			syms[i] = byte(rng.Intn(4) * rng.Intn(10))
		}
		enc, err := s.Compress2(nil, syms, 11)
		if err == ErrIncompressible {
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: compress: %v", trial, err)
		}
		dec, err := s.Decompress2(nil, enc, n)
		if err != nil {
			t.Fatalf("trial %d: decompress: %v", trial, err)
		}
		if !bytes.Equal(dec, syms) {
			t.Fatalf("trial %d: mismatch (n=%d)", trial, n)
		}
	}
}

// TestCompressWithTable: a table both sides hold codes a stream with no
// header, one state or two, and its counts survive their header form.
func TestCompressWithTable(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	train := make([]byte, 4000)
	for i := range train {
		train[i] = byte(rng.Intn(6) * rng.Intn(3))
	}
	h := Count(train)
	norm, err := h.Normalize(9)
	if err != nil {
		t.Fatal(err)
	}
	hdr := AppendNormHeader(nil, norm, 9)
	back, log, n, err := ReadNormHeader(append(hdr, 0xff))
	if err != nil || log != 9 || n != len(hdr) || !slices.Equal(back, norm) {
		t.Fatalf("ReadNormHeader: log %d, %d of %d bytes, %v", log, n, len(hdr), err)
	}
	var enc EncTable
	var dec DecTable
	if err := enc.Init(norm, 9); err != nil {
		t.Fatal(err)
	}
	if err := dec.Init(norm, 9); err != nil {
		t.Fatal(err)
	}
	var s Scratch
	for _, syms := range [][]byte{train[:1], train[:2], train[:37], train} {
		for _, two := range []bool{false, true} {
			out, err := s.CompressWith(nil, syms, &enc, two)
			if two && len(syms) < 2 {
				if err != ErrIncompressible {
					t.Fatalf("two states over %d symbols: %v", len(syms), err)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.DecompressWith(nil, out, len(syms), &dec, two)
			if err != nil || !bytes.Equal(got, syms) {
				t.Fatalf("%d symbols, two=%v: roundtrip mismatch (%v)", len(syms), two, err)
			}
		}
	}
	if _, err := s.CompressWith(nil, []byte{0, 200}, &enc, false); err != ErrIncompressible {
		t.Fatalf("a symbol outside the table: %v, want ErrIncompressible", err)
	}
}

// TestMinSizeBoundsCompress: over sequence-code-shaped inputs, MinSize
// never exceeds what Compress or Compress2 emits, and is 0 exactly when
// they refuse the input outright.
func TestMinSizeBoundsCompress(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var s Scratch
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(600)
		alpha := 1 + rng.Intn(53)
		skew := 1 + rng.Intn(6)
		syms := make([]byte, n)
		for i := range syms {
			syms[i] = byte(rng.Intn(alpha) / (1 + rng.Intn(skew)))
		}
		min := s.MinSize(syms, 9)
		for _, two := range []bool{false, true} {
			compress := s.Compress
			if two {
				compress = s.Compress2
			}
			out, err := compress(nil, syms, 9)
			if err == ErrIncompressible {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if min == 0 || len(out) < min {
				t.Fatalf("n=%d alphabet %d two=%v: Compress made %d bytes, MinSize says %d", n, alpha, two, len(out), min)
			}
		}
	}
}

func TestDecompress2Corrupt(t *testing.T) {
	syms := bytes.Repeat([]byte{0, 1, 1, 2, 2, 2, 3}, 200)
	enc, err := Compress2(nil, syms, 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress2(nil, nil, 10); err == nil {
		t.Fatal("empty payload accepted")
	}
	if _, err := Decompress2(nil, enc[:len(enc)/2], len(syms)); err == nil {
		t.Fatal("truncated payload accepted")
	}
	// Wrong declared length must error, not mis-decode silently past the
	// stream or panic.
	if dec, err := Decompress2(nil, enc, len(syms)*2); err == nil && bytes.Equal(dec[:len(syms)], syms) && len(dec) == len(syms)*2 {
		t.Fatal("doubled length produced a 'valid' decode")
	}
}
