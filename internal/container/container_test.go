package container

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"testing"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/corpus"
)

// buildSample makes a container from caller-delimited blocks via Builder.
func buildSample(t testing.TB, codecName string, blocks [][]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	b, err := NewBuilder(&buf, codecName, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, blk := range blocks {
		if err := b.AppendBlock(blk); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkBlocks fails unless ra holds exactly blocks, each decoding through
// DecodeBlock.
func checkBlocks(t *testing.T, ra *ReaderAt, blocks [][]byte) {
	t.Helper()
	if ra.NumBlocks() != len(blocks) {
		t.Fatalf("NumBlocks %d, want %d", ra.NumBlocks(), len(blocks))
	}
	for i, blk := range blocks {
		got, err := ra.DecodeBlock(nil, i)
		if err != nil {
			t.Fatalf("DecodeBlock(%d): %v", i, err)
		}
		if !bytes.Equal(got, blk) {
			t.Fatalf("block %d mismatch", i)
		}
	}
}

// TestBuilderReaderAtRoundtrip: every block a Builder appends decodes back
// through DecodeBlock, for every codec over caller-delimited blocks and for
// zstd over SplitBlocks cuts of an empty input, one short block and an
// exact multiple of the block size; container_blocks_encoded_total
// advances once per block.
func TestBuilderReaderAtRoundtrip(t *testing.T) {
	tm()
	build := func(t *testing.T, name string, blocks [][]byte) *ReaderAt {
		t.Helper()
		before := tmBlocksEnc.Value()
		data := buildSample(t, name, blocks)
		if got := tmBlocksEnc.Value() - before; got != int64(len(blocks)) {
			t.Fatalf("container_blocks_encoded_total advanced %d, want %d", got, len(blocks))
		}
		ra, err := Open(data)
		if err != nil {
			t.Fatal(err)
		}
		if ra.CodecName() != name {
			t.Fatalf("codec name %q, want %q", ra.CodecName(), name)
		}
		return ra
	}
	blocks := [][]byte{
		corpus.LogLines(1, 10_000),
		corpus.Records(2, 64<<10),
		[]byte("x"),
		corpus.SourceCode(3, 5_000),
	}
	for _, name := range codec.Names() {
		t.Run(name, func(t *testing.T) {
			checkBlocks(t, build(t, name, blocks), blocks)
		})
	}

	const blockSize = 1 << 10
	src := corpus.LogLines(7, 4*blockSize)
	for _, tc := range []struct {
		name   string
		size   int
		blocks int
	}{
		{"empty", 0, 0},
		{"single-block", 100, 1},
		{"exact-multiple", 4 * blockSize, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			split := codec.SplitBlocks(src[:tc.size], blockSize)
			if len(split) != tc.blocks {
				t.Fatalf("SplitBlocks cut %d blocks, want %d", len(split), tc.blocks)
			}
			checkBlocks(t, build(t, "zstd", split), split)
		})
	}
}

// TestEncodeOutputPinned pins the container format: the SHA-256 of a fixed
// corpus written by a zstd-3 Builder over SplitBlocks of 64 KiB, the last
// block short. A change to the header, the block framing, the footer index
// or the engine's frames changes the digest.
func TestEncodeOutputPinned(t *testing.T) {
	const (
		want      = "1d4ee98d738aedcf3a8be0004d5544ac02365a94c54765093555b453064c3482"
		blockSize = 64 << 10
	)
	src := corpus.LogLines(11, 5*blockSize+1234)
	eng, err := codec.NewEngine("zstd", codec.WithLevel(3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	b, err := NewBuilder(&buf, "zstd", eng, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, blk := range codec.SplitBlocks(src, blockSize) {
		if err := b.AppendBlock(blk); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if s := sha256.Sum256(buf.Bytes()); hex.EncodeToString(s[:]) != want {
		t.Fatalf("container sha256 %x, want %s", s, want)
	}
}

func TestDecodeBlockDecodesExactlyOneBlock(t *testing.T) {
	blocks := [][]byte{
		corpus.LogLines(1, 32<<10),
		corpus.LogLines(2, 32<<10),
		corpus.LogLines(3, 32<<10),
		corpus.LogLines(4, 32<<10),
	}
	data := buildSample(t, "zstd", blocks)
	ra, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	// A single DecodeBlock must decompress exactly one block: the telemetry
	// counter is the ground truth the kvstore point-lookup path relies on.
	before := tmBlocksDec.Value()
	if _, err := ra.DecodeBlock(nil, 2); err != nil {
		t.Fatal(err)
	}
	if got := tmBlocksDec.Value() - before; got != 1 {
		t.Fatalf("DecodeBlock decoded %d blocks, want exactly 1", got)
	}
}

func TestCorruptPayloadDetected(t *testing.T) {
	blocks := [][]byte{corpus.LogLines(1, 64<<10), corpus.LogLines(2, 64<<10)}
	data := buildSample(t, "zstd", blocks)

	// Flip one payload byte: reads of that block must report codec.ErrCorrupt.
	mut := append([]byte{}, data...)
	ra, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	mut[ra.Block(1).Off+10] ^= 0x40
	mra, err := Open(mut)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mra.DecodeBlock(nil, 1); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("DecodeBlock on corrupt payload: %v, want codec.ErrCorrupt", err)
	}
	// Block 0 is untouched and must still decode.
	if _, err := mra.DecodeBlock(nil, 0); err != nil {
		t.Fatalf("DecodeBlock(0) on independent block: %v", err)
	}
}

// TestFrameCarry: a frame read from one container and appended to another
// is byte-identical there, header included, and decodes; a frame whose
// payload does not match its checksum is never returned.
func TestFrameCarry(t *testing.T) {
	blocks := [][]byte{corpus.LogLines(1, 8<<10), corpus.Records(2, 8<<10)}
	src := buildSample(t, "zstd", blocks)
	ra, err := Open(src)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	b, err := NewBuilder(&buf, "zstd", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AppendBlock([]byte("a block of its own")); err != nil {
		t.Fatal(err)
	}
	frame, info, err := ra.ReadFrame(1)
	if err != nil {
		t.Fatal(err)
	}
	if &frame[0] != &src[info.Off] || cap(frame) != info.CompLen {
		t.Fatal("ReadFrame copied the payload, or left capacity an append could write the container through")
	}
	if err := b.AppendFrame(frame, info); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendFrame(frame[1:], info); err == nil {
		t.Fatal("a frame shorter than its index entry was accepted")
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	oa, err := Open(out)
	if err != nil {
		t.Fatal(err)
	}
	// The block header (uvarint compLen | uvarint rawLen | 8-byte sum)
	// and payload are the source's, byte for byte.
	hdrLen := len(appendBlockHeader(nil, info.CompLen, info.RawLen, info.Sum))
	carried := oa.Block(1)
	if !bytes.Equal(out[carried.Off-int64(hdrLen):carried.Off+int64(carried.CompLen)], src[info.Off-int64(hdrLen):info.Off+int64(info.CompLen)]) {
		t.Fatal("carried block differs from its source")
	}
	if got, err := oa.DecodeBlock(nil, 1); err != nil || !bytes.Equal(got, blocks[1]) {
		t.Fatalf("carried block decodes to %d bytes, %v", len(got), err)
	}

	mut := append([]byte{}, src...)
	mut[info.Off+5] ^= 0x01
	mra, err := Open(mut)
	if err != nil {
		t.Fatal(err)
	}
	if f, _, err := mra.ReadFrame(1); !errors.Is(err, errChecksum) || f != nil {
		t.Fatalf("ReadFrame of a flipped payload = %d bytes, %v; want the checksum error", len(f), err)
	}
	if _, _, err := ra.ReadFrame(2); err == nil {
		t.Fatal("ReadFrame past the last block succeeded")
	}
}

func TestHostileFooters(t *testing.T) {
	data := buildSample(t, "lz4", [][]byte{corpus.LogLines(1, 8<<10), corpus.LogLines(2, 8<<10)})
	cases := map[string]func([]byte) []byte{
		"truncated-trailer": func(b []byte) []byte { return b[:len(b)-3] },
		"zero-length":       func(b []byte) []byte { return nil },
		"bad-trailer-magic": func(b []byte) []byte {
			m := append([]byte{}, b...)
			m[len(m)-1] ^= 0xff
			return m
		},
		"oversized-footer-len": func(b []byte) []byte {
			m := append([]byte{}, b...)
			for i := len(m) - trailerLen; i < len(m)-4; i++ {
				m[i] = 0xff
			}
			return m
		},
		"footer-bitflip": func(b []byte) []byte {
			m := append([]byte{}, b...)
			m[len(m)-trailerLen-3] ^= 0x10
			return m
		},
		"bad-header-magic": func(b []byte) []byte {
			m := append([]byte{}, b...)
			m[0] = 'Q'
			return m
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			m := mutate(data)
			ra, err := Open(m)
			if err == nil {
				// A surviving parse must still fail (or succeed harmlessly)
				// on decode — never panic.
				for i := 0; i < ra.NumBlocks(); i++ {
					_, _ = ra.DecodeBlock(nil, i)
				}
				return
			}
			if !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("err = %v, want codec.ErrCorrupt", err)
			}
		})
	}
}

// TestBuilderResetMatchesNew: a Builder reset after writing another
// container — a different codec name, block size and block count — writes
// the bytes a new Builder does.
func TestBuilderResetMatchesNew(t *testing.T) {
	eng, err := codec.NewEngine("zstd", codec.WithLevel(3))
	if err != nil {
		t.Fatal(err)
	}
	blocks := [][]byte{corpus.LogLines(1, 6<<10), corpus.Records(2, 3<<10)}
	write := func(b *Builder, blocks [][]byte) {
		for _, blk := range blocks {
			if err := b.AppendBlock(blk); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
	}
	var fresh, first, reused bytes.Buffer
	nb, err := NewBuilder(&fresh, "zstd", eng, 4096)
	if err != nil {
		t.Fatal(err)
	}
	write(nb, blocks)
	rb, err := NewBuilder(&first, "zstd-other", eng, 0)
	if err != nil {
		t.Fatal(err)
	}
	write(rb, [][]byte{corpus.SourceCode(3, 9<<10), []byte("x"), corpus.LogLines(4, 2<<10)})
	if err := rb.Reset(&reused, "zstd", 4096); err != nil {
		t.Fatal(err)
	}
	write(rb, blocks)
	if !bytes.Equal(reused.Bytes(), fresh.Bytes()) {
		t.Fatal("a reset Builder wrote different bytes from a new one")
	}
}

// TestFooterOffsetOverflow: a footer entry whose offset plus length
// overflows int64 is corrupt, not a slice bound the in-place read panics on.
func TestFooterOffsetOverflow(t *testing.T) {
	data, err := appendHeader(nil, "lz4", 0)
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, 0) // terminator
	data = appendFooter(data, []BlockInfo{{Off: math.MaxInt64 - 4, CompLen: 8, RawLen: 8}})
	if _, err := Open(data); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("Open = %v, want codec.ErrCorrupt", err)
	}
}

// TestNewReaderAtReadsOnce: the io.ReaderAt entry point opens what Open
// opens over the same bytes, and a source shorter than the size it was
// given is corrupt.
func TestNewReaderAtReadsOnce(t *testing.T) {
	blocks := [][]byte{corpus.LogLines(1, 8<<10), corpus.Records(2, 8<<10)}
	data := buildSample(t, "lz4", blocks)
	ra, err := NewReaderAt(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	for i, blk := range blocks {
		if got, err := ra.DecodeBlock(nil, i); err != nil || !bytes.Equal(got, blk) {
			t.Fatalf("block %d: %d bytes, %v", i, len(got), err)
		}
	}
	if _, err := NewReaderAt(bytes.NewReader(data[:len(data)-1]), int64(len(data))); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("short source: %v, want codec.ErrCorrupt", err)
	}
}

func TestBuilderValidation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewBuilder(&buf, "nope", nil, 0); err == nil {
		t.Fatal("unknown codec accepted")
	}
	b, err := NewBuilder(&buf, "lz4", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AppendBlock(nil); err == nil {
		t.Fatal("empty block accepted")
	}
	if err := b.AppendBlock([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if err := b.AppendBlock([]byte("late")); err == nil {
		t.Fatal("append after close accepted")
	}
}

func BenchmarkDecodeBlock(b *testing.B) {
	src := corpus.LogLines(7, 4<<20)
	ra, err := Open(buildSample(b, "zstd", codec.SplitBlocks(src, 64<<10)))
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]byte, 0, 64<<10)
	var berr error
	if dst, berr = ra.DecodeBlock(dst[:0], 0); berr != nil {
		b.Fatal(berr)
	}
	b.SetBytes(int64(ra.Block(0).RawLen))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dst, berr = ra.DecodeBlock(dst[:0], i%ra.NumBlocks()); berr != nil {
			b.Fatal(berr)
		}
	}
}
