package container

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"
	"time"

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

func TestBuilderReaderAtRoundtrip(t *testing.T) {
	blocks := [][]byte{
		corpus.LogLines(1, 10_000),
		corpus.Records(2, 64<<10),
		[]byte("x"),
		corpus.SourceCode(3, 5_000),
	}
	for _, name := range codec.Names() {
		t.Run(name, func(t *testing.T) {
			data := buildSample(t, name, blocks)
			ra, err := Open(data)
			if err != nil {
				t.Fatal(err)
			}
			if ra.CodecName() != name {
				t.Fatalf("codec name %q, want %q", ra.CodecName(), name)
			}
			if ra.NumBlocks() != len(blocks) {
				t.Fatalf("NumBlocks %d, want %d", ra.NumBlocks(), len(blocks))
			}
			var want []byte
			for i, blk := range blocks {
				got, err := ra.DecodeBlock(nil, i)
				if err != nil {
					t.Fatalf("DecodeBlock(%d): %v", i, err)
				}
				if !bytes.Equal(got, blk) {
					t.Fatalf("block %d mismatch", i)
				}
				want = append(want, blk...)
			}
			if ra.Size() != int64(len(want)) {
				t.Fatalf("Size %d, want %d", ra.Size(), len(want))
			}
			// Whole-content ReadAt.
			got := make([]byte, len(want))
			if n, err := ra.ReadAt(got, 0); err != nil || n != len(want) {
				t.Fatalf("ReadAt full: n=%d err=%v", n, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("ReadAt content mismatch")
			}
			// Cross-block range.
			off := int64(len(blocks[0]) - 3)
			span := make([]byte, 10)
			if _, err := ra.ReadAt(span, off); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(span, want[off:off+10]) {
				t.Fatal("cross-block ReadAt mismatch")
			}
			// Past-end reads.
			if _, err := ra.ReadAt(span, ra.Size()); err != io.EOF {
				t.Fatalf("ReadAt at EOF: %v", err)
			}
			if n, err := ra.ReadAt(span, ra.Size()-4); err != io.EOF || n != 4 {
				t.Fatalf("ReadAt tail: n=%d err=%v", n, err)
			}
		})
	}
}

func TestEncodeReaderRoundtrip(t *testing.T) {
	payload := corpus.LogLines(7, 3<<20)
	for _, tc := range []struct {
		name      string
		workers   int
		blockSize int
		size      int
	}{
		{"w1", 1, 64 << 10, 3 << 20},
		{"w4", 4, 64 << 10, 3 << 20},
		{"w8-small-blocks", 8, 4 << 10, 256 << 10},
		{"single-block", 4, 1 << 20, 100},
		{"empty", 4, 64 << 10, 0},
		{"exact-multiple", 3, 1 << 10, 4 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := payload[:tc.size]
			var buf bytes.Buffer
			st, err := Encode(context.Background(), &buf, bytes.NewReader(src),
				Config{Codec: "zstd", Level: 1, BlockSize: tc.blockSize, Workers: tc.workers})
			if err != nil {
				t.Fatal(err)
			}
			wantBlocks := (tc.size + tc.blockSize - 1) / tc.blockSize
			if st.Blocks != int64(wantBlocks) || st.RawBytes != int64(tc.size) {
				t.Fatalf("stats %+v, want %d blocks %d raw bytes", st, wantBlocks, tc.size)
			}
			if st.WrittenBytes != int64(buf.Len()) {
				t.Fatalf("WrittenBytes %d, buffer %d", st.WrittenBytes, buf.Len())
			}

			ra, err := Open(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if ra.Size() != int64(tc.size) || ra.NumBlocks() != wantBlocks || ra.BlockSize() != tc.blockSize {
				t.Fatalf("ReaderAt: size %d, %d blocks of %d; want %d, %d of %d",
					ra.Size(), ra.NumBlocks(), ra.BlockSize(), tc.size, wantBlocks, tc.blockSize)
			}
			if tc.size > 0 {
				got := make([]byte, tc.size)
				if n, err := ra.ReadAt(got, 0); err != nil || n != tc.size {
					t.Fatalf("ReadAt full: n=%d err=%v", n, err)
				}
				if !bytes.Equal(got, src) {
					t.Fatal("roundtrip mismatch")
				}
				probe := make([]byte, min(1024, tc.size))
				off := int64(tc.size / 2)
				if off+int64(len(probe)) > int64(tc.size) {
					off = 0
				}
				if _, err := ra.ReadAt(probe, off); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(probe, src[off:off+int64(len(probe))]) {
					t.Fatal("random-access content mismatch")
				}
			}
		})
	}
}

func TestEncodeSequentialEngineMatchesBuilder(t *testing.T) {
	// Encode output must be decodable by a reader using a caller-supplied
	// engine, as the kvstore and the warehouse open their containers.
	src := corpus.Records(9, 600<<10)
	var buf bytes.Buffer
	if _, err := Encode(context.Background(), &buf, bytes.NewReader(src),
		Config{Codec: "zlib", Level: 6, BlockSize: 128 << 10, Workers: 4}); err != nil {
		t.Fatal(err)
	}
	eng, err := codec.NewEngine("zlib")
	if err != nil {
		t.Fatal(err)
	}
	ra, err := Open(buf.Bytes(), WithEngine(eng))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(src))
	if n, err := ra.ReadAt(got, 0); err != nil || n != len(src) {
		t.Fatalf("ReadAt full: n=%d err=%v", n, err)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("engine-supplied decode mismatch")
	}
}

// TestEncodeOutputPinned pins Encode's bytes: the SHA-256 of a fixed corpus
// encoded at one and at four workers, and the same bytes from a Builder fed
// SplitBlocks of the same size. The corpus ends in a short block.
func TestEncodeOutputPinned(t *testing.T) {
	const (
		want      = "1d4ee98d738aedcf3a8be0004d5544ac02365a94c54765093555b453064c3482"
		blockSize = 64 << 10
	)
	src := corpus.LogLines(11, 5*blockSize+1234)
	digest := func(b []byte) string { s := sha256.Sum256(b); return hex.EncodeToString(s[:]) }
	for _, workers := range []int{1, 4} {
		var buf bytes.Buffer
		if _, err := Encode(context.Background(), &buf, bytes.NewReader(src),
			Config{Codec: "zstd", Level: 3, BlockSize: blockSize, Workers: workers}); err != nil {
			t.Fatal(err)
		}
		if got := digest(buf.Bytes()); got != want {
			t.Fatalf("workers=%d: Encode output sha256 %s, want %s", workers, got, want)
		}
	}
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
	if got := digest(buf.Bytes()); got != want {
		t.Fatalf("Builder over SplitBlocks sha256 %s, want Encode's %s", got, want)
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
	// A ReadAt spanning two blocks decodes exactly those two.
	before = tmBlocksDec.Value()
	span := make([]byte, 1024)
	if _, err := ra.ReadAt(span, int64(len(blocks[0]))-512); err != nil {
		t.Fatal(err)
	}
	if got := tmBlocksDec.Value() - before; got != 2 {
		t.Fatalf("spanning ReadAt decoded %d blocks, want exactly 2", got)
	}
	// A repeat read inside the last decoded block reuses the scratch block.
	before = tmBlocksDec.Value()
	if _, err := ra.ReadAt(span[:16], int64(len(blocks[0]))+8); err != nil {
		t.Fatal(err)
	}
	if got := tmBlocksDec.Value() - before; got != 0 {
		t.Fatalf("cached ReadAt decoded %d blocks, want 0", got)
	}
}

func TestEncodeBlockCounterAdvances(t *testing.T) {
	src := corpus.LogLines(5, 300<<10)
	before := tmBlocksEnc.Value()
	var buf bytes.Buffer
	st, err := Encode(context.Background(), &buf, bytes.NewReader(src),
		Config{Codec: "lz4", BlockSize: 64 << 10, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := tmBlocksEnc.Value() - before; got != st.Blocks {
		t.Fatalf("container_blocks_encoded_total advanced %d, want %d", got, st.Blocks)
	}
}

func TestEncodeContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	// A reader that trickles data forever until the context fires.
	trickle := readerFunc(func(p []byte) (int, error) {
		if ctx.Err() != nil {
			return 0, ctx.Err()
		}
		time.Sleep(time.Millisecond)
		for i := range p {
			p[i] = byte(i)
		}
		return len(p), nil
	})
	done := make(chan error, 1)
	go func() {
		_, err := Encode(ctx, io.Discard, trickle, Config{Codec: "lz4", BlockSize: 4 << 10, Workers: 2})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Encode did not stop after cancellation")
	}
}

type readerFunc func(p []byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

type failingWriter struct {
	limit int
	n     int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	if w.n > w.limit {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestEncodeWriteErrorPropagates(t *testing.T) {
	src := corpus.LogLines(3, 2<<20)
	_, err := Encode(context.Background(), &failingWriter{limit: 10_000}, bytes.NewReader(src),
		Config{Codec: "zstd", Level: 1, BlockSize: 32 << 10, Workers: 4})
	if err == nil || err.Error() != "disk full" {
		t.Fatalf("err = %v, want disk full", err)
	}
}

func TestEncodeSourceErrorPropagates(t *testing.T) {
	boom := errors.New("source exploded")
	src := io.MultiReader(bytes.NewReader(corpus.LogLines(3, 100<<10)),
		readerFunc(func(p []byte) (int, error) { return 0, boom }))
	_, err := Encode(context.Background(), io.Discard, src,
		Config{Codec: "zstd", Level: 1, BlockSize: 32 << 10, Workers: 4})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
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

	all := make([]byte, mra.Size())
	if _, err := mra.ReadAt(all, 0); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("ReadAt across the corrupt block: %v, want codec.ErrCorrupt", err)
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

// TestParallelSpeedup is the scaling gate: on a machine with ≥ 8 CPUs,
// 8-worker streaming encode must beat single-worker by ≥ 3× on the
// benchsnap corpus. Skipped on smaller machines (including 1-2 core CI
// runners) where the pipeline has no parallelism to expose.
func TestParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if runtime.GOMAXPROCS(0) < 8 {
		t.Skipf("need ≥ 8 CPUs for the 8-worker gate, have %d", runtime.GOMAXPROCS(0))
	}
	src := corpus.LogLines(7, 8<<20)
	throughput := func(workers int) float64 {
		best := 0.0
		for trial := 0; trial < 3; trial++ {
			t0 := time.Now()
			if _, err := Encode(context.Background(), io.Discard, bytes.NewReader(src),
				Config{Codec: "zstd", Level: 9, BlockSize: 256 << 10, Workers: workers}); err != nil {
				t.Fatal(err)
			}
			if mbps := float64(len(src)) / time.Since(t0).Seconds() / 1e6; mbps > best {
				best = mbps
			}
		}
		return best
	}
	w1 := throughput(1)
	w8 := throughput(8)
	t.Logf("streaming encode: 1 worker %.1f MB/s, 8 workers %.1f MB/s (%.2fx)", w1, w8, w8/w1)
	if w8 < 3*w1 {
		t.Fatalf("8-worker encode %.1f MB/s < 3x the 1-worker %.1f MB/s", w8, w1)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func BenchmarkEncode(b *testing.B) {
	src := corpus.LogLines(7, 8<<20)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Encode(context.Background(), io.Discard, bytes.NewReader(src),
					Config{Codec: "zstd", Level: 3, BlockSize: 256 << 10, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecodeBlock(b *testing.B) {
	src := corpus.LogLines(7, 4<<20)
	var buf bytes.Buffer
	if _, err := Encode(context.Background(), &buf, bytes.NewReader(src),
		Config{Codec: "zstd", Level: 3, BlockSize: 64 << 10, Workers: 1}); err != nil {
		b.Fatal(err)
	}
	ra, err := Open(buf.Bytes())
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
