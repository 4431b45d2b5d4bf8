// Native fuzz targets for every decoder surface. Under plain `go test`
// these run their seed corpus (valid frames plus mutations); under
// `go test -fuzz=FuzzX .` they explore further. The invariant everywhere:
// arbitrary input may produce an error, never a panic.
package datacomp_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/container"
	"github.com/datacomp/datacomp/internal/corpus"
	"github.com/datacomp/datacomp/internal/dict"
	"github.com/datacomp/datacomp/internal/fse"
	"github.com/datacomp/datacomp/internal/huffman"
	"github.com/datacomp/datacomp/internal/lz4"
	"github.com/datacomp/datacomp/internal/orc"
	"github.com/datacomp/datacomp/internal/rpc"
	"github.com/datacomp/datacomp/internal/telemetry"
	"github.com/datacomp/datacomp/internal/trace"
	"github.com/datacomp/datacomp/internal/zlibx"
	"github.com/datacomp/datacomp/internal/zstd"
)

func seedFrames(f *testing.F, compress func([]byte) ([]byte, error)) {
	f.Helper()
	for _, src := range [][]byte{
		nil,
		[]byte("a"),
		[]byte("hello hello hello hello hello"),
		corpus.LogLines(1, 4096),
		corpus.SSTSample(2, 8192),
	} {
		frame, err := compress(src)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		if len(frame) > 4 {
			mut := append([]byte{}, frame...)
			mut[len(mut)/2] ^= 0x55
			f.Add(mut)
			f.Add(frame[:len(frame)/2])
		}
	}
}

// FuzzZstdDecompress decodes every input as a frame with no dictionary, with
// a dictionary that carries entropy tables (the compat fixture's) and with
// a store's trained dictionary, and parses it as a dictionary: a parse may
// fail, never panic, and allocates its tables only — a bounded amount,
// whatever the input declares.
func FuzzZstdDecompress(f *testing.F) {
	enc, err := zstd.NewEncoder(zstd.Options{Level: 3, Checksum: true})
	if err != nil {
		f.Fatal(err)
	}
	seedFrames(f, func(src []byte) ([]byte, error) { return enc.Compress(nil, src) })
	tables, err := os.ReadFile("testdata/compat/zstd_v3_tables.dict")
	if err != nil {
		f.Fatal(err)
	}
	tenc, err := zstd.NewEncoder(zstd.Options{Level: 1, Dict: tables})
	if err != nil {
		f.Fatal(err)
	}
	seedFrames(f, func(src []byte) ([]byte, error) { return tenc.Compress(nil, src) })
	f.Add(tables)
	f.Add(tables[:len(tables)/8])
	tdec, err := zstd.NewDecoder(tables)
	if err != nil {
		f.Fatal(err)
	}
	// Level 1's Fast parse: plain frames, a frame of repeat offsets (lines
	// that repeat at one stride with a byte changed every few bytes), and
	// the store's blocks and records coded against the dictionary the
	// store trains from them.
	fast, err := zstd.NewEncoder(zstd.Options{Level: 1})
	if err != nil {
		f.Fatal(err)
	}
	seedFrames(f, func(src []byte) ([]byte, error) { return fast.Compress(nil, src) })
	repeats := bytes.Repeat([]byte("ts=1681234567 svc=kv op=get key=user:0000 ok\n"), 200)
	for i := 7; i < len(repeats); i += 11 {
		repeats[i] ^= byte(i)
	}
	frame, err := fast.Compress(nil, repeats)
	if err != nil {
		f.Fatal(err)
	}
	if back, err := zstd.Decompress(nil, frame, nil); err != nil || !bytes.Equal(back, repeats) {
		f.Fatalf("repeat-offset frame does not round-trip: %v", err)
	}
	f.Add(frame)
	records, blocks, storeDict := storeShaped(f)
	senc, err := zstd.NewEncoder(zstd.Options{Level: 1, Dict: storeDict})
	if err != nil {
		f.Fatal(err)
	}
	sdec, err := zstd.NewDecoder(storeDict)
	if err != nil {
		f.Fatal(err)
	}
	for _, src := range [][]byte{blocks[0], blocks[len(blocks)-1], records[0]} {
		frame, err := senc.Compress(nil, src)
		if err != nil {
			f.Fatal(err)
		}
		if back, err := sdec.Decompress(nil, frame); err != nil || !bytes.Equal(back, src) {
			f.Fatalf("store-dictionary frame does not round-trip: %v", err)
		}
		f.Add(frame)
		mut := bytes.Clone(frame)
		mut[len(mut)/2] ^= 0x55
		f.Add(mut)
	}
	const parseAllocBound = 256 << 10
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := zstd.NewDecoder(data)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > parseAllocBound {
			t.Fatalf("parsing %d bytes as a dictionary allocated %d bytes", len(data), n)
		}
		if err != nil && !errors.Is(err, zstd.ErrCorrupt) {
			t.Fatalf("dictionary parse: unexpected error class: %v", err)
		}
		// Bound the work per input: a crafted header may legally promise
		// gigabytes of RLE expansion.
		if n, err := zstd.DecompressedSize(data); err == nil && n > 1<<22 {
			return
		}
		_, _ = zstd.Decompress(nil, data, nil)
		_, _ = tdec.Decompress(nil, data)
		_, _ = sdec.Decompress(nil, data)
		_, _, _ = zstd.FrameDictID(data)
	})
}

func FuzzLZ4Decompress(f *testing.F) {
	enc, err := lz4.NewEncoder(1)
	if err != nil {
		f.Fatal(err)
	}
	seedFrames(f, func(src []byte) ([]byte, error) { return enc.Compress(nil, src) })
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = lz4.Decompress(nil, data)
		_, _ = lz4.DecompressBlock(nil, data, 1024)
	})
}

func FuzzZlibDecompress(f *testing.F) {
	enc, err := zlibx.NewEncoder(6)
	if err != nil {
		f.Fatal(err)
	}
	seedFrames(f, func(src []byte) ([]byte, error) { return enc.Compress(nil, src) })
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = zlibx.Decompress(nil, data)
	})
}

func FuzzFSEDecompress(f *testing.F) {
	syms := make([]byte, 2048)
	for i := range syms {
		syms[i] = byte(i % 7)
	}
	payload, err := fse.Compress(nil, syms, 9)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(payload, 2048)
	f.Add(payload[:len(payload)/2], 100)
	f.Add([]byte{9, 1, 2, 3}, 10)
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n < 0 || n > 1<<16 {
			n = 16
		}
		_, _ = fse.Decompress(nil, data, n)
	})
}

func FuzzHuffmanDecompress(f *testing.F) {
	src := corpus.LogLines(1, 4096)
	payload, err := huffman.Compress(nil, src)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(payload, len(src))
	f.Add(payload[:len(payload)/3], 100)
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n < 0 || n > 1<<16 {
			n = 16
		}
		_, _ = huffman.Decompress(nil, data, n)
	})
}

// FuzzEntropyRoundTrip drives every entropy-stage coder pair — Huffman
// single- and 4-stream, FSE single- and 2-state — through encode→decode on
// arbitrary payloads. Compressible or not, whatever the encoder accepts
// must decode back byte-identical; the raw input is also fed straight to
// the decoders, which may reject it but never panic.
func FuzzEntropyRoundTrip(f *testing.F) {
	allDistinct := make([]byte, 256)
	for i := range allDistinct {
		allDistinct[i] = byte(i)
	}
	for _, seed := range [][]byte{
		nil,                          // empty
		{42},                         // single symbol
		bytes.Repeat([]byte{7}, 500), // RLE
		allDistinct,                  // flat histogram
		corpus.LogLines(3, 2048),
		corpus.Records(5, 4096),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<18 {
			data = data[:1<<18]
		}
		roundtrip := func(name string, compress func() ([]byte, error), decompress func([]byte) ([]byte, error)) {
			enc, err := compress()
			if err != nil {
				if err == huffman.ErrIncompressible || err == fse.ErrIncompressible {
					return
				}
				t.Fatalf("%s compress: %v", name, err)
			}
			dec, err := decompress(enc)
			if err != nil {
				t.Fatalf("%s decompress: %v", name, err)
			}
			if !bytes.Equal(dec, data) {
				t.Fatalf("%s: roundtrip mismatch (%d bytes)", name, len(data))
			}
		}
		roundtrip("huffman",
			func() ([]byte, error) { return huffman.Compress(nil, data) },
			func(enc []byte) ([]byte, error) { return huffman.Decompress(nil, enc, len(data)) })
		roundtrip("huffman4",
			func() ([]byte, error) { return huffman.Compress4(nil, data) },
			func(enc []byte) ([]byte, error) { return huffman.Decompress4(nil, enc, len(data)) })
		roundtrip("fse",
			func() ([]byte, error) { return fse.Compress(nil, data, 11) },
			func(enc []byte) ([]byte, error) { return fse.Decompress(nil, enc, len(data)) })
		roundtrip("fse2",
			func() ([]byte, error) { return fse.Compress2(nil, data, 11) },
			func(enc []byte) ([]byte, error) { return fse.Decompress2(nil, enc, len(data)) })

		// The raw input as a hostile compressed payload: errors allowed,
		// panics are not.
		n := len(data) % (1 << 12)
		_, _ = huffman.Decompress4(nil, data, n)
		_, _ = fse.Decompress2(nil, data, n)
	})
}

// fuzzDictEngine returns a store-shaped 2 KiB dictionary trained on records
// from seed, and the engine a node codes kv.get replies against it with:
// zstd-1 in a checksum frame.
func fuzzDictEngine(f *testing.F, seed int64) ([]byte, codec.Engine) {
	var samples [][]byte
	for i := int64(0); i < 64; i++ {
		samples = append(samples, corpus.Records(seed+i, 1<<10))
	}
	d, err := dict.TrainZstd(1, 2<<10, samples, samples)
	if err != nil {
		f.Fatal(err)
	}
	eng, err := codec.NewEngine("zstd", codec.WithLevel(1), codec.WithDict(d), codec.WithChecksum(true))
	if err != nil {
		f.Fatal(err)
	}
	return d, eng
}

// flagDict is the rpc frame flag of a payload coded against a dictionary,
// and flagError that of a reply carrying an error.
const (
	flagError = 1 << 1
	flagDict  = 1 << 3
)

// FuzzRPCFrame parses every input as one rpc frame: an error, never a
// panic; an accepted frame round-trips; and the parse allocates on the
// bytes it was given, not on the lengths its header claims. Each input is
// also parsed as a reply from a server whose dictionary the client holds:
// a dictionary-coded one decodes, or fails as corrupt or with
// rpc.UnknownDictError.
func FuzzRPCFrame(f *testing.F) {
	for _, frame := range [][]byte{
		rpc.EncodeFrame(0, "echo", nil),
		rpc.EncodeFrame(0, "rank", corpus.LogLines(1, 2048)),
		rpc.EncodeFrame(2, "fail", []byte("handler exploded")),
	} {
		f.Add(frame)
		if len(frame) > 4 {
			mut := append([]byte{}, frame...)
			mut[len(mut)/2] ^= 0x55
			f.Add(mut)
			f.Add(frame[:len(frame)/2])
		}
	}
	// A header that claims a 64 MiB payload and carries ten bytes of it.
	claim := binary.AppendUvarint([]byte{0, 4, 'e', 'c', 'h', 'o'}, 64<<20)
	f.Add(append(append(claim, make([]byte, 8)...), "ten bytes!"...))
	// Dictionary-coded replies: a valid one; one naming a dictionary the
	// client lacks; one cut inside its zstd header; one whose header names
	// the client's dictionary over a frame coded against another. As
	// requests, all four carry a flag only a method registered with a
	// dictionary resolver takes, and parse as a server whose methods all
	// take one reads them.
	known, knownEng := fuzzDictEngine(f, 100)
	_, otherEng := fuzzDictEngine(f, 900)
	rec := corpus.Records(7, 1<<10)
	valid, err := knownEng.Compress(nil, rec)
	if err != nil {
		f.Fatal(err)
	}
	unknown, err := otherEng.Compress(nil, rec)
	if err != nil {
		f.Fatal(err)
	}
	// The zstd header sits behind the 9-byte checksum header: magic, flags,
	// uvarint content size, then the dictionary ID.
	idAt := 9 + 5 + len(binary.AppendUvarint(nil, uint64(len(rec))))
	wrongDict := bytes.Clone(unknown)
	binary.LittleEndian.PutUint32(wrongDict[idAt:], zstd.DictID(known))
	resolve := func(id uint32) []byte {
		if id == zstd.DictID(known) {
			return known
		}
		return nil
	}
	for i, payload := range [][]byte{valid, unknown, unknown[:idAt+2], wrongDict} {
		for _, method := range []string{"kv.get", "kv.put"} {
			frame := rpc.EncodeFrame(flagDict, method, payload)
			f.Add(frame)
			parse := rpc.ParseReplyFrame
			if method == "kv.put" {
				parse = rpc.ParseRequestFrame
			}
			_, _, got, err := parse(frame, resolve)
			var u *rpc.UnknownDictError
			if ok := [...]bool{err == nil && bytes.Equal(got, rec), errors.As(err, &u) && u.Request == (method == "kv.put"), errors.Is(err, rpc.ErrCorrupt), errors.Is(err, rpc.ErrCorrupt)}[i]; !ok {
				f.Fatalf("dictionary seed %d as a %s parses to %v", i, method, err)
			}
		}
	}
	// A server's refusal of a request coded against a dictionary it lacks:
	// flagError|flagDict and the dictionary's 4-byte ID, a reply only.
	f.Add(rpc.EncodeFrame(flagError|flagDict, "", binary.LittleEndian.AppendUint32(nil, zstd.DictID(known))))
	// A frame's payload buffer grows with the bytes that arrive — at most
	// readAhead beyond them at first, then by doubling — whatever length the
	// header claims; the rest of the slack is the reader's own buffers.
	const readAhead, parseSlack = 64 << 10, 16 << 10
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		flags, method, payload, err := rpc.ParseFrame(data)
		runtime.ReadMemStats(&after)
		fuzzReplyFrame(t, data, resolve)
		fuzzRequestFrame(t, data, resolve)
		bound := uint64(len(data)) + readAhead + parseSlack
		if len(data) > readAhead {
			bound += 3 * uint64(len(data)) // doubling past the first step
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > bound {
			t.Fatalf("parsing %d bytes as a frame allocated %d bytes, want at most %d", len(data), n, bound)
		}
		if err != nil {
			// The whole failure surface of the frame parser: a clean EOF
			// between frames, or typed corruption. Anything else (or a
			// panic) is a parser bug.
			if !errors.Is(err, rpc.ErrCorrupt) && !errors.Is(err, io.EOF) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		// Accepted frames must survive a re-encode/re-parse cycle intact
		// (byte equality is too strict: ReadUvarint accepts non-canonical
		// varint encodings that PutUvarint never emits).
		flags2, method2, payload2, err := rpc.ParseFrame(rpc.EncodeFrame(flags, string(method), payload))
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if flags2 != flags || !bytes.Equal(method2, method) || !bytes.Equal(payload2, payload) {
			t.Fatal("frame did not round-trip")
		}
	})
}

// fuzzReplyFrame parses data as a reply frame with resolve's dictionary:
// an error is a clean EOF, corruption or an unknown dictionary, and an
// accepted frame's payload round-trips as an uncoded frame.
func fuzzReplyFrame(t *testing.T, data []byte, resolve func(uint32) []byte) {
	flags, method, payload, err := rpc.ParseReplyFrame(data, resolve)
	var unknown *rpc.UnknownDictError
	if err != nil {
		if !errors.Is(err, rpc.ErrCorrupt) && !errors.Is(err, io.EOF) && !errors.As(err, &unknown) {
			t.Fatalf("reply: unexpected error class: %v", err)
		}
		return
	}
	flags2, method2, payload2, err := rpc.ParseFrame(rpc.EncodeFrame(flags&^flagDict, string(method), payload))
	if err != nil || flags2 != flags&^flagDict || !bytes.Equal(method2, method) || !bytes.Equal(payload2, payload) {
		t.Fatalf("reply did not round-trip: %v", err)
	}
}

// fuzzRequestFrame parses data as a request frame to a server whose methods
// all take requests coded against resolve's dictionary: an error is a clean
// EOF, corruption or an unknown dictionary, and an accepted frame's payload
// round-trips as an uncoded frame.
func fuzzRequestFrame(t *testing.T, data []byte, resolve func(uint32) []byte) {
	flags, method, payload, err := rpc.ParseRequestFrame(data, resolve)
	var unknown *rpc.UnknownDictError
	if err != nil {
		if !errors.Is(err, rpc.ErrCorrupt) && !errors.Is(err, io.EOF) && !(errors.As(err, &unknown) && unknown.Request) {
			t.Fatalf("request: unexpected error class: %v", err)
		}
		return
	}
	flags2, method2, payload2, err := rpc.ParseFrame(rpc.EncodeFrame(flags&^flagDict, string(method), payload))
	if err != nil || flags2 != flags&^flagDict || !bytes.Equal(method2, method) || !bytes.Equal(payload2, payload) {
		t.Fatalf("request did not round-trip: %v", err)
	}
}

func FuzzORCDecodeStripe(f *testing.F) {
	stripe, err := orc.EncodeStripe([]orc.Column{
		{Name: "ts", Kind: orc.Int64, Ints: corpus.TimestampColumn(1, 100)},
		{Name: "ev", Kind: orc.String, Strings: corpus.CategoryColumn(2, 100)},
		{Name: "ok", Kind: orc.Bool, Bools: corpus.FlagColumn(3, 100, 0.5)},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(stripe)
	mut := append([]byte{}, stripe...)
	mut[len(mut)/4] ^= 0xff
	f.Add(mut)
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = orc.DecodeStripe(data)
	})
}

// FuzzContainer drives arbitrary bytes through the container reader. Seeds
// are real containers (several codecs and block sizes) plus mutations; the
// invariants are error-not-panic, an Open whose allocation is bounded by the
// input's size, and a successful Open serving DecodeBlock and ReadFrame in
// place without panicking or writing a byte of its input.
func FuzzContainer(f *testing.F) {
	for i, cfg := range []struct {
		codec            string
		level, blockSize int
	}{
		{"zstd", 1, 1 << 10},
		{"lz4", 1, 512},
		{"zlib", 1, 2 << 10},
	} {
		var buf bytes.Buffer
		eng, err := codec.NewEngine(cfg.codec, codec.WithLevel(cfg.level))
		if err != nil {
			f.Fatal(err)
		}
		b, err := container.NewBuilder(&buf, cfg.codec, eng, cfg.blockSize)
		if err != nil {
			f.Fatal(err)
		}
		for _, blk := range codec.SplitBlocks(corpus.LogLines(int64(i), 3<<10), cfg.blockSize) {
			if err := b.AppendBlock(blk); err != nil {
				f.Fatal(err)
			}
		}
		if err := b.Close(); err != nil {
			f.Fatal(err)
		}
		frame := buf.Bytes()
		f.Add(frame)
		if len(frame) > 8 {
			mut := append([]byte{}, frame...)
			mut[len(mut)/3] ^= 0x55
			f.Add(mut)
			mut2 := append([]byte{}, frame...)
			mut2[len(mut2)-5] ^= 0x80 // inside the trailer
			f.Add(mut2)
			f.Add(frame[:len(frame)/2])
		}
	}
	f.Add([]byte("ZSXS"))
	f.Add([]byte{})
	// One warmed decoder per codec, so an input's cost is its own: Open
	// builds no engine, and what it allocates is its index.
	engines := map[string]codec.Engine{}
	for _, name := range codec.Names() {
		c, _ := codec.Lookup(name)
		_, _, level := c.Levels()
		eng, err := codec.NewEngine(name, codec.WithLevel(level))
		if err != nil {
			f.Fatal(err)
		}
		engines[name] = eng
	}
	// Open allocates the reader, the codec name and one 32-byte index entry
	// per footer entry, which takes 11 footer bytes at least; the slack is
	// mostly the fuzzing engine's own goroutines, allocating meanwhile.
	const openSlack = 64 << 10
	f.Fuzz(func(t *testing.T, data []byte) {
		orig := bytes.Clone(data)
		unchanged := func(what string) {
			if !bytes.Equal(data, orig) {
				t.Fatalf("%s wrote the container it reads in place", what)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ra, err := container.Open(data, container.WithEngine(engines["lz4"]))
		runtime.ReadMemStats(&after)
		if bound := 3*uint64(len(data)) + openSlack; after.TotalAlloc-before.TotalAlloc > bound {
			t.Fatalf("opening %d bytes allocated %d bytes, want at most %d", len(data), after.TotalAlloc-before.TotalAlloc, bound)
		}
		if err != nil {
			if !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		eng, ok := engines[ra.CodecName()]
		if !ok || ra.NumBlocks() > 1024 {
			return // bound the work per input
		}
		var raw int64
		for i := 0; i < ra.NumBlocks(); i++ {
			raw += int64(ra.Block(i).RawLen)
		}
		if raw > 1<<22 {
			return
		}
		if ra, err = container.Open(data, container.WithEngine(eng)); err != nil {
			t.Fatalf("the same bytes opened once and then failed: %v", err)
		}
		for i := 0; i < ra.NumBlocks(); i++ {
			_, _ = ra.DecodeBlock(nil, i)
			unchanged("DecodeBlock")
			if frame, info, err := ra.ReadFrame(i); err == nil && (len(frame) != info.CompLen || cap(frame) != len(frame)) {
				t.Fatalf("ReadFrame(%d) returned %d bytes of capacity %d for a %d-byte payload", i, len(frame), cap(frame), info.CompLen)
			}
			unchanged("ReadFrame")
		}
	})
}

func FuzzTraceWire(f *testing.F) {
	wire := trace.AppendWire(nil, trace.SpanContext{
		TraceID: 0x0123456789abcdef, SpanID: 0xfedcba9876543210, Sampled: true,
	})
	f.Add(wire)
	f.Add(wire[:len(wire)/2])
	for i := range wire {
		mut := append([]byte{}, wire...)
		mut[i] ^= 0x55
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, n, err := trace.ParseWire(data)
		if err != nil {
			// Every rejection must carry the one sentinel callers branch on.
			if !errors.Is(err, trace.ErrWire) {
				t.Fatalf("unexpected error class: %v", err)
			}
			if sc.Valid() || n != 0 {
				t.Fatalf("rejection leaked state: sc=%+v n=%d", sc, n)
			}
			return
		}
		// Accepted contexts are exactly the ones the encoder emits: valid,
		// sampled, and byte-identical under re-encode.
		if n != trace.WireLen || !sc.Valid() || !sc.Sampled {
			t.Fatalf("accepted context inconsistent: sc=%+v n=%d", sc, n)
		}
		if re := trace.AppendWire(nil, sc); !bytes.Equal(re, data[:trace.WireLen]) {
			t.Fatalf("wire context did not round-trip: % x != % x", re, data[:trace.WireLen])
		}
	})
}

// FuzzCPUProfile parses every input as a CPU profile, gzip'd or not, and
// classifies what parses. Seeds are a real runtime profile, its inflated
// protobuf and mutations of both. The invariants are a *ProfileError,
// never a panic, and allocation bounded by the input's size.
func FuzzCPUProfile(f *testing.F) {
	var gz bytes.Buffer
	if err := pprof.StartCPUProfile(&gz); err != nil {
		f.Skip(err) // the test binary runs with -cpuprofile
	}
	pprof.Do(context.Background(), pprof.Labels("service", "fuzz", "level", "3"), func(context.Context) {
		eng, _ := codec.NewEngine("zstd", codec.WithLevel(3))
		data := corpus.LogLines(1, 64<<10)
		for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); {
			comp, _ := eng.Compress(nil, data)
			_, _ = eng.Decompress(nil, comp)
		}
	})
	pprof.StopCPUProfile()
	zr, err := gzip.NewReader(bytes.NewReader(gz.Bytes()))
	if err != nil {
		f.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{gz.Bytes(), raw} {
		f.Add(seed)
		mut := bytes.Clone(seed)
		mut[len(mut)/2] ^= 0x55
		f.Add(mut)
		f.Add(seed[:len(seed)/2])
	}
	f.Add([]byte{})
	f.Add([]byte{0x32, 0x00, 0x22, 0x02, 0x20, 0x01}) // a location's Line sent as a varint
	// The parser sizes every table from a count of its fields, so a field
	// costs at most one table entry: a 72-byte Sample for a 2-byte empty
	// sample field is the worst case, 36 bytes per input byte, 40 with the
	// allocator's size classes. A gzip'd input first inflates to at most
	// 8·n + 64 KiB (collected by io.ReadAll, whose growth allocates up to
	// 5× what it keeps), and that inflated protobuf is what is parsed. The
	// slack is the gzip reader and the fuzzing engine's own goroutines.
	const perByte, slack = 48, 256 << 10
	f.Fuzz(func(t *testing.T, data []byte) {
		n := uint64(len(data))
		bound := perByte*n + slack
		if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
			inflated := 8*n + 64<<10
			bound = (perByte+5)*inflated + slack
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := telemetry.ParseProfile(data)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > bound {
			t.Fatalf("parsing %d bytes allocated %d bytes, want at most %d", len(data), got, bound)
		}
		if err != nil {
			var pe *telemetry.ProfileError
			if !errors.As(err, &pe) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		p.Cycles()
	})
}
