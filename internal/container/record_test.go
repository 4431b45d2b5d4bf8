package container

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/corpus"
)

func recordEngine(t *testing.T) codec.Engine {
	t.Helper()
	eng, err := codec.NewEngine("lz4", codec.WithLevel(1))
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestRecordRoundTrip(t *testing.T) {
	eng := recordEngine(t)
	payloads := [][]byte{
		[]byte("x"),
		bytes.Repeat([]byte("abcdefgh"), 500),
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
	}
	var log, comp []byte
	var err error
	for _, p := range payloads {
		log, comp, err = AppendRecord(log, comp, eng, p)
		if err != nil {
			t.Fatal(err)
		}
	}
	rest := log
	for i, p := range payloads {
		raw, n, err := DecodeRecord(nil, eng, rest)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(raw, p) {
			t.Fatalf("record %d: got %d bytes, want %d", i, len(raw), len(p))
		}
		rest = rest[n:]
	}
	if _, err := RecordBounds(rest); err != io.EOF {
		t.Fatalf("end of log: got %v, want io.EOF", err)
	}
}

func TestRecordTornTail(t *testing.T) {
	eng := recordEngine(t)
	full, _, err := AppendRecord(nil, nil, eng, bytes.Repeat([]byte("hello world "), 100))
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix must classify as torn, never as a valid record.
	for cut := 1; cut < len(full); cut++ {
		_, err := RecordBounds(full[:cut])
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("prefix of %d/%d bytes: got %v, want ErrTruncatedRecord", cut, len(full), err)
		}
	}
	if n, err := RecordBounds(full); err != nil || n != len(full) {
		t.Fatalf("full record: n=%d err=%v, want n=%d", n, err, len(full))
	}
}

func TestRecordCorruption(t *testing.T) {
	eng := recordEngine(t)
	full, _, err := AppendRecord(nil, nil, eng, bytes.Repeat([]byte("payload-"), 64))
	if err != nil {
		t.Fatal(err)
	}
	// A flipped payload bit fails the checksum, not the bounds.
	bad := append([]byte{}, full...)
	bad[len(bad)-1] ^= 0x40
	if n, err := RecordBounds(bad); err != nil || n != len(bad) {
		t.Fatalf("bounds on bit-flipped record: n=%d err=%v", n, err)
	}
	if _, _, err := DecodeRecord(nil, eng, bad); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("decode of bit-flipped record: got %v, want ErrCorrupt", err)
	}
	// A zero first byte (the container terminator) is garbage in a log.
	if _, err := RecordBounds([]byte{0, 1, 2}); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("zero compLen: got %v, want ErrCorrupt", err)
	}
	// An absurd declared length is corruption, not a torn tail.
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	if _, err := RecordBounds(huge); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("oversized compLen: got %v, want ErrCorrupt", err)
	}
}

func TestRecordScratchReuse(t *testing.T) {
	eng := recordEngine(t)
	raw := bytes.Repeat([]byte("scratch reuse "), 200)
	log1, comp, err := AppendRecord(nil, nil, eng, raw)
	if err != nil {
		t.Fatal(err)
	}
	log2, _, err := AppendRecord(nil, comp, eng, raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(log1, log2) {
		t.Fatal("scratch reuse changed the framed bytes")
	}
}

// replay walks a log with DecodeRecord, as WAL replay does, and reports the
// first error other than the clean end of the log.
func replay(eng codec.Engine, log []byte) error {
	for {
		_, n, err := DecodeRecord(nil, eng, log)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		log = log[n:]
	}
}

// TestHostileBlockLengths drives hostile and truncated block headers through
// the record parser: implausible lengths are codec.ErrCorrupt, a plausible
// header with too little behind it is ErrTruncatedRecord, and none is
// trusted before the bytes it declares are there.
func TestHostileBlockLengths(t *testing.T) {
	eng := recordEngine(t)
	var good []byte
	for _, p := range [][]byte{corpus.LogLines(1, 8<<10), corpus.LogLines(2, 8<<10)} {
		var err error
		if good, _, err = AppendRecord(good, nil, eng, p); err != nil {
			t.Fatal(err)
		}
	}
	first, err := RecordBounds(good)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]struct {
		log  []byte
		want error
	}{
		// A declared compressed block past the limit.
		"over-limit": {binary.AppendUvarint(nil, maxCompBlock+1), codec.ErrCorrupt},
		// A 10-byte varint encoding a value past 2^64.
		"varint-overflow": {[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, codec.ErrCorrupt},
		// 2^62 bytes: negative if truncated to a 32-bit int.
		"int-overflow": {binary.AppendUvarint(nil, 1<<62), codec.ErrCorrupt},
		// An in-range declared length with almost nothing behind it.
		"truncated-body": {append(binary.AppendUvarint(binary.AppendUvarint(nil, 16<<20), 16<<20), make([]byte, 8+3)...), ErrTruncatedRecord},
		// A valid log cut inside its second record.
		"truncated-stream": {good[:first+(len(good)-first)/2], ErrTruncatedRecord},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			if err := replay(eng, tc.log); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestTruncatedBlockAllocBounded: a record declaring the largest compressed
// size the parser accepts, backed by a few bytes, must not allocate that
// size.
func TestTruncatedBlockAllocBounded(t *testing.T) {
	hostile := binary.AppendUvarint(nil, maxCompBlock)
	hostile = binary.AppendUvarint(hostile, MaxBlockSize)
	hostile = append(hostile, make([]byte, 8+64)...)
	eng := recordEngine(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := replay(eng, hostile); !errors.Is(err, ErrTruncatedRecord) {
		t.Fatalf("err = %v, want ErrTruncatedRecord", err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("a truncated %d-byte record claim allocated %d bytes, want ≤ 8 MiB", maxCompBlock, grew)
	}
}
