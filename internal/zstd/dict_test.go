package zstd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"

	"github.com/datacomp/datacomp/internal/corpus"
)

// tableDict trains a table-carrying dictionary whose content is an 8 KiB
// prefix of SST-shaped records, on 8 KiB blocks of more of them.
func tableDict(t testing.TB) (tables, content []byte) {
	t.Helper()
	sample := corpus.SSTSample(41, 520<<10)
	content = sample[:8<<10]
	var blocks [][]byte
	for off := 8 << 10; off+8<<10 <= len(sample); off += 8 << 10 {
		blocks = append(blocks, sample[off:off+8<<10])
	}
	tables, err := TrainTables(Options{Level: 1, Dict: content}, blocks)
	if err != nil {
		t.Fatal(err)
	}
	return tables, content
}

// TestTableDictRoundtrip: frames coded against a table-carrying dictionary
// are version 3, decode back with it, and are never longer than the same
// input coded against its content alone — across sizes that take every
// literal and sequence mode.
func TestTableDictRoundtrip(t *testing.T) {
	tables, content := tableDict(t)
	dec, err := NewDecoder(tables)
	if err != nil {
		t.Fatal(err)
	}
	withTables, err := NewEncoder(Options{Level: 1, Dict: tables})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewEncoder(Options{Level: 1, Dict: content})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, size uint16) bool {
		src := corpus.SSTSample(seed, int(size)%(20<<10))
		frame, err := withTables.Compress(nil, src)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := plain.Compress(nil, src)
		if err != nil {
			t.Fatal(err)
		}
		back, err := dec.Decompress(nil, frame)
		if err != nil || !bytes.Equal(back, src) {
			t.Fatalf("seed %d, %d bytes: roundtrip failed (%v)", seed, len(src), err)
		}
		if frame[3] != '3' || len(frame) > len(ref) {
			t.Fatalf("seed %d, %d bytes: version %q, %d bytes against %d with content only", seed, len(src), frame[3], len(frame), len(ref))
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTableDictModes: a block coded with the dictionary's tables cannot be
// decoded without them — not with no dictionary, not with its content
// alone, not under a version 2 header — and fails with a typed error.
func TestTableDictModes(t *testing.T) {
	tables, content := tableDict(t)
	e, err := NewEncoder(Options{Level: 1, Dict: tables})
	if err != nil {
		t.Fatal(err)
	}
	src := corpus.SSTSample(42, 8<<10)
	frame, err := e.Compress(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	for _, dict := range [][]byte{nil, content} {
		if _, err := Decompress(nil, frame, dict); !errors.Is(err, ErrDictMismatch) {
			t.Fatalf("decoded with a %d-byte dictionary: %v, want ErrDictMismatch", len(dict), err)
		}
	}
	// The same blocks under a dictless header, and under a version 2 one.
	h, err := parseHeader(frame)
	if err != nil {
		t.Fatal(err)
	}
	dictless := append([]byte("ZSX3\x00"), binary.AppendUvarint(nil, uint64(len(src)))...)
	dictless = append(dictless, frame[h.headerLen:]...)
	if _, err := Decompress(nil, dictless, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("dictionary-table block without the dictionary: %v, want ErrCorrupt", err)
	}
	v2 := append([]byte{}, frame...)
	v2[3] = '2'
	if _, err := Decompress(nil, v2, tables); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("dictionary-table block under a version 2 header: %v, want ErrCorrupt", err)
	}
}

// BenchmarkTableDict codes and decodes 8 KiB SST-shaped blocks at level 1
// against one dictionary's content alone and with its tables: the per-block
// cost of sending and building tables is the difference.
func BenchmarkTableDict(b *testing.B) {
	tables, content := tableDict(b)
	src := corpus.SSTSample(43, 256<<10)
	for _, c := range []struct {
		name string
		dict []byte
	}{{"content", content}, {"tables", tables}} {
		e, err := NewEncoder(Options{Level: 1, Dict: c.dict})
		if err != nil {
			b.Fatal(err)
		}
		dec, err := NewDecoder(c.dict)
		if err != nil {
			b.Fatal(err)
		}
		var frames [][]byte
		for off := 0; off < len(src); off += 8 << 10 {
			f, err := e.Compress(nil, src[off:off+8<<10])
			if err != nil {
				b.Fatal(err)
			}
			frames = append(frames, f)
		}
		b.Run("compress-"+c.name, func(b *testing.B) {
			b.SetBytes(8 << 10)
			var out []byte
			for i := 0; i < b.N; i++ {
				off := i % len(frames) * (8 << 10)
				out, err = e.Compress(out[:0], src[off:off+8<<10])
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decompress-"+c.name, func(b *testing.B) {
			b.SetBytes(8 << 10)
			var out []byte
			for i := 0; i < b.N; i++ {
				out, err = dec.Decompress(out[:0], frames[i%len(frames)])
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestParseDictRejects: a dictionary that begins with the table magic must
// parse whole, or NewEncoder and NewDecoder refuse it; content-only
// dictionaries are taken as they are.
func TestParseDictRejects(t *testing.T) {
	tables, content := tableDict(t)
	head := len(tables) - len(content)
	for n := 4; n < head; n++ {
		if _, err := NewDecoder(tables[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("tables cut at %d of %d bytes: NewDecoder = %v, want ErrCorrupt", n, head, err)
		}
		if _, err := NewEncoder(Options{Dict: tables[:n]}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("tables cut at %d: NewEncoder = %v, want ErrCorrupt", n, err)
		}
	}
	for _, d := range [][]byte{nil, tableDictMagic[:3], []byte("plain content, no tables")} {
		got, tabs, err := parseDict(d)
		if err != nil || tabs != nil || !bytes.Equal(got, d) {
			t.Fatalf("content-only %q: content %q, tables %v, %v", d, got, tabs != nil, err)
		}
	}
}
