package datacomp_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/corpus"
)

// TestLZ4ZlibxOutputPinned pins the bytes lz4 and zlibx write over fixed
// corpora. Both share lz's Fast parse with zstd, and neither format has
// repeat offsets: a change to how zstd's parse uses them must leave these
// digests alone. lz4 is the link and WAL codec, so a moved digest here moves
// put wire bytes and WAL bytes.
func TestLZ4ZlibxOutputPinned(t *testing.T) {
	inputs := [][]byte{
		corpus.LogLines(7, 128<<10),
		corpus.SourceCode(7, 128<<10),
		corpus.Records(7, 128<<10),
		corpus.SSTSample(2, 8<<10),
		corpus.Records(3, 1<<10),
		corpus.LogLines(5, 300),
	}
	for _, c := range []struct {
		codec string
		level int
		want  string
	}{
		{"lz4", 1, "9ed597f378ab899368e1aed2"},
		{"lz4", 9, "ca48444679141090d24efde3"},
		{"zlib", 1, "5d6169d8e0a8a857b5c332cf"},
	} {
		eng, err := codec.NewEngine(c.codec, codec.WithLevel(c.level))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.New()
		for _, in := range inputs {
			out, err := eng.Compress(nil, in)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(sum, "%d|", len(out))
			sum.Write(out)
		}
		if got := fmt.Sprintf("%x", sum.Sum(nil)[:12]); got != c.want {
			t.Errorf("%s-%d output digest %s, pinned %s", c.codec, c.level, got, c.want)
		}
	}
}
