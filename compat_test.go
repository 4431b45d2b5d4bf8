// Backward-compatibility gate for the zstd frame format. The fixtures under
// testdata/compat are v1 ('ZSX1') frames produced before the multi-stream
// entropy stage landed, and a v3 ('ZSX3') frame coded against a dictionary
// that carries entropy tables, committed with that dictionary; the decoder
// must keep decoding them byte-identically forever, whatever the encoder
// and the table trainer emit later.
package datacomp_test

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"github.com/datacomp/datacomp/internal/corpus"
	"github.com/datacomp/datacomp/internal/zstd"
)

// TestZstdV3TableDictCompat: an 8 KiB SST-shaped block coded at level 1
// against a 2 KiB dictionary whose tables were trained on 8 KiB blocks of
// the same corpus — its literals coded with the dictionary's Huffman table
// in four streams, its three sequence streams with the dictionary's FSE
// tables — decodes to the regenerated block with that dictionary, and with
// no other.
func TestZstdV3TableDictCompat(t *testing.T) {
	frame, err := os.ReadFile("testdata/compat/zstd_v3_tables_block.bin")
	if err != nil {
		t.Fatal(err)
	}
	dict, err := os.ReadFile("testdata/compat/zstd_v3_tables.dict")
	if err != nil {
		t.Fatal(err)
	}
	want := corpus.SSTSample(9, 8<<10)
	if id, hasDict, err := zstd.FrameDictID(frame); err != nil || !hasDict || id != zstd.DictID(dict) || string(frame[:4]) != "ZSX3" {
		t.Fatalf("frame %q: dictionary %08x (required=%v, %v), want %08x", frame[:4], id, hasDict, err, zstd.DictID(dict))
	}
	got, err := zstd.Decompress(nil, frame, dict)
	if err != nil {
		t.Fatalf("decode v3 frame: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("v3 frame decoded to wrong payload (%d bytes, want %d)", len(got), len(want))
	}
	if _, err := zstd.Decompress(nil, frame, nil); !errors.Is(err, zstd.ErrDictMismatch) {
		t.Fatalf("decoded without its dictionary: %v, want ErrDictMismatch", err)
	}
}

func TestZstdV1FrameCompat(t *testing.T) {
	// The corpus generators are deterministic, so the original payloads are
	// regenerated rather than stored.
	t.Run("logs_l3_checksum", func(t *testing.T) {
		frame, err := os.ReadFile("testdata/compat/zstd_v1_logs_l3_ck.bin")
		if err != nil {
			t.Fatal(err)
		}
		want := corpus.LogLines(7, 96<<10)
		got, err := zstd.Decompress(nil, frame, nil)
		if err != nil {
			t.Fatalf("decode v1 frame: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("v1 frame decoded to wrong payload (%d bytes, want %d)", len(got), len(want))
		}
	})
	t.Run("dict_item", func(t *testing.T) {
		frame, err := os.ReadFile("testdata/compat/zstd_v1_dict_item.bin")
		if err != nil {
			t.Fatal(err)
		}
		dict := corpus.LogLines(3, 8<<10)
		want := corpus.LogLines(11, 4<<10)
		id, hasDict, err := zstd.FrameDictID(frame)
		if err != nil || !hasDict {
			t.Fatalf("FrameDictID: id=%d hasDict=%v err=%v", id, hasDict, err)
		}
		if wantID := zstd.DictID(dict); id != wantID {
			t.Fatalf("dict ID %d, want %d", id, wantID)
		}
		got, err := zstd.Decompress(nil, frame, dict)
		if err != nil {
			t.Fatalf("decode v1 dict frame: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("v1 dict frame decoded to wrong payload (%d bytes, want %d)", len(got), len(want))
		}
	})
	// A v1 frame must never carry v2-only block modes: flipping the version
	// byte of a fresh v2 frame back to '1' has to fail decoding whenever the
	// frame actually uses them, instead of mis-decoding.
	t.Run("v2_modes_rejected_in_v1", func(t *testing.T) {
		enc, err := zstd.NewEncoder(zstd.Options{Level: 3})
		if err != nil {
			t.Fatal(err)
		}
		src := corpus.LogLines(7, 96<<10) // large: literals use the 4-stream mode
		frame, err := enc.Compress(nil, src)
		if err != nil {
			t.Fatal(err)
		}
		if frame[3] != '2' {
			t.Fatalf("fresh frame magic byte = %q, want '2'", frame[3])
		}
		frame[3] = '1'
		if _, err := zstd.Decompress(nil, frame, nil); err == nil {
			t.Fatal("v2-mode blocks accepted under a v1 header")
		}
	})
}
