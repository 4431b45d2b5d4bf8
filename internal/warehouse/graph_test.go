package warehouse

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/container"
	"github.com/datacomp/datacomp/internal/graph"
	"github.com/datacomp/datacomp/internal/orc"
)

func TestIngestGraphRoundtrip(t *testing.T) {
	const stripes, rows = 3, 5000
	ds, st, err := IngestGraph(11, stripes, rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Stripes) != stripes {
		t.Fatalf("stripes = %d", len(ds.Stripes))
	}
	if ds.Engine == nil {
		t.Fatal("graph dataset must record its engine for readers")
	}
	readEng, err := readEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	for i, framed := range ds.Stripes {
		cols, err := readStripe(framed, readEng, &Stats{})
		if err != nil {
			t.Fatalf("stripe %d: %v", i, err)
		}
		want := generateBatch(11+int64(i)*100, rows)
		if len(cols) != len(want) {
			t.Fatalf("stripe %d: %d columns, want %d", i, len(cols), len(want))
		}
		for j, w := range want {
			got := cols[j]
			if got.Name != w.Name || got.Kind != w.Kind {
				t.Fatalf("stripe %d col %d: %s/%v, want %s/%v", i, j, got.Name, got.Kind, w.Name, w.Kind)
			}
			for r := range w.Ints {
				if got.Ints[r] != w.Ints[r] {
					t.Fatalf("column %q diverges at row %d", w.Name, r)
				}
			}
			for r := range w.Floats {
				if got.Floats[r] != w.Floats[r] {
					t.Fatalf("column %q diverges at row %d", w.Name, r)
				}
			}
			for r := range w.Strings {
				if got.Strings[r] != w.Strings[r] {
					t.Fatalf("column %q diverges at row %d", w.Name, r)
				}
			}
			for r := range w.Bools {
				if got.Bools[r] != w.Bools[r] {
					t.Fatalf("column %q diverges at row %d", w.Name, r)
				}
			}
		}
	}
	// The typed graph path must store the same data in fewer bytes than the
	// generic zstd-7 ingestion pipeline: timestamps delta down to near
	// nothing and the quantized metric column rescales to small integers.
	_, plain, err := Ingest(11, stripes, rows)
	if err != nil {
		t.Fatal(err)
	}
	if st.StoredBytes >= plain.StoredBytes {
		t.Fatalf("graph ingestion stored %d bytes, plain zstd-7 stored %d", st.StoredBytes, plain.StoredBytes)
	}
}

func TestIngestGraphDownstream(t *testing.T) {
	ds, _, err := IngestGraph(13, 2, 3000)
	if err != nil {
		t.Fatal(err)
	}
	outs, _, err := Shuffle(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, out := range outs {
		for _, framed := range out.Stripes {
			eng, err := readEngine(out)
			if err != nil {
				t.Fatal(err)
			}
			cols, err := readStripe(framed, eng, &Stats{})
			if err != nil {
				t.Fatal(err)
			}
			rows += cols[0].Len()
		}
	}
	if rows != 2*3000 {
		t.Fatalf("shuffle lost rows: %d, want %d", rows, 2*3000)
	}
	if _, err := MLJob(ds, 1); err != nil {
		t.Fatalf("ML job over graph stripes: %v", err)
	}
}

func TestHinterUnwrapsChecksum(t *testing.T) {
	eng, err := codec.NewEngine("graph", codec.WithLevel(3), codec.WithChecksum(true))
	if err != nil {
		t.Fatal(err)
	}
	if hinter(eng) == nil {
		t.Fatal("hinter must unwrap the checksum frame to reach the graph engine")
	}
	zstd, err := engine(ShuffleLevel)
	if err != nil {
		t.Fatal(err)
	}
	if hinter(zstd) != nil {
		t.Fatal("zstd engine must not report a graph hinter")
	}
}

// TestReadStripeUnsupportedColumn pins the failure mode for forward
// compatibility: a directory naming a column kind or encoding this reader
// does not implement must surface ErrColumnEncoding, not silently skip
// the column.
func TestReadStripeUnsupportedColumn(t *testing.T) {
	eng, err := engine(ShuffleLevel)
	if err != nil {
		t.Fatal(err)
	}
	build := func(kind, enc byte) []byte {
		dir := append([]byte(nil), dirVersion)
		dir = binary.AppendUvarint(dir, 1)
		dir = binary.AppendUvarint(dir, uint64(len("c")))
		dir = append(dir, 'c')
		dir = append(dir, kind, enc)
		dir = binary.AppendUvarint(dir, 1)
		var out bytes.Buffer
		bw, err := container.NewBuilder(&out, "zstd", eng, orc.MaxCompressionBlock)
		if err != nil {
			t.Fatal(err)
		}
		if err := bw.AppendBlock(dir); err != nil {
			t.Fatal(err)
		}
		if err := bw.AppendBlock(make([]byte, 16)); err != nil {
			t.Fatal(err)
		}
		if err := bw.Close(); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	for _, tc := range []struct{ kind, enc byte }{
		{9, encORC},                     // unknown kind
		{byte(orc.Int64), 7},            // unknown encoding
		{byte(orc.String), encTypedRaw}, // kind with no typed-raw form
	} {
		_, err := readStripe(build(tc.kind, tc.enc), eng, &Stats{})
		if !errors.Is(err, ErrColumnEncoding) {
			t.Fatalf("kind=%d enc=%d: err = %v, want ErrColumnEncoding", tc.kind, tc.enc, err)
		}
	}
	// Sanity: a supported directory still reads.
	cols := generateBatch(5, 100)
	var st Stats
	framed, err := writeStripe(cols, eng, &st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readStripe(framed, eng, &st); err != nil {
		t.Fatal(err)
	}
}

// TestTypedRawRejectsRagged pins the corrupt-payload path of the typed
// decoder.
func TestTypedRawRejectsRagged(t *testing.T) {
	if _, err := decodeTypedRaw("c", orc.Int64, make([]byte, 12)); !errors.Is(err, errStripe) {
		t.Fatalf("ragged typed payload: err = %v", err)
	}
	col, err := decodeTypedRaw("c", orc.Float64, appendTypedRaw(nil, orc.Column{
		Kind: orc.Float64, Floats: []float64{1.5, -2.25, 0},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Floats) != 3 || col.Floats[1] != -2.25 {
		t.Fatalf("typed roundtrip broken: %+v", col)
	}
	if hint := typedHint(orc.Bool); hint != graph.HintNone {
		t.Fatalf("bool columns must not claim a typed hint: %v", hint)
	}
}
