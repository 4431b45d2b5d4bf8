package warehouse

import (
	"errors"
	"testing"
	"time"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/telemetry"
)

func TestIngest(t *testing.T) {
	ds, st, err := Ingest(1, 4, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Stripes) != 4 {
		t.Fatalf("stripes = %d", len(ds.Stripes))
	}
	if st.CompressionRatio() <= 1.2 {
		t.Fatalf("warehouse data should compress: ratio %.2f", st.CompressionRatio())
	}
	if st.CompressTime <= 0 || st.ComputeTime <= 0 || st.EncodeTime <= 0 {
		t.Fatalf("missing accounting: %+v", st)
	}
	if ds.Level != IngestionLevel {
		t.Fatalf("level = %d", ds.Level)
	}
	if ds.StoredBytes() != st.StoredBytes {
		t.Fatalf("stored bytes mismatch: %d vs %d", ds.StoredBytes(), st.StoredBytes)
	}
}

// profileSplit is ProfileStageSplit over at least 100 samples, failing t
// on error.
func profileSplit(t *testing.T, f func()) (mf, ent float64) {
	t.Helper()
	mf, ent, _, err := ProfileStageSplit(100, f)
	if errors.Is(err, telemetry.ErrProfilerBusy) {
		t.Skip(err)
	}
	if err != nil {
		t.Fatal(err)
	}
	return mf, ent
}

// TestProfileStageSplitWaitsOutBusyProfiler holds the CPU profiler, as a
// /profile request does, while ProfileStageSplit starts: the split waits
// for it rather than failing.
func TestProfileStageSplitWaitsOutBusyProfiler(t *testing.T) {
	release, started, stopped := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		telemetry.ProfileCPU(func() { close(started); <-release })
	}()
	select {
	case <-started:
	case <-stopped:
		t.Skip(telemetry.ErrProfilerBusy) // the test binary runs with -cpuprofile
	}
	time.AfterFunc(300*time.Millisecond, func() { close(release) })
	_, _, n, err := ProfileStageSplit(1, func() {
		if _, _, err := Ingest(2, 1, 5000); err != nil {
			t.Error(err)
		}
	})
	<-stopped
	if err != nil || n < 1 {
		t.Fatalf("ProfileStageSplit behind a 300 ms profile: %d samples, err %v", n, err)
	}
}

func TestIngestStageSplitHighLevel(t *testing.T) {
	// DW1 compresses at level 7: match finding should dominate the
	// compression samples (the paper reports up to 80%).
	mf, ent := profileSplit(t, func() {
		if _, _, err := Ingest(2, 3, 20000); err != nil {
			t.Fatal(err)
		}
	})
	if mf < 0.5 {
		t.Fatalf("level-7 match finding should dominate: %.2f", mf)
	}
	if mf+ent > 1 {
		t.Fatalf("stage shares exceed the whole: mf=%.2f ent=%.2f", mf, ent)
	}
}

// TestIngestEngineChecksumStageSplit pins the Fig 7 split through a
// wrapped engine: the checksum frame keeps the zstd engine's frame on the
// stack, so the split is measured whatever wraps the zstd encoder.
func TestIngestEngineChecksumStageSplit(t *testing.T) {
	eng, err := codec.NewEngine("zstd", codec.WithLevel(IngestionLevel), codec.WithChecksum(true))
	if err != nil {
		t.Fatal(err)
	}
	mf, ent := profileSplit(t, func() {
		if _, _, err := IngestEngine(4, 2, 5000, eng); err != nil {
			t.Fatal(err)
		}
	})
	if mf <= 0 || ent <= 0 || mf+ent > 1 {
		t.Fatalf("no stage split through the checksum wrapper: mf=%.2f ent=%.2f", mf, ent)
	}
}

func TestSparkWorkerRoundtrip(t *testing.T) {
	ds, _, err := Ingest(3, 3, 4000)
	if err != nil {
		t.Fatal(err)
	}
	out, st, err := SparkWorker(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Stripes) != len(ds.Stripes) {
		t.Fatalf("output stripes = %d", len(out.Stripes))
	}
	if st.DecompressTime <= 0 {
		t.Fatal("worker must decompress input")
	}
	if st.ComputeTime <= 0 {
		t.Fatal("worker must compute")
	}
	if out.Level != ShuffleLevel {
		t.Fatalf("output level = %d", out.Level)
	}
}

func TestShufflePartitionsAllRows(t *testing.T) {
	ds, _, err := Ingest(5, 2, 6000)
	if err != nil {
		t.Fatal(err)
	}
	outs, st, err := Shuffle(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 4 {
		t.Fatalf("partitions = %d", len(outs))
	}
	nonEmpty := 0
	for _, o := range outs {
		if len(o.Stripes) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 3 {
		t.Fatalf("hash partitioning too skewed: %d non-empty", nonEmpty)
	}
	if st.CompressTime <= 0 || st.DecompressTime <= 0 {
		t.Fatalf("shuffle must decompress and recompress: %+v", st)
	}
	if _, _, err := Shuffle(ds, 0); err == nil {
		t.Fatal("zero workers accepted")
	}
}

func TestShuffleLowLevelStageSplit(t *testing.T) {
	ds, _, err := Ingest(7, 2, 20000)
	if err != nil {
		t.Fatal(err)
	}
	// Level-1 writes: match finding should take a visibly smaller share
	// than DW1's level-7 writes.
	shuffleMF, _ := profileSplit(t, func() {
		if _, _, err := Shuffle(ds, 4); err != nil {
			t.Fatal(err)
		}
	})
	ingestMF, _ := profileSplit(t, func() {
		if _, _, err := Ingest(8, 2, 20000); err != nil {
			t.Fatal(err)
		}
	})
	if shuffleMF >= ingestMF {
		t.Fatalf("level-1 match-find share (%.2f) should be below level-7 (%.2f)", shuffleMF, ingestMF)
	}
}

func TestMLJobReadHeavy(t *testing.T) {
	ds, _, err := Ingest(9, 4, 20000)
	if err != nil {
		t.Fatal(err)
	}
	st, err := MLJob(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st.DecompressTime <= 0 {
		t.Fatal("ML job must decompress input")
	}
	if st.DecompressTime <= st.CompressTime {
		t.Fatalf("ML job should be read-heavy: decomp %v comp %v",
			st.DecompressTime, st.CompressTime)
	}
	if st.ComputeTime <= 0 {
		t.Fatal("ML job must compute")
	}
}

func TestStatsAggregation(t *testing.T) {
	var a, b Stats
	a.RawBytes = 10
	a.CompressTime = 100
	b.RawBytes = 5
	b.CompressTime = 50
	a.add(b)
	if a.RawBytes != 15 || a.CompressTime != 150 {
		t.Fatalf("add broken: %+v", a)
	}
	var zero Stats
	if zero.CompressionRatio() != 0 {
		t.Fatal("zero stats should report zeros")
	}
}

func TestReadStripeColumnsPrunes(t *testing.T) {
	cols := generateBatch(77, 20000)
	eng, err := engine(ShuffleLevel)
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	framed, err := writeStripe(cols, eng, &st)
	if err != nil {
		t.Fatal(err)
	}

	decoded := telemetry.Default.Counter("container_blocks_decoded_total", "container blocks decompressed")

	before := decoded.Value()
	all, err := readStripe(framed, eng, &st)
	if err != nil {
		t.Fatal(err)
	}
	fullBlocks := decoded.Value() - before
	if len(all) != len(cols) {
		t.Fatalf("full read returned %d columns, want %d", len(all), len(cols))
	}

	before = decoded.Value()
	pruned, err := readStripeColumns(framed, eng, &st, mlWantCols)
	if err != nil {
		t.Fatal(err)
	}
	prunedBlocks := decoded.Value() - before
	if len(pruned) != 2 {
		t.Fatalf("pruned read returned %d columns, want 2", len(pruned))
	}
	for _, c := range pruned {
		if !mlWantCols[c.Name] {
			t.Fatalf("pruned read returned unwanted column %q", c.Name)
		}
	}
	// The pruned scan must decompress strictly fewer container blocks than
	// the full scan — the whole point of column-granular blocks.
	if prunedBlocks >= fullBlocks {
		t.Fatalf("pruned read decoded %d blocks, full read %d — no pruning", prunedBlocks, fullBlocks)
	}
	// Pruned columns match the full read's content.
	for _, p := range pruned {
		for _, f := range all {
			if f.Name != p.Name {
				continue
			}
			if len(f.Ints) != len(p.Ints) || len(f.Floats) != len(p.Floats) {
				t.Fatalf("column %q length mismatch after pruning", p.Name)
			}
			for i := range f.Ints {
				if f.Ints[i] != p.Ints[i] {
					t.Fatalf("column %q diverges at row %d", p.Name, i)
				}
			}
			for i := range f.Floats {
				if f.Floats[i] != p.Floats[i] {
					t.Fatalf("column %q diverges at row %d", p.Name, i)
				}
			}
		}
	}
}

func TestReadStripeCorruptDirectory(t *testing.T) {
	eng, err := engine(ShuffleLevel)
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	// Not a container at all.
	if _, err := readStripe([]byte("garbage"), eng, &st); err == nil {
		t.Fatal("garbage stripe accepted")
	}
}
