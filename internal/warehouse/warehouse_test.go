package warehouse

import (
	"testing"

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

func TestIngestStageSplitHighLevel(t *testing.T) {
	// DW1 compresses at level 7: match finding should dominate the
	// compression time (the paper reports up to 80%).
	_, st, err := Ingest(2, 3, 20000)
	if err != nil {
		t.Fatal(err)
	}
	mf := st.MatchFindFraction()
	if mf < 0.5 {
		t.Fatalf("level-7 match finding should dominate: %.2f", mf)
	}
	if st.MatchFindTime+st.EntropyTime > st.CompressTime+st.CompressTime/10 {
		t.Fatalf("stage times exceed total: mf=%v ent=%v total=%v",
			st.MatchFindTime, st.EntropyTime, st.CompressTime)
	}
}

// TestIngestEngineChecksumStageSplit pins the Fig 7 split through a
// wrapped engine: the checksum frame forwards the stage hook, so the split
// is measured whatever wraps the zstd encoder.
func TestIngestEngineChecksumStageSplit(t *testing.T) {
	eng, err := codec.NewEngine("zstd", codec.WithLevel(IngestionLevel), codec.WithChecksum(true))
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := IngestEngine(4, 2, 5000, eng)
	if err != nil {
		t.Fatal(err)
	}
	if st.MatchFindTime <= 0 || st.EntropyTime <= 0 {
		t.Fatalf("no stage split through the checksum wrapper: mf=%v ent=%v", st.MatchFindTime, st.EntropyTime)
	}
	if st.MatchFindTime+st.EntropyTime > st.CompressTime {
		t.Fatalf("stage times exceed total: mf=%v ent=%v total=%v",
			st.MatchFindTime, st.EntropyTime, st.CompressTime)
	}
}

// TestStageClockSkipsDecode pins that decoding through a hooked engine
// charges no stage time: the zstd decoder fires the encoder's hook too.
func TestStageClockSkipsDecode(t *testing.T) {
	eng, err := engine(ShuffleLevel)
	if err != nil {
		t.Fatal(err)
	}
	sc := hookStages(eng)
	var st Stats
	framed, err := writeStripe(generateBatch(3, 4000), eng, sc, &st)
	if err != nil {
		t.Fatal(err)
	}
	if st.EntropyTime <= 0 {
		t.Fatalf("no entropy time on write: %+v", st)
	}
	before := sc.clock.Nanos
	if _, err := readStripe(framed, eng, &Stats{}); err != nil {
		t.Fatal(err)
	}
	if sc.clock.Nanos != before {
		t.Fatalf("decode charged stage time: %v, was %v", sc.clock.Nanos, before)
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
	_, st, err := Shuffle(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Level-1 writes: match finding should take a visibly smaller share
	// than DW1's level-7 writes.
	_, ingestStats, err := Ingest(8, 2, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if st.MatchFindFraction() >= ingestStats.MatchFindFraction() {
		t.Fatalf("level-1 match-find share (%.2f) should be below level-7 (%.2f)",
			st.MatchFindFraction(), ingestStats.MatchFindFraction())
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
	if zero.CompressionRatio() != 0 || zero.ZstdCyclesFraction() != 0 || zero.MatchFindFraction() != 0 {
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
	framed, err := writeStripe(cols, eng, hookStages(eng), &st)
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
