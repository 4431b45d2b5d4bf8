// Allocation regression gate: a warmed engine must perform zero heap
// allocations per steady-state operation, for every codec, in both
// directions, with and without dictionaries, and through the telemetry
// wrapper. These tests are what keeps the scratch-reuse architecture honest
// — any re-introduced per-op make/append-make shows up as a failure here
// long before it shows up in a fleet profile.
package datacomp_test

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/container"
	"github.com/datacomp/datacomp/internal/corpus"
	"github.com/datacomp/datacomp/internal/telemetry"
	"github.com/datacomp/datacomp/internal/zstd"
)

// allocRuns is how many warmed calls an allocation gate measures.
const allocRuns = 10

// mallocs returns the heap allocations op makes over allocRuns calls, after
// one warm-up call that keeps first-call table and buffer growth out of
// the count. Unlike testing.AllocsPerRun, which divides the total by the
// runs in integers, it misses no allocation: an op that allocates in one
// run of ten counts 1, not 0. The count is process-wide, so no collection
// may start inside it: a cycle starts the runtime's own cleanups (the
// unique package's map sweep allocates), which would read as the op's. The
// collector is off until the runs are counted, and cleanups a cycle before
// it started get the processor first.
func mallocs(op func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	op()
	for i := 0; i < 4; i++ {
		runtime.Gosched()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocRuns; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// allocsPerOp measures the mean steady-state allocations of op over
// allocRuns warmed calls, exactly (mallocs): one allocation more in one run
// of ten reads +0.1, which testing.AllocsPerRun's integer mean hid. A
// collection runs first, so state the collector drops is counted when the
// op rebuilds it. The bounded call-path gates use it.
func allocsPerOp(t *testing.T, op func()) float64 {
	t.Helper()
	op()
	runtime.GC()
	return float64(mallocs(op)) / allocRuns
}

func requireZeroAllocs(t *testing.T, name string, op func()) {
	t.Helper()
	if n := mallocs(op); n != 0 {
		t.Errorf("%s: %d allocations over %d warmed runs, want 0", name, n, allocRuns)
	}
}

func TestSteadyStateAllocs(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	// Cache-item-sized records beside the 64 KiB block: at 256 B the entropy
	// stages often find a section incompressible, the path that has leaked
	// staging-buffer capacity and re-allocated per call.
	payloads := [][]byte{corpus.LogLines(11, 64<<10), corpus.Records(11, 256), corpus.Records(12, 1<<10)}
	for _, cfg := range steadyConfigs() {
		for _, checksum := range []bool{false, true} {
			cfg, checksum := cfg, checksum
			name := fmt.Sprintf("%s_L%d", cfg.codec, cfg.level)
			if checksum {
				// The integrity frame (one XXH64 pass per direction) must not
				// cost the hot path a single allocation.
				name += "_ck"
			}
			t.Run(name, func(t *testing.T) {
				eng, err := codec.NewEngine(cfg.codec,
					codec.WithLevel(cfg.level), codec.WithChecksum(checksum))
				if err != nil {
					t.Fatal(err)
				}
				for _, payload := range payloads {
					steadyRoundtrip(t, eng, payload)
				}
			})
		}
	}
}

// steadyRoundtrip requires eng to compress and decompress payload, warmed,
// without allocating.
func steadyRoundtrip(t *testing.T, eng codec.Engine, payload []byte) {
	t.Helper()
	comp, err := eng.Compress(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip sanity before measuring.
	got, err := eng.Decompress(nil, comp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("roundtrip mismatch")
	}

	size := fmt.Sprintf("%dB ", len(payload))
	cbuf := make([]byte, 0, 2*len(payload))
	requireZeroAllocs(t, size+"compress", func() {
		out, err := eng.Compress(cbuf[:0], payload)
		if err != nil {
			t.Fatal(err)
		}
		cbuf = out
	})
	dbuf := make([]byte, 0, 2*len(payload))
	requireZeroAllocs(t, size+"decompress", func() {
		out, err := eng.Decompress(dbuf[:0], comp)
		if err != nil {
			t.Fatal(err)
		}
		dbuf = out
	})
	// Round-trip through both reused buffers.
	requireZeroAllocs(t, size+"roundtrip", func() {
		var err error
		cbuf, err = eng.Compress(cbuf[:0], payload)
		if err != nil {
			t.Fatal(err)
		}
		dbuf, err = eng.Decompress(dbuf[:0], cbuf)
		if err != nil {
			t.Fatal(err)
		}
	})
	if !bytes.Equal(dbuf, payload) {
		t.Fatal("steady-state roundtrip mismatch")
	}
}

func TestSteadyStateAllocsWithDict(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	// Small-item + shared-dictionary shape (§IV-C): the dictionary seeds
	// the match window, so per-op state is strictly larger than the plain
	// path — it must still be allocation-free once warmed. A dictionary
	// that carries entropy tables adds the sections coded with them and the
	// choice against tables built per frame.
	content := corpus.LogLines(3, 8<<10)
	var samples [][]byte
	for i := int64(0); i < 16; i++ {
		samples = append(samples, corpus.LogLines(20+i, 4<<10))
	}
	tables, err := zstd.TrainTables(zstd.Options{Level: 3, Dict: content}, samples)
	if err != nil {
		t.Fatal(err)
	}
	payload := corpus.LogLines(11, 4<<10)
	for _, c := range []struct {
		name string
		dict []byte
	}{{"content", content}, {"tables", tables}} {
		eng, err := codec.NewEngine("zstd", codec.WithLevel(3), codec.WithDict(c.dict))
		if err != nil {
			t.Fatal(err)
		}
		comp, err := eng.Compress(nil, payload)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Decompress(nil, comp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("%s: dict roundtrip mismatch", c.name)
		}
		cbuf := make([]byte, 0, 2*len(payload))
		dbuf := make([]byte, 0, 2*len(payload))
		requireZeroAllocs(t, c.name+" dict roundtrip", func() {
			var err error
			cbuf, err = eng.Compress(cbuf[:0], payload)
			if err != nil {
				t.Fatal(err)
			}
			dbuf, err = eng.Decompress(dbuf[:0], cbuf)
			if err != nil {
				t.Fatal(err)
			}
		})
		if !bytes.Equal(dbuf, payload) {
			t.Fatalf("%s: steady-state dict roundtrip mismatch", c.name)
		}
	}
}

// TestContainerSteadyStateAllocs gates the container's per-block hot paths:
// once scratch buffers are warm, random-access reads over Open (DecodeBlock
// and ReadFrame in place) and sequential append (Builder.AppendBlock with an
// index warmed by one Reset cycle and a pre-grown sink) must not allocate. This is what makes the kvstore point lookup, its compaction
// carry and the stripe writer allocation-free per block.
func TestContainerSteadyStateAllocs(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	block := corpus.LogLines(11, 32<<10)

	var blob bytes.Buffer
	bw, err := container.NewBuilder(&blob, "zstd", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := bw.AppendBlock(block); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	ra, err := container.Open(blob.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	dst, err := ra.DecodeBlock(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	bi := 0
	requireZeroAllocs(t, "DecodeBlock", func() {
		var err error
		dst, err = ra.DecodeBlock(dst[:0], bi%ra.NumBlocks())
		if err != nil {
			t.Fatal(err)
		}
		bi++
	})

	requireZeroAllocs(t, "ReadFrame", func() {
		if _, _, err := ra.ReadFrame(bi % ra.NumBlocks()); err != nil {
			t.Fatal(err)
		}
		bi++
	})

	// One full container warms the engine, the scratch and the index; Reset
	// keeps the index's capacity, as the kvstore's table workspace does.
	var out bytes.Buffer
	out.Grow(1 << 20)
	ab, err := container.NewBuilder(&out, "zstd", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := ab.AppendBlock(block); err != nil {
			t.Fatal(err)
		}
	}
	if err := ab.Close(); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := ab.Reset(&out, "zstd", 0); err != nil {
		t.Fatal(err)
	}
	requireZeroAllocs(t, "AppendBlock", func() {
		if err := ab.AppendBlock(block); err != nil {
			t.Fatal(err)
		}
	})
}

func TestInstrumentedAllocs(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	// The telemetry wrapper must not reintroduce per-op allocations, or
	// -telemetry runs stop being representative of hot-path cost.
	payload := corpus.LogLines(11, 64<<10)
	reg := telemetry.NewRegistry()
	ie, err := telemetry.InstrumentedEngine("zstd", codec.Options{Level: 3},
		telemetry.InstrumentOptions{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := ie.Compress(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	cbuf := make([]byte, 0, 2*len(payload))
	requireZeroAllocs(t, "instrumented compress", func() {
		out, err := ie.Compress(cbuf[:0], payload)
		if err != nil {
			t.Fatal(err)
		}
		cbuf = out
	})
	dbuf := make([]byte, 0, 2*len(payload))
	requireZeroAllocs(t, "instrumented decompress", func() {
		out, err := ie.Decompress(dbuf[:0], comp)
		if err != nil {
			t.Fatal(err)
		}
		dbuf = out
	})
	if !bytes.Equal(dbuf, payload) {
		t.Fatal("instrumented roundtrip mismatch")
	}
}
