package telemetry

import (
	"testing"
	"time"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/corpus"
)

func benchEngines(b *testing.B) (raw codec.Engine, inst *Instrumented, data []byte) {
	b.Helper()
	raw, err := codec.NewEngine("zstd", codec.WithLevel(3))
	if err != nil {
		b.Fatal(err)
	}
	eng, err := codec.NewEngine("zstd", codec.WithLevel(3))
	if err != nil {
		b.Fatal(err)
	}
	inst = Instrument(eng, InstrumentOptions{Codec: "zstd", Level: 3, Registry: NewRegistry()})
	return raw, inst, corpus.LogLines(99, 1<<20)
}

func BenchmarkCompressRaw(b *testing.B) {
	raw, _, data := benchEngines(b)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := raw.Compress(nil, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressInstrumented(b *testing.B) {
	_, inst, data := benchEngines(b)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Compress(nil, data); err != nil {
			b.Fatal(err)
		}
	}
}

// TestInstrumentOverhead asserts the acceptance bound: instrumented
// compression stays within 5% of the raw engine. The wrapper reads the
// clock twice and updates a few counters per op; the work per op is
// milliseconds, so its cost should be far below the bound. Timing noise is
// absorbed by taking each mode's best of five rounds, and a retry. Each
// round times one raw and one instrumented run back to back, the order
// swapped every round, so a burst of noise lands on both modes rather than
// on whichever ran through it.
func TestInstrumentOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	raw, err := codec.NewEngine("zstd", codec.WithLevel(3))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := codec.NewEngine("zstd", codec.WithLevel(3))
	if err != nil {
		t.Fatal(err)
	}
	inst := Instrument(eng, InstrumentOptions{Codec: "zstd", Level: 3, Registry: NewRegistry()})
	data := corpus.LogLines(99, 2<<20)

	timeOne := func(e codec.Engine) time.Duration {
		t0 := time.Now()
		if _, err := e.Compress(nil, data); err != nil {
			t.Fatal(err)
		}
		return time.Since(t0)
	}
	measure := func(rounds int) (rawBest, instBest time.Duration) {
		rawBest, instBest = time.Duration(1<<63-1), time.Duration(1<<63-1)
		for r := 0; r < rounds; r++ {
			if r%2 == 0 {
				rawBest = min(rawBest, timeOne(raw))
				instBest = min(instBest, timeOne(inst))
			} else {
				instBest = min(instBest, timeOne(inst))
				rawBest = min(rawBest, timeOne(raw))
			}
		}
		return rawBest, instBest
	}

	// Warm up both paths (page-in, matcher tables).
	measure(1)

	for attempt := 0; ; attempt++ {
		rawBest, instBest := measure(5)
		overhead := float64(instBest-rawBest) / float64(rawBest)
		if overhead < 0.05 {
			return
		}
		if attempt >= 2 {
			t.Fatalf("instrumented compress overhead %.1f%% (raw %v, instrumented %v), want < 5%%",
				overhead*100, rawBest, instBest)
		}
		t.Logf("attempt %d: overhead %.1f%%, retrying", attempt, overhead*100)
	}
}
