package zstd_test

import (
	"errors"
	"testing"
	"time"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/corpus"
	"github.com/datacomp/datacomp/internal/telemetry"
)

// TestStagesAccounted pins that a zstd compress loop's CPU samples fall
// into both of the encoder's stages, match finding and entropy coding,
// and that none of them is attributed to decompression.
func TestStagesAccounted(t *testing.T) {
	eng, err := codec.NewEngine("zstd", codec.WithLevel(7))
	if err != nil {
		t.Fatal(err)
	}
	data := corpus.LogLines(17, 256<<10)
	all := telemetry.NewCycleProfile()
	stage := func(s string) int64 {
		return all.Samples()[telemetry.SampleKey{Codec: "zstd", Dir: telemetry.DirCompress, Stage: s}]
	}
	var out []byte
	var cerr error
	for deadline := time.Now().Add(20 * time.Second); stage(telemetry.StageMatchFind) == 0 || stage(telemetry.StageEntropy) == 0; {
		if time.Now().After(deadline) {
			t.Fatalf("stage accounting missing after 20 s: %v", all.Samples())
		}
		p, err := telemetry.ProfileCPU(func() {
			for end := time.Now().Add(250 * time.Millisecond); time.Now().Before(end); {
				if out, cerr = eng.Compress(out[:0], data); cerr != nil {
					return
				}
			}
		})
		if errors.Is(err, telemetry.ErrProfilerBusy) {
			t.Skip(err)
		}
		if err != nil {
			t.Fatal(err)
		}
		if cerr != nil {
			t.Fatal(cerr)
		}
		for k, n := range p.Samples() {
			all.Add(k, n)
		}
	}
	for k := range all.Samples() {
		if k.Codec != "" && k.Dir != telemetry.DirCompress {
			t.Fatalf("a compress loop gave a %v sample: %+v", k.Dir, k)
		}
	}
}
