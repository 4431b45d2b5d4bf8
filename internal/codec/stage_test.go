package codec_test

import (
	"errors"
	"testing"
	"time"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/corpus"
	"github.com/datacomp/datacomp/internal/telemetry"
)

// TestStageHooker pins that every built-in engine, bare or under the
// checksum frame, has its compress-side match finding attributed to it by
// the CPU profile classifier: the only per-stage split an engine offers.
func TestStageHooker(t *testing.T) {
	data := corpus.LogLines(11, 256<<10)
	for _, name := range []string{"lz4", "zlib", "zstd"} {
		for _, checksum := range []bool{false, true} {
			eng, err := codec.NewEngine(name, codec.WithLevel(1), codec.WithChecksum(checksum))
			if err != nil {
				t.Fatal(err)
			}
			want := telemetry.SampleKey{Codec: name, Dir: telemetry.DirCompress, Stage: telemetry.StageMatchFind}
			var out []byte
			var cerr error
			got := int64(0)
			for deadline := time.Now().Add(20 * time.Second); got == 0; {
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
				got = p.Samples()[want]
				if got == 0 && time.Now().After(deadline) {
					t.Fatalf("%s checksum=%v: no match-finding sample in 20 s; samples %v", name, checksum, p.Samples())
				}
			}
		}
	}
}
