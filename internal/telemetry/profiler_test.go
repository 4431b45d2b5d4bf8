package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCycleProfileShareBy(t *testing.T) {
	p := NewCycleProfile()
	p.Add(SampleKey{Service: "web", Codec: "zstd", Level: 1}, 30)
	p.Add(SampleKey{Service: "web", Codec: "lz4", Level: 1}, 10)
	p.Add(SampleKey{Service: "web"}, 60) // application code
	if p.Total() != 100 {
		t.Fatalf("total = %d", p.Total())
	}
	shares := p.ShareBy(func(k SampleKey) (string, bool) {
		return k.Codec, k.Codec != ""
	})
	// Skipped (application) samples still count toward the denominator.
	if math.Abs(shares["zstd"]-0.30) > 1e-12 {
		t.Fatalf("zstd share = %v, want 0.30", shares["zstd"])
	}
	if math.Abs(shares["lz4"]-0.10) > 1e-12 {
		t.Fatalf("lz4 share = %v, want 0.10", shares["lz4"])
	}
	if _, ok := shares[""]; ok {
		t.Fatal("skipped group must be absent")
	}
}

func TestCycleProfileStageShares(t *testing.T) {
	p := NewCycleProfile()
	p.Add(SampleKey{Service: "a"}, 1000) // app samples excluded entirely
	p.Add(SampleKey{Codec: "zstd", Level: 3, Dir: DirCompress, Stage: StageMatchFind}, 60)
	p.Add(SampleKey{Codec: "zstd", Level: 3, Dir: DirCompress, Stage: StageEntropy}, 30)
	p.Add(SampleKey{Codec: "zstd", Level: 3, Dir: DirDecompress, Stage: StageOther}, 10)
	shares := p.StageShares()
	if len(shares) != 3 {
		t.Fatalf("got %d rows, want 3", len(shares))
	}
	if shares[0].Stage != StageMatchFind || math.Abs(shares[0].Share-0.6) > 1e-12 {
		t.Fatalf("top row = %+v, want matchfind 60%%", shares[0])
	}
	for i := 1; i < len(shares); i++ {
		if shares[i].Share > shares[i-1].Share {
			t.Fatal("shares not sorted descending")
		}
	}
	out := FormatStageShares(shares)
	for _, want := range []string{"matchfind", "entropy", "zstd", "60.0%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted output missing %q:\n%s", want, out)
		}
	}
}

func TestCycleProfileConcurrentAdd(t *testing.T) {
	p := NewCycleProfile()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := SampleKey{Codec: "zstd", Level: i}
			for j := 0; j < 1000; j++ {
				p.Add(k, 1)
			}
		}(g)
	}
	wg.Wait()
	if p.Total() != 8000 {
		t.Fatalf("total = %d", p.Total())
	}
}
