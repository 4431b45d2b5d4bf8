package warehouse

import (
	"testing"

	"github.com/datacomp/datacomp/internal/adaptive"
	"github.com/datacomp/datacomp/internal/core"
)

// TestIngestEngineAdaptive routes DW1 stripe encoding through an adaptive
// serving handle, forces a config swap mid-stream, and verifies every
// downstream stage still reads the dataset — including stripes written
// under the now-retired generation.
func TestIngestEngineAdaptive(t *testing.T) {
	ctrl, err := adaptive.New(adaptive.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	h, err := ctrl.Handle("warehouse:stripe")
	if err != nil {
		t.Fatal(err)
	}

	// First half of the dataset under the initial generation.
	ds, st, err := IngestEngine(1, 2, 512, h)
	if err != nil {
		t.Fatal(err)
	}
	if st.StoredBytes >= st.RawBytes {
		t.Fatalf("no compression through handle: raw %d stored %d", st.RawBytes, st.StoredBytes)
	}

	// Swap the serving config, then append stripes under the new generation.
	if err := h.Adopt(core.Config{Algorithm: "lz4", Level: 1}); err != nil {
		t.Fatal(err)
	}
	ds2, _, err := IngestEngine(100, 2, 512, h)
	if err != nil {
		t.Fatal(err)
	}
	ds.Stripes = append(ds.Stripes, ds2.Stripes...)

	// Every downstream stage decodes the mixed-generation dataset.
	if _, _, err := SparkWorker(ds, 1); err != nil {
		t.Fatalf("spark over mixed generations: %v", err)
	}
	if _, _, err := Shuffle(ds, 2); err != nil {
		t.Fatalf("shuffle over mixed generations: %v", err)
	}
	if _, err := MLJob(ds, 1); err != nil {
		t.Fatalf("ml scan over mixed generations: %v", err)
	}
}

// TestIngestEngineNil rejects a nil engine instead of panicking mid-stripe.
func TestIngestEngineNil(t *testing.T) {
	if _, _, err := IngestEngine(1, 1, 64, nil); err == nil {
		t.Fatal("nil engine accepted")
	}
}
