package ads

import (
	"testing"

	"github.com/datacomp/datacomp/internal/corpus"
)

func TestUncompressedPipeline(t *testing.T) {
	p, err := New(Config{Model: corpus.ModelB, Compress: false})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(1, 5); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Requests != 5 {
		t.Fatalf("requests = %d", st.Requests)
	}
	if st.RawBytes != st.WireBytes {
		t.Fatal("uncompressed pipeline should ship raw bytes")
	}
	if st.CompressTime != 0 || st.DecompressTime != 0 {
		t.Fatal("no codec time expected")
	}
	if st.WireTime <= 0 {
		t.Fatal("wire time not modeled")
	}
}

func TestCompressedPipelineSavesWireBytes(t *testing.T) {
	plain, err := New(Config{Model: corpus.ModelA, Compress: false})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := New(Config{Model: corpus.ModelA, Compress: true, Level: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Run(7, 5); err != nil {
		t.Fatal(err)
	}
	if err := comp.Run(7, 5); err != nil {
		t.Fatal(err)
	}
	ps, cs := plain.Stats(), comp.Stats()
	if cs.WireBytes >= ps.WireBytes {
		t.Fatalf("compression should cut wire bytes: %d vs %d", cs.WireBytes, ps.WireBytes)
	}
	if cs.CompressionRatio() <= 1.2 {
		t.Fatalf("ads requests should compress: ratio %.2f", cs.CompressionRatio())
	}
	if cs.CompressTime <= 0 || cs.DecompressTime <= 0 {
		t.Fatal("codec time not accounted")
	}
}

func TestLatencyAccounting(t *testing.T) {
	// On a slow network, compression should reduce total latency; the
	// trade-off reverses only on fast networks. Compression time is real
	// CPU, shared with whatever else runs, so the simulated wire is slow
	// enough that compression wins by a wide margin, not a few percent.
	slow, err := New(Config{Model: corpus.ModelA, Compress: true, Level: 1, NetworkMBps: 2})
	if err != nil {
		t.Fatal(err)
	}
	slowPlain, err := New(Config{Model: corpus.ModelA, Compress: false, NetworkMBps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := slow.Run(3, 5); err != nil {
		t.Fatal(err)
	}
	if err := slowPlain.Run(3, 5); err != nil {
		t.Fatal(err)
	}
	t.Logf("mean latency: compressed %v, plain %v", slow.Stats().MeanLatency(), slowPlain.Stats().MeanLatency())
	if slow.Stats().MeanLatency() >= slowPlain.Stats().MeanLatency() {
		t.Fatalf("on a slow wire compression should win: %v vs %v",
			slow.Stats().MeanLatency(), slowPlain.Stats().MeanLatency())
	}
	if p99 := slow.Stats().LatencyP(99); p99 < slow.Stats().LatencyP(50) {
		t.Fatal("p99 below p50")
	}
}

func TestModelCompressibilityOrdering(t *testing.T) {
	// More sparse content (zeros) => higher ratio. Model A has the most
	// sparse slots relative to dense.
	ratios := map[string]float64{}
	for _, m := range corpus.AdsModels() {
		p, err := New(Config{Model: m, Compress: true, Level: 3})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Run(11, 3); err != nil {
			t.Fatal(err)
		}
		ratios[m.Name] = p.Stats().CompressionRatio()
	}
	t.Logf("model ratios: %v", ratios)
	for name, r := range ratios {
		if r <= 1 {
			t.Errorf("model %s ratio %.2f", name, r)
		}
	}
	// Model C's varint serialization of the same content should change its
	// ratio versus B (the paper's point: serialization matters).
	if ratios["B"] == ratios["C"] {
		t.Error("models B and C should differ")
	}
}

func TestSendErrors(t *testing.T) {
	p, err := New(Config{Model: corpus.ModelB})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Send(nil); err != ErrEmptyRequest {
		t.Fatalf("got %v", err)
	}
	if _, err := New(Config{Compress: true, Codec: "bogus"}); err == nil {
		t.Fatal("bogus codec accepted")
	}
}

func TestZeroStats(t *testing.T) {
	var s Stats
	if s.CompressionRatio() != 0 || s.MeanLatency() != 0 {
		t.Fatal("zero stats should report zeros")
	}
}

func TestGraphPipelineBeatsZstd(t *testing.T) {
	// The graph codec pins a per-corpus transform graph at pipeline build
	// time (split at the header, decimal-rescale the dense float region,
	// varint the sparse ints); on the fixed-shape embedding models it must
	// beat the generic zstd wire ratio. Model C varint-serializes its
	// sparse region, which defeats stride transforms, so it only has to
	// hold parity there.
	for _, tc := range []struct {
		model corpus.AdsModel
		edge  float64
	}{
		{corpus.ModelA, 1.10},
		{corpus.ModelB, 1.10},
		{corpus.ModelC, 0.97},
	} {
		zp, err := New(Config{Model: tc.model, Compress: true, Codec: "zstd", Level: 3})
		if err != nil {
			t.Fatal(err)
		}
		gp, err := New(Config{Model: tc.model, Compress: true, Codec: "graph", Level: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := zp.Run(7, 8); err != nil {
			t.Fatal(err)
		}
		if err := gp.Run(7, 8); err != nil {
			t.Fatal(err)
		}
		zr, gr := zp.Stats().CompressionRatio(), gp.Stats().CompressionRatio()
		if gr < zr*tc.edge {
			t.Errorf("%s: graph ratio %.3f, zstd ratio %.3f (need ≥ %.2f×)", tc.model.Name, gr, zr, tc.edge)
		}
	}
}

func TestGraphPipelineRoundtrip(t *testing.T) {
	p, err := New(Config{Model: corpus.ModelB, Compress: true, Codec: "graph"})
	if err != nil {
		t.Fatal(err)
	}
	// Send verifies decompressed length internally; any graph/codec
	// mismatch surfaces as an error here.
	if err := p.Run(3, 6); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.WireBytes >= st.RawBytes {
		t.Fatalf("graph pipeline did not compress: %d -> %d", st.RawBytes, st.WireBytes)
	}
}
