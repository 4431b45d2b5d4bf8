package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/datacomp/datacomp/internal/corpus"
	"github.com/datacomp/datacomp/internal/zstd"
)

func adsEngine(t *testing.T) *CompEngine {
	t.Helper()
	p := DefaultCostParams()
	p.AlphaStorage = 0 // ads: intermediate data is not stored
	return &CompEngine{
		Samples: corpus.ModelB.Requests(1, 3),
		Params:  p,
	}
}

func TestEvaluateBasics(t *testing.T) {
	e := adsEngine(t)
	r, err := e.Evaluate(Config{Algorithm: "zstd", Level: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible {
		t.Fatalf("unconstrained config infeasible: %s", r.Violation)
	}
	if r.ComputeCost <= 0 || r.NetworkCost <= 0 {
		t.Fatalf("costs not computed: %+v", r)
	}
	if r.StorageCost != 0 {
		t.Fatalf("storage cost should be zero with alpha=0: %v", r.StorageCost)
	}
	if r.TotalCost() != r.ComputeCost+r.StorageCost+r.NetworkCost {
		t.Fatal("total mismatch")
	}
	if r.Metrics.Ratio() <= 1 {
		t.Fatalf("ratio = %v", r.Metrics.Ratio())
	}
}

func TestEvaluateErrors(t *testing.T) {
	e := adsEngine(t)
	if _, err := e.Evaluate(Config{Algorithm: "nope", Level: 1}); err == nil {
		t.Error("unknown codec accepted")
	}
	empty := &CompEngine{Params: DefaultCostParams()}
	if _, err := empty.Evaluate(Config{Algorithm: "zstd", Level: 1}); err == nil {
		t.Error("empty samples accepted")
	}
	bad := adsEngine(t)
	bad.Params.Base = 0
	if _, err := bad.Evaluate(Config{Algorithm: "zstd", Level: 1}); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := e.Evaluate(Config{Algorithm: "zstd", Level: 1,
		Accel: &Accelerator{SpeedFactor: 0}}); err == nil {
		t.Error("zero-speed accelerator accepted")
	}
}

func TestConstraintsFilter(t *testing.T) {
	e := adsEngine(t)
	// Impossible speed requirement: everything infeasible.
	e.Constraints.MinCompressMBps = 1e9
	r, err := e.Evaluate(Config{Algorithm: "zstd", Level: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Feasible || !strings.Contains(r.Violation, "compress speed") {
		t.Fatalf("constraint not applied: %+v", r)
	}
	if _, _, err := e.Search([]Config{{Algorithm: "zstd", Level: 1}}); err != ErrNoFeasible {
		t.Fatalf("want ErrNoFeasible, got %v", err)
	}
}

func TestDecompressLatencyConstraint(t *testing.T) {
	e := &CompEngine{
		Samples: [][]byte{corpus.SSTSample(1, 1<<20)},
		Params:  DefaultCostParams(),
		Constraints: Constraints{
			MaxDecompressPerBlock: time.Nanosecond, // impossible
		},
	}
	r, err := e.Evaluate(Config{Algorithm: "zstd", Level: 1, BlockSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if r.Feasible || !strings.Contains(r.Violation, "per-block") {
		t.Fatalf("latency constraint not applied: %+v", r)
	}
}

func TestSearchPicksCheapestFeasible(t *testing.T) {
	e := adsEngine(t)
	best, all, err := e.Search(DefaultCandidates(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(DefaultCandidates(nil)) {
		t.Fatalf("results = %d", len(all))
	}
	for _, r := range all {
		if r.Feasible && r.TotalCost() < best.TotalCost() {
			t.Fatalf("search missed cheaper config %s", r.Config)
		}
	}
	// Results are sorted.
	for i := 1; i < len(all); i++ {
		if all[i].TotalCost() < all[i-1].TotalCost() {
			t.Fatal("results not sorted")
		}
	}
}

func TestStorageCostScalesWithRetention(t *testing.T) {
	samples := [][]byte{corpus.SSTSample(2, 1<<19)}
	short := &CompEngine{Samples: samples, Params: DefaultCostParams()}
	long := &CompEngine{Samples: samples, Params: DefaultCostParams()}
	long.Params.RetentionDays = 300
	cfg := Config{Algorithm: "zstd", Level: 3}
	rs, err := short.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := long.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rl.StorageCost <= rs.StorageCost*9 {
		t.Fatalf("10x retention should scale storage cost ≈10x: %v vs %v",
			rl.StorageCost, rs.StorageCost)
	}
}

func TestSamplingRateScalesCosts(t *testing.T) {
	samples := [][]byte{corpus.SSTSample(3, 1<<18)}
	full := &CompEngine{Samples: samples, Params: DefaultCostParams()}
	sampled := &CompEngine{Samples: samples, Params: DefaultCostParams()}
	sampled.Params.SamplingRate = 0.01 // samples represent 1% of traffic
	cfg := Config{Algorithm: "lz4", Level: 1}
	rf, err := full.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sampled.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rs.NetworkCost < rf.NetworkCost*50 {
		t.Fatalf("β=0.01 should scale costs ≈100x: %v vs %v", rs.NetworkCost, rf.NetworkCost)
	}
}

func TestAcceleratorScalesSpeedAndCost(t *testing.T) {
	samples := [][]byte{corpus.SSTSample(5, 1<<19)}
	e := &CompEngine{Samples: samples, Params: DefaultCostParams(), Repeats: 2}
	sw, err := e.Evaluate(Config{Algorithm: "zstd", Level: 1})
	if err != nil {
		t.Fatal(err)
	}
	hw, err := e.Evaluate(Config{Algorithm: "zstd", Level: 1,
		Accel: &Accelerator{Name: "acc", SpeedFactor: 10, AlphaCompute: EIAComputeAlpha}})
	if err != nil {
		t.Fatal(err)
	}
	// γ=10 should raise effective speed ~10x (timing noise allowed).
	if hw.Metrics.CompressMBps() < sw.Metrics.CompressMBps()*4 {
		t.Fatalf("accelerator speed not scaled: %v vs %v",
			hw.Metrics.CompressMBps(), sw.Metrics.CompressMBps())
	}
	// Same ratio: same bytes.
	if hw.Metrics.CompressedBytes != sw.Metrics.CompressedBytes {
		t.Fatal("accelerator should not change the ratio")
	}
}

func TestGridAndSweep(t *testing.T) {
	g := Grid(map[string][]int{"zstd": {1, 3}, "lz4": {1}}, []int{0, 4096})
	if len(g) != 6 {
		t.Fatalf("grid size = %d", len(g))
	}
	seen := map[string]bool{}
	for _, c := range g {
		seen[c.String()] = true
	}
	if len(seen) != 6 {
		t.Fatal("duplicate configs in grid")
	}
	ws := WindowSweep("zstd", 1, 16<<10, 10, 24, 10, EIAComputeAlpha)
	if len(ws) != 15 {
		t.Fatalf("sweep size = %d", len(ws))
	}
	for _, c := range ws {
		if c.Accel == nil || c.Accel.SpeedFactor != 10 {
			t.Fatalf("sweep config missing accelerator: %+v", c)
		}
	}
}

func TestConfigString(t *testing.T) {
	c := Config{Algorithm: "zstd", Level: 3, BlockSize: 64 << 10}
	if got := c.String(); got != "(zstd, 3, 64KB)" {
		t.Fatalf("got %q", got)
	}
	plain := Config{Algorithm: "lz4", Level: 1}
	if got := plain.String(); got != "(lz4, 1)" {
		t.Fatalf("got %q", got)
	}
	// Two dictionaries at one level are two configs, and print as two.
	d := []byte("a trained dictionary's content")
	dicted := Config{Algorithm: "zstd", Level: 3, Dict: d}
	if got, want := dicted.String(), fmt.Sprintf("(zstd, 3, dict %08x)", zstd.DictID(d)); got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestDecompressWeight(t *testing.T) {
	samples := [][]byte{corpus.SSTSample(7, 1<<18)}
	noReads := &CompEngine{Samples: samples, Params: DefaultCostParams()}
	manyReads := &CompEngine{Samples: samples, Params: DefaultCostParams()}
	manyReads.Params.DecompressWeight = 100
	cfg := Config{Algorithm: "zstd", Level: 3}
	a, err := noReads.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := manyReads.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b.ComputeCost <= a.ComputeCost {
		t.Fatal("read weighting should raise compute cost")
	}
}
