// Package core implements CompOpt, the paper's first-order compression
// optimizer (§V): given sample data from a service, service-specific cost
// weights, and SLO constraints, it enumerates candidate compression
// configurations (CompEngine), measures each candidate's compression
// metrics on the samples, prices them with the analytical cost model of
// equations (1)-(4), and returns the cheapest feasible configuration.
//
// CompSim, the hardware-accelerator what-if interface, treats a
// hypothetical accelerator as another compressor: a software engine
// (optionally running a simplified, window-capped variant of the algorithm,
// as HW implementations must) is measured and its speed is scaled by the
// designer's factor γ, with a separate compute-cost coefficient.
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/zstd"
)

// Config is one compression configuration x — the tuple (algorithm, level,
// block size) from the paper, extended with the window override and
// optional accelerator used by sensitivity study 3.
type Config struct {
	Algorithm string
	Level     int
	// BlockSize splits inputs into independently compressed blocks
	// (0 = whole input), the knob of sensitivity study 2.
	BlockSize int
	// WindowLog caps the match window (zstd only; 0 = level default), the
	// knob of sensitivity study 3.
	WindowLog uint
	// Dict supplies a shared dictionary (zstd only).
	Dict []byte
	// Accel marks this configuration as a CompSim accelerator candidate.
	Accel *Accelerator
}

// String renders the configuration like the paper: (Zstd, 3, 64KB), with
// the dictionary's zstd.DictID when it has one.
func (c Config) String() string {
	s := fmt.Sprintf("(%s, %d", c.Algorithm, c.Level)
	if c.BlockSize > 0 {
		s += fmt.Sprintf(", %dKB", c.BlockSize/1024)
	}
	if c.WindowLog > 0 {
		s += fmt.Sprintf(", w%d", c.WindowLog)
	}
	if len(c.Dict) > 0 {
		s += fmt.Sprintf(", dict %08x", zstd.DictID(c.Dict))
	}
	if c.Accel != nil {
		s += ", " + c.Accel.Name
	}
	return s + ")"
}

// Accelerator describes a hypothetical compression offload for CompSim.
type Accelerator struct {
	// Name labels the design point.
	Name string
	// SpeedFactor is γ: measured software (de)compression speed is
	// multiplied by it.
	SpeedFactor float64
	// AlphaCompute replaces CostParams.AlphaCompute for this device
	// (accelerator cycles are priced differently from host CPU cycles;
	// the paper uses Amazon EIA pricing).
	AlphaCompute float64
}

// CostParams are the inputs of equations (1)-(3). All alphas are relative
// prices; Base (B) scales everything; SamplingRate (β) is the fraction of
// the service's compression calls the samples represent; RetentionDays (R)
// weights storage.
type CostParams struct {
	AlphaCompute  float64
	AlphaStorage  float64
	AlphaNetwork  float64
	Base          float64
	SamplingRate  float64
	RetentionDays float64
	// DecompressWeight adds decompression time into the compute cost with
	// this weight (0 follows the paper's equation (1), which prices
	// compression only; read-heavy services set >0 — e.g. the mean number
	// of reads per written object).
	DecompressWeight float64
}

// DefaultCostParams prices resources from the March-2023 public AWS sheets
// the paper cites: EC2 on-demand compute (c5, ≈$0.0425/vCPU-hour), S3
// storage ($0.023/GB-month) and internet egress ($0.09/GB).
func DefaultCostParams() CostParams {
	return CostParams{
		AlphaCompute:  0.0425 / 3600,    // $ per CPU-second
		AlphaStorage:  0.023 / 30 / 1e9, // $ per byte-day
		AlphaNetwork:  0.09 / 1e9,       // $ per byte
		Base:          1,
		SamplingRate:  1,
		RetentionDays: 30,
	}
}

// EIAComputeAlpha is the accelerator compute price used by sensitivity
// study 3 (Amazon Elastic Inference, ≈$0.12/hour for eia2.medium).
const EIAComputeAlpha = 0.12 / 3600

// Validate checks the parameters.
func (p CostParams) Validate() error {
	if p.Base <= 0 {
		return errors.New("core: Base must be positive")
	}
	if p.SamplingRate <= 0 || p.SamplingRate > 1 {
		return errors.New("core: SamplingRate must be in (0,1]")
	}
	if p.AlphaCompute < 0 || p.AlphaStorage < 0 || p.AlphaNetwork < 0 || p.RetentionDays < 0 || p.DecompressWeight < 0 {
		return errors.New("core: negative cost parameter")
	}
	return nil
}

// Constraints are the service SLOs a configuration must satisfy.
type Constraints struct {
	// MinCompressMBps rejects configurations that compress too slowly
	// (study 1: ≥200 MB/s for the latency-sensitive ads service).
	MinCompressMBps float64
	// MaxDecompressPerBlock rejects configurations whose mean per-block
	// decompression latency exceeds the read SLO (study 2: ≤0.08 ms).
	MaxDecompressPerBlock time.Duration
}

// Result is one evaluated candidate.
type Result struct {
	Config  Config
	Metrics codec.Metrics

	ComputeCost float64
	StorageCost float64
	NetworkCost float64

	Feasible bool
	// Violation explains infeasibility.
	Violation string
}

// TotalCost is the objective of equation (4).
func (r Result) TotalCost() float64 { return r.ComputeCost + r.StorageCost + r.NetworkCost }

// CompEngine measures candidate configurations against sample data — the
// CompEngine box of the paper's Fig 14.
type CompEngine struct {
	// Samples is the service's sample data set S.
	Samples [][]byte
	// Params is the cost model.
	Params CostParams
	// Constraints are the service SLOs.
	Constraints Constraints
	// Repeats stabilizes timing measurements (default 1).
	Repeats int

	// engines caches one constructed engine per configuration signature.
	// Matcher tables run to megabytes at high levels, so re-evaluating the
	// same candidate list every adaptive shadow round must not rebuild
	// them; the cache makes Evaluate's steady state measurement-only.
	engines map[string]codec.Engine
}

// engineKey identifies a cached scratch engine. Config.String omits the
// dictionary, which changes the engine, so key on its length and first
// bytes too (dict candidates within one CompEngine are retrain outputs
// that differ in content and length).
func engineKey(cfg Config) string {
	k := cfg.Algorithm + "|" + fmt.Sprint(cfg.Level) + "|" + fmt.Sprint(cfg.WindowLog)
	if len(cfg.Dict) > 0 {
		n := min(len(cfg.Dict), 16)
		k += fmt.Sprintf("|d%d:%x", len(cfg.Dict), cfg.Dict[:n])
	}
	return k
}

// engine returns the cached scratch engine for cfg, constructing it once.
func (e *CompEngine) engine(cfg Config) (codec.Engine, error) {
	k := engineKey(cfg)
	if eng, ok := e.engines[k]; ok {
		return eng, nil
	}
	eng, err := codec.NewEngine(cfg.Algorithm,
		codec.WithLevel(cfg.Level),
		codec.WithWindowLog(cfg.WindowLog),
		codec.WithDict(cfg.Dict),
	)
	if err != nil {
		return nil, err
	}
	if e.engines == nil {
		e.engines = make(map[string]codec.Engine)
	}
	e.engines[k] = eng
	return eng, nil
}

// Evaluate measures one configuration and prices it.
func (e *CompEngine) Evaluate(cfg Config) (Result, error) {
	if err := e.Params.Validate(); err != nil {
		return Result{}, err
	}
	if len(e.Samples) == 0 {
		return Result{}, errors.New("core: no sample data")
	}
	eng, err := e.engine(cfg)
	if err != nil {
		return Result{}, err
	}
	repeats := e.Repeats
	if repeats < 1 {
		repeats = 1
	}
	m, err := codec.Measure(eng, e.Samples, cfg.BlockSize, repeats)
	if err != nil {
		return Result{}, fmt.Errorf("core: measuring %s: %w", cfg, err)
	}
	return e.PriceMeasured(cfg, m)
}

// PriceMeasured prices a configuration from externally measured metrics —
// equations (1)-(4) applied to a BENCH_codec.json row or an adaptive
// shadow trial instead of a fresh in-process measurement. This is the
// pricing half of Evaluate, so offline and online CompOpt score with the
// same model.
func (e *CompEngine) PriceMeasured(cfg Config, m codec.Metrics) (Result, error) {
	if err := e.Params.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.Accel != nil {
		if cfg.Accel.SpeedFactor <= 0 {
			return Result{}, errors.New("core: accelerator speed factor must be positive")
		}
		// CompSim: same ratio, γ-scaled speeds.
		m.CompressTime = time.Duration(float64(m.CompressTime) / cfg.Accel.SpeedFactor)
		m.DecompressTime = time.Duration(float64(m.DecompressTime) / cfg.Accel.SpeedFactor)
	}
	r := Result{Config: cfg, Metrics: m, Feasible: true}

	// Equations (1)-(3). Size(s)/CompSpeed(x,s) summed over samples is the
	// total measured compression time.
	alphaC := e.Params.AlphaCompute
	if cfg.Accel != nil {
		alphaC = cfg.Accel.AlphaCompute
	}
	b := e.Params.Base / e.Params.SamplingRate
	computeSeconds := m.CompressTime.Seconds() + e.Params.DecompressWeight*m.DecompressTime.Seconds()
	r.ComputeCost = alphaC * b * computeSeconds
	r.StorageCost = e.Params.AlphaStorage * b * e.Params.RetentionDays * float64(m.CompressedBytes)
	r.NetworkCost = e.Params.AlphaNetwork * b * float64(m.CompressedBytes)

	if e.Constraints.MinCompressMBps > 0 && m.CompressMBps() < e.Constraints.MinCompressMBps {
		r.Feasible = false
		r.Violation = fmt.Sprintf("compress speed %.0f MB/s below %.0f MB/s",
			m.CompressMBps(), e.Constraints.MinCompressMBps)
	}
	if e.Constraints.MaxDecompressPerBlock > 0 && m.DecompressPerBlock() > e.Constraints.MaxDecompressPerBlock {
		r.Feasible = false
		r.Violation = fmt.Sprintf("per-block decompression %v above %v",
			m.DecompressPerBlock(), e.Constraints.MaxDecompressPerBlock)
	}
	return r, nil
}

// ErrNoFeasible is returned when every candidate violates the constraints.
var ErrNoFeasible = errors.New("core: no feasible configuration")

// Search evaluates all candidates and returns the feasible cost minimizer
// (equation (4)) plus every result sorted by total cost. The exhaustive
// scan follows the paper ("the exhaustive search is sufficient for our
// study").
func (e *CompEngine) Search(candidates []Config) (Result, []Result, error) {
	if len(candidates) == 0 {
		return Result{}, nil, errors.New("core: no candidates")
	}
	results := make([]Result, 0, len(candidates))
	for _, cfg := range candidates {
		r, err := e.Evaluate(cfg)
		if err != nil {
			return Result{}, nil, err
		}
		results = append(results, r)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].TotalCost() < results[j].TotalCost() })
	best := Result{}
	bestCost := math.Inf(1)
	found := false
	for _, r := range results {
		if r.Feasible && r.TotalCost() < bestCost {
			best = r
			bestCost = r.TotalCost()
			found = true
		}
	}
	if !found {
		return Result{}, results, ErrNoFeasible
	}
	return best, results, nil
}

// Grid builds the candidate cross product of algorithms × levels × block
// sizes. levels maps algorithm name to the level list; blockSizes may be
// nil for whole-input compression.
func Grid(levels map[string][]int, blockSizes []int) []Config {
	if len(blockSizes) == 0 {
		blockSizes = []int{0}
	}
	algos := make([]string, 0, len(levels))
	for a := range levels {
		algos = append(algos, a)
	}
	sort.Strings(algos)
	var out []Config
	for _, a := range algos {
		for _, l := range levels[a] {
			for _, bs := range blockSizes {
				out = append(out, Config{Algorithm: a, Level: l, BlockSize: bs})
			}
		}
	}
	return out
}

// DefaultCandidates returns the standard search space used by the
// sensitivity studies: all three codecs over a representative level sweep.
func DefaultCandidates(blockSizes []int) []Config {
	return Grid(map[string][]int{
		"zstd": {-5, -1, 1, 2, 3, 4, 6, 9, 12},
		"lz4":  {1, 3, 6, 9, 10, 12},
		"zlib": {1, 6, 9},
	}, blockSizes)
}

// WindowSweep builds CompSim candidates over match-window sizes for a
// fixed algorithm/level — the study-3 sweep. gamma is the accelerator
// speed factor; alphaCompute its compute price.
func WindowSweep(algorithm string, level int, blockSize int, minLog, maxLog uint, gamma, alphaCompute float64) []Config {
	var out []Config
	for w := minLog; w <= maxLog; w++ {
		out = append(out, Config{
			Algorithm: algorithm,
			Level:     level,
			BlockSize: blockSize,
			WindowLog: w,
			Accel: &Accelerator{
				Name:         fmt.Sprintf("hw-w%d", w),
				SpeedFactor:  gamma,
				AlphaCompute: alphaCompute,
			},
		})
	}
	return out
}
