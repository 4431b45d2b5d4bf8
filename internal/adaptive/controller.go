// Package adaptive closes the CompOpt loop in the live serving path: the
// paper's offline optimizer (internal/core) picks one configuration per
// use case from a one-off sample study; this package keeps re-running that
// same cost model continuously, per traffic class, against reservoir
// samples of what the class is serving right now.
//
// The pieces map onto the paper's Fig 14 plus an online control loop:
//
//   - Handle is the serving endpoint — a concurrent codec.Engine whose
//     configuration is a generation behind an atomic pointer. Hot-path
//     cost over a static pooled engine is one atomic increment and a
//     header append; every frame is self-describing so old generations
//     (and remote peers) stay decodable after swaps.
//   - Controller is the background worker — it snapshots each class's
//     reservoir, shadow-measures a rotating subset of candidate configs
//     with core.CompEngine (measured ratio/speed, not synthetic curves),
//     prices them with equations (1)-(4), and swaps the serving config
//     when a challenger beats the incumbent by the hysteresis margin.
//     Shadow CPU is duty-cycled to a fixed budget and every decision is
//     visible in telemetry.
//
// A class is also the paper's Managed Compression service (§II-B): one
// handle per use case, its reservoir the payload sample, a dictionary
// trained from it among the challengers, and every adopted dictionary
// resolved from the ID in the frame.
package adaptive

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/core"
	"github.com/datacomp/datacomp/internal/dict"
	"github.com/datacomp/datacomp/internal/telemetry"
	"github.com/datacomp/datacomp/internal/trace"
)

// Package-level telemetry on the shared registry, registered at package
// initialisation.
var (
	tmSwaps      = telemetry.Default.Counter("adaptive_swaps_total", "serving-config generation swaps")
	tmDecisions  = telemetry.Default.Counter("adaptive_decisions_total", "candidate configurations shadow-priced")
	tmTrials     = telemetry.Default.Counter("adaptive_trials_total", "shadow trial rounds")
	tmShadowNS   = telemetry.Default.Counter("adaptive_shadow_ns_total", "CPU time spent in shadow measurement")
	tmThrottleNS = telemetry.Default.Counter("adaptive_throttle_ns_total", "sleep inserted to hold the shadow CPU budget")
	tmDictTrains = telemetry.Default.Counter("adaptive_dict_trains_total", "dictionaries trained from reservoir samples")
	tmErrors     = telemetry.Default.Counter("adaptive_trial_errors_total", "shadow trials that failed to measure or adopt")
	tmBudget     = telemetry.Default.Gauge("adaptive_shadow_budget_permille", "configured shadow CPU budget, in thousandths of one core")
)

// Config parameterizes a Controller. The zero value is usable: every
// field has a production default.
type Config struct {
	// Default is the configuration every new class starts serving —
	// CompOpt's role is to beat it ((zstd, 3) by default, the paper's
	// baseline).
	Default core.Config
	// Interval is the cadence of shadow trial rounds (default 500ms).
	Interval time.Duration
	// MinSamples gates trials until the reservoir has substance (default 8).
	MinSamples int
	// SampleEvery subsamples the hot path: one in N compress calls is
	// offered to the reservoir (default 64; rounded up to a power of two).
	SampleEvery int
	// Tracer, when enabled, receives an "adaptive.swap" root span per
	// generation swap (subject to its own sampling policy).
	Tracer *trace.Tracer
}

// margin is the hysteresis bar: a challenger must beat the incumbent's cost
// by this fraction to displace it.
const margin = 0.05

// tuning is the controller's fixed parameters. New sets their production
// values; in-package tests override them before making a class.
type tuning struct {
	// candidates is the challenger search space. Every class also
	// challenges with a zstd dictionary trained on its own reservoir.
	candidates []core.Config
	params     core.CostParams // the cost model
	// budget caps shadow CPU as a fraction of one core: after each trial
	// the worker sleeps busy·(1-B)/B.
	budget        float64
	reservoirSize int // per-class sample reservoir
	sampleBytes   int // cap on each retained sample
	// perRound bounds how many candidates one round measures, rotating
	// through the space across rounds.
	perRound int
	// retain keeps this many retired generations' encoder pools alive in
	// the shared registry; older ones are released and re-materialized on
	// demand from the frame descriptor.
	retain int
}

func (cfg Config) withDefaults() Config {
	if cfg.Default.Algorithm == "" {
		cfg.Default = core.Config{Algorithm: "zstd", Level: 3}
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = 8
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 64
	}
	// Power of two so the hot path masks instead of dividing.
	p := 1
	for p < cfg.SampleEvery {
		p <<= 1
	}
	cfg.SampleEvery = p
	return cfg
}

// The dictionary candidate: every class trains a zstd dictionary, content
// and entropy tables, from its reservoir once it holds dictMinSamples
// payloads, and refreshes it every dictRetrainRounds trial rounds. Each
// adopted dictionary stays resolvable by its zstd.DictID from the frame.
const (
	dictBytes         = 4 << 10
	dictMinSamples    = 16
	dictRetrainRounds = 8
	dictLevel         = 3
)

// onlineCandidates is the compact challenger space: wide enough to cover
// the speed/ratio frontier the paper's studies map out, small enough that a
// rotating three-per-round schedule revisits every point within a couple of
// seconds.
func onlineCandidates() []core.Config {
	return []core.Config{
		{Algorithm: "zstd", Level: 1},
		{Algorithm: "zstd", Level: 3},
		{Algorithm: "zstd", Level: 9},
		{Algorithm: "lz4", Level: 1},
		{Algorithm: "zlib", Level: 1},
		// Typed-transform graph compression at heuristic search effort:
		// wins big on structured payloads (columns, embeddings), loses
		// rounds cheaply on byte-stream classes.
		{Algorithm: "graph", Level: 1},
	}
}

// Decision records the outcome of one shadow trial round for a class. All
// costs are equation-(4) totals priced on the same reservoir snapshot, so
// they are directly comparable.
type Decision struct {
	Class         string
	Incumbent     string  // config serving after this round
	IncumbentCost float64 // its cost on current samples
	Best          string  // cheapest challenger measured
	BestCost      float64
	DefaultCost   float64 // the static default priced on the same samples
	Swapped       bool
	From          string // pre-round config when Swapped
}

// MarginVsDefault is the fractional cost win of the serving config over
// the static default on the same samples (positive = adaptive is cheaper).
func (d Decision) MarginVsDefault() float64 {
	if d.DefaultCost <= 0 {
		return 0
	}
	return 1 - d.IncumbentCost/d.DefaultCost
}

// ClassStatus is a point-in-time view of one traffic class.
type ClassStatus struct {
	Class         string
	Config        string
	Generation    uint64
	Swaps         uint64
	DecodeCurrent uint64
	DecodeRetired uint64
	SampleDrops   uint64
	Decision      Decision
	HasDecision   bool
}

// Controller owns the shadow-measurement worker and the per-class
// handles. Create with New, wire handles into serving paths, then Start.
type Controller struct {
	cfg Config
	tuning

	mu      sync.RWMutex
	classes map[string]*Handle

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// New builds a controller. The default configuration is validated eagerly:
// its algorithm must have a wire ID.
func New(cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if codecIDOf(cfg.Default.Algorithm) == codecInvalid {
		return nil, fmt.Errorf("adaptive: default codec %q has no wire id", cfg.Default.Algorithm)
	}
	c := &Controller{
		cfg: cfg,
		tuning: tuning{
			candidates:    onlineCandidates(),
			params:        core.DefaultCostParams(),
			budget:        0.10,
			reservoirSize: 32,
			sampleBytes:   64 << 10,
			perRound:      3,
			retain:        4,
		},
		classes: make(map[string]*Handle),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	tmBudget.Set(int64(c.budget * 1000))
	return c, nil
}

// Handle returns the serving handle for a traffic class, creating it on
// first use with the default configuration.
func (c *Controller) Handle(class string) (*Handle, error) {
	c.mu.RLock()
	h, ok := c.classes[class]
	c.mu.RUnlock()
	if ok {
		return h, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if h, ok = c.classes[class]; ok {
		return h, nil
	}
	h, err := newHandle(c, class, c.cfg.Default)
	if err != nil {
		return nil, err
	}
	c.classes[class] = h
	return h, nil
}

// handles snapshots the class set for one worker round.
func (c *Controller) handles() []*Handle {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Handle, 0, len(c.classes))
	for _, h := range c.classes {
		out = append(out, h)
	}
	return out
}

// Start launches the background shadow worker. Idempotent.
func (c *Controller) Start() {
	c.startOnce.Do(func() { go c.run() })
}

// Close stops the worker (if started) and releases every generation's
// encoder pool from the shared registry. Handles remain usable for decode
// but stop being re-optimized.
func (c *Controller) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.startOnce.Do(func() { close(c.done) }) // never started: unblock the wait
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, h := range c.classes {
		h.swapMu.Lock()
		codec.ReleaseShared(h.cur.Load().pool)
		for _, g := range h.retired {
			codec.ReleaseShared(g.pool)
		}
		h.retired = nil
		h.swapMu.Unlock()
	}
}

func (c *Controller) run() {
	defer close(c.done)
	ticker := time.NewTicker(c.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
		}
		for _, h := range c.handles() {
			busy := c.trial(h)
			if busy <= 0 {
				continue
			}
			tmShadowNS.Add(int64(busy))
			// Duty-cycle to the CPU budget: busy·(1-B)/B idle per busy
			// slice, capped so one slow measurement cannot park the
			// worker for minutes.
			idle := time.Duration(float64(busy) * (1 - c.budget) / c.budget)
			if idle > 10*time.Second {
				idle = 10 * time.Second
			}
			tmThrottleNS.Add(int64(idle))
			select {
			case <-c.stop:
				return
			case <-time.After(idle):
			}
		}
	}
}

func configEqual(a, b core.Config) bool {
	return a.Algorithm == b.Algorithm && a.Level == b.Level &&
		a.WindowLog == b.WindowLog && a.BlockSize == b.BlockSize &&
		bytes.Equal(a.Dict, b.Dict)
}

// trial runs one budgeted shadow round for a class: price the incumbent,
// the static default, and a rotating slice of challengers on the current
// reservoir, then swap if the best challenger clears the hysteresis bar.
// Returns the CPU time spent.
func (c *Controller) trial(h *Handle) time.Duration {
	samples := h.snapshotSamples()
	if len(samples) < c.cfg.MinSamples {
		return 0
	}
	start := time.Now()
	tmTrials.Inc()
	sh := h.shadow
	sh.Samples = samples
	sh.Repeats = 1

	cur := h.cur.Load()
	inc, err := sh.Evaluate(cur.cfg)
	if err != nil {
		tmErrors.Inc()
		return time.Since(start)
	}
	tmDecisions.Inc()
	def := inc
	if !configEqual(cur.cfg, c.cfg.Default) {
		if d, derr := sh.Evaluate(c.cfg.Default); derr == nil {
			def = d
		}
	}

	best := core.Result{}
	haveBest := false
	for _, cand := range c.challengers(h, samples) {
		if configEqual(cand, cur.cfg) {
			continue
		}
		r, err := sh.Evaluate(cand)
		tmDecisions.Inc()
		if err != nil {
			continue
		}
		if !haveBest || r.TotalCost() < best.TotalCost() {
			best, haveBest = r, true
		}
	}

	d := Decision{
		Class:         h.class,
		Incumbent:     cur.cfg.String(),
		IncumbentCost: inc.TotalCost(),
		DefaultCost:   def.TotalCost(),
	}
	if haveBest {
		d.Best = best.Config.String()
		d.BestCost = best.TotalCost()
	}
	if haveBest && best.TotalCost() < inc.TotalCost()*(1-margin) {
		if err := h.Adopt(best.Config); err != nil {
			tmErrors.Inc()
		} else {
			tmSwaps.Inc()
			d.Swapped = true
			d.From = d.Incumbent
			d.Incumbent = best.Config.String()
			d.IncumbentCost = best.TotalCost()
			c.publishCurrent(h, best.Config)
			c.traceSwap(h, d)
		}
	}
	h.lastReport.Store(&d)
	return time.Since(start)
}

// challengers returns this round's candidate slice: a rotating window over
// the configured space plus the class's dictionary candidate, once trained.
func (c *Controller) challengers(h *Handle, samples [][]byte) []core.Config {
	k := c.perRound
	n := len(c.candidates)
	out := make([]core.Config, 0, k+1)
	for i := 0; i < k && i < n; i++ {
		out = append(out, c.candidates[(h.nextCand+i)%n])
	}
	if n > 0 {
		h.nextCand = (h.nextCand + k) % n
	}
	h.sinceTrain++
	if (!h.haveDict || h.sinceTrain >= dictRetrainRounds) && len(samples) >= dictMinSamples {
		if d, err := dict.TrainZstd(dictLevel, dictBytes, samples, samples); err == nil {
			h.dictCand = core.Config{Algorithm: "zstd", Level: dictLevel, Dict: d}
			h.haveDict = true
			h.sinceTrain = 0
			tmDictTrains.Inc()
		} else if !errors.Is(err, dict.ErrNotEnoughSamples) {
			tmErrors.Inc()
		}
	}
	if h.haveDict {
		out = append(out, h.dictCand)
	}
	return out
}

// publishCurrent flips the labeled current-config gauge for a class.
func (c *Controller) publishCurrent(h *Handle, cfg core.Config) {
	if h.curGauge != nil {
		h.curGauge.Set(0)
	}
	h.curGauge = telemetry.Default.Gauge(
		telemetry.Label("adaptive_current", "class", h.class, "config", cfg.String()),
		"1 while this configuration serves the class")
	h.curGauge.Set(1)
	telemetry.Default.Gauge(
		telemetry.Label("adaptive_generation", "class", h.class),
		"current serving-config generation").Set(int64(h.Generation()))
}

// traceSwap emits an "adaptive.swap" root span (one-shot event) when the
// tracer samples it, recording each config change in the flight recorder.
func (c *Controller) traceSwap(h *Handle, d Decision) {
	tr := c.cfg.Tracer
	if !tr.Enabled() {
		return
	}
	_, sp := tr.StartRoot(context.Background(), "adaptive.swap")
	if !sp.Valid() {
		return
	}
	sp.SetStr("class", h.class).
		SetStr("from", d.From).
		SetStr("to", d.Incumbent).
		SetInt("generation", int64(h.Generation())).
		SetInt("win_vs_default_ppm", int64(d.MarginVsDefault()*1e6)).
		End()
}

// Status reports every class's current generation and last decision.
func (c *Controller) Status() []ClassStatus {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]ClassStatus, 0, len(c.classes))
	for _, h := range c.classes {
		g := h.cur.Load()
		st := ClassStatus{
			Class:         h.class,
			Config:        g.cfg.String(),
			Generation:    g.gen,
			Swaps:         h.swaps.Load(),
			DecodeCurrent: h.decodeCur.Load(),
			DecodeRetired: h.decodeOld.Load(),
			SampleDrops:   h.sampleDrops.Load(),
		}
		if d := h.lastReport.Load(); d != nil {
			st.Decision = *d
			st.HasDecision = true
		}
		out = append(out, st)
	}
	return out
}
