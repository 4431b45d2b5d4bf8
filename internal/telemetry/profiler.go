package telemetry

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
)

// Direction distinguishes compression from decompression samples (the
// paper's Fig 3 split).
type Direction uint8

// Sample directions.
const (
	DirCompress Direction = iota
	DirDecompress
)

// String returns the direction's label.
func (d Direction) String() string {
	if d == DirDecompress {
		return "decompress"
	}
	return "compress"
}

// SampleKey attributes one profiler sample, strobelight-style: which
// service/group owned the cycle, which codec and level were running, in
// which direction, and inside which compressor stage (StageMatchFind, ...).
// Zero-value fields mean "unattributed" (e.g. Codec == "" is application
// code).
type SampleKey struct {
	Service string
	Group   string // service category or other coarse grouping
	Codec   string
	Level   int
	Dir     Direction
	Stage   string
}

// CycleProfile accumulates sample counts per attribution key. It is the
// shared aggregation substrate: ProfileCPU classifies the runtime's CPU
// profile into one, and internal/fleet's simulated fleet profiler
// publishes into one, so both report through the same
// (stage × codec × level) machinery.
type CycleProfile struct {
	mu      sync.Mutex
	samples map[SampleKey]int64
	total   int64
}

// NewCycleProfile returns an empty profile.
func NewCycleProfile() *CycleProfile {
	return &CycleProfile{samples: make(map[SampleKey]int64)}
}

// Add records n samples for key k.
func (p *CycleProfile) Add(k SampleKey, n int64) {
	if n <= 0 {
		return
	}
	p.mu.Lock()
	p.samples[k] += n
	p.total += n
	p.mu.Unlock()
}

// Total returns the number of samples recorded.
func (p *CycleProfile) Total() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.total
}

// Samples returns a copy of the per-key counts.
func (p *CycleProfile) Samples() map[SampleKey]int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return maps.Clone(p.samples)
}

// ShareBy groups samples with the provided classifier and returns each
// group's share of the total (0..1). Keys for which the classifier returns
// ok == false are skipped but still count toward the total — exactly how
// the paper reports "X% of fleet cycles are compression".
func (p *CycleProfile) ShareBy(classify func(SampleKey) (string, bool)) map[string]float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]float64)
	if p.total == 0 {
		return out
	}
	for k, c := range p.samples {
		g, ok := classify(k)
		if !ok {
			continue
		}
		out[g] += float64(c) / float64(p.total)
	}
	return out
}

// StageShare is one row of a stage-attribution report.
type StageShare struct {
	Codec string
	Level int
	Dir   Direction
	Stage string
	Share float64 // of all codec samples
}

// StageShares reports (stage × codec × level) shares of codec samples in
// descending order — the reproduction of the paper's Fig 3/4 function-level
// breakdown. Samples with Codec == "" (application code) are excluded from
// both numerator and denominator.
func (p *CycleProfile) StageShares() []StageShare {
	p.mu.Lock()
	agg := make(map[SampleKey]int64)
	var codecTotal int64
	for k, c := range p.samples {
		if k.Codec == "" {
			continue
		}
		rk := SampleKey{Codec: k.Codec, Level: k.Level, Dir: k.Dir, Stage: k.Stage}
		agg[rk] += c
		codecTotal += c
	}
	p.mu.Unlock()
	if codecTotal == 0 {
		return nil
	}
	out := make([]StageShare, 0, len(agg))
	for k, c := range agg {
		out = append(out, StageShare{
			Codec: k.Codec, Level: k.Level, Dir: k.Dir, Stage: k.Stage,
			Share: float64(c) / float64(codecTotal),
		})
	}
	slices.SortFunc(out, func(a, b StageShare) int {
		return cmp.Or(cmp.Compare(b.Share, a.Share), strings.Compare(a.Codec, b.Codec),
			cmp.Compare(a.Level, b.Level), cmp.Compare(a.Dir, b.Dir), strings.Compare(a.Stage, b.Stage))
	})
	return out
}

// FormatStageShares renders StageShares as an ASCII table.
func FormatStageShares(shares []StageShare) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %5s %-10s %-9s %7s\n", "codec", "level", "dir", "stage", "share")
	for _, s := range shares {
		fmt.Fprintf(&b, "%-6s %5d %-10s %-9s %6.1f%%\n",
			s.Codec, s.Level, s.Dir, s.Stage, s.Share*100)
	}
	return b.String()
}
