package zstd

import (
	"fmt"
	mathbits "math/bits"

	"github.com/datacomp/datacomp/internal/lz"
)

// Level bounds. Negative levels trade ratio for speed by skipping positions
// in the fast match finder, mirroring Zstandard's --fast modes.
const (
	MinLevel = -5
	MaxLevel = 22
)

// DefaultLevel matches the upstream library's default.
const DefaultLevel = 3

// MaxBlockSize is the block granularity of the frame format (128 KiB, as in
// Zstandard).
const MaxBlockSize = 1 << 17

// MinWindowLog and MaxWindowLog bound the match window. The upper bound is
// kept at 2^27 so the CompSim window sweep in the paper's sensitivity study 3
// (2^10..2^24) fits comfortably.
const (
	MinWindowLog = 10
	MaxWindowLog = 27
)

// levelParams is one row of the level table.
type levelParams struct {
	windowLog uint
	hashLog   uint
	chainLog  uint
	depth     int
	minMatch  int
	strategy  lz.Strategy
	skipStep  int
}

// levelTable maps levels 1..22; negative levels and 0 are derived in
// paramsForLevel. The progression mirrors Zstandard's: growing windows,
// deeper chains, lazier parsing as the level climbs, and optimal (DP)
// parsing at the top levels (btopt territory).
var levelTable = map[int]levelParams{
	1:  {17, 15, 0, 0, 6, lz.Fast, 1},
	2:  {18, 16, 0, 0, 6, lz.Fast, 1},
	3:  {18, 17, 16, 4, 4, lz.Greedy, 0},
	4:  {18, 17, 17, 8, 4, lz.Greedy, 0},
	5:  {18, 18, 17, 8, 4, lz.Lazy, 0},
	6:  {18, 18, 18, 16, 4, lz.Lazy, 0},
	7:  {19, 18, 18, 16, 4, lz.Lazy2, 0},
	8:  {19, 18, 19, 32, 4, lz.Lazy2, 0},
	9:  {19, 19, 19, 48, 4, lz.Lazy2, 0},
	10: {20, 19, 20, 64, 4, lz.Lazy2, 0},
	11: {20, 20, 20, 96, 4, lz.Lazy2, 0},
	12: {20, 20, 21, 128, 4, lz.Lazy2, 0},
	13: {21, 20, 21, 192, 4, lz.Lazy2, 0},
	14: {21, 20, 21, 256, 4, lz.Lazy2, 0},
	15: {21, 21, 22, 384, 4, lz.Lazy2, 0},
	16: {21, 21, 22, 512, 4, lz.Lazy2, 0},
	17: {22, 22, 22, 768, 4, lz.Lazy2, 0},
	18: {22, 22, 23, 1024, 4, lz.Lazy2, 0},
	19: {23, 22, 23, 1536, 3, lz.Optimal, 0},
	20: {25, 23, 24, 2048, 3, lz.Optimal, 0},
	21: {26, 23, 24, 3072, 3, lz.Optimal, 0},
	22: {27, 23, 24, 4096, 3, lz.Optimal, 0},
}

// The Fast levels take their minimum match from zstd's per-source-size rows
// (lib/compress/clevels.h): 6 at levels 1 and 2 for a block of more than
// smallSource bytes, as zstd's rows for sources of up to 128 KiB (the
// largest block), and smallMinMatch for a smaller one — the store's 8 KiB
// blocks and its get replies — and at the negative levels, zstd's base row.
// zstd's level 2 lowers the minimum by one below level 1; here that loses
// ratio to level 1, so level 2 differs from it only by its larger tables.
const (
	smallSource   = 16 << 10
	smallMinMatch = 5
)

// paramsForLevel resolves a level to its parameter row.
func paramsForLevel(level int) (levelParams, error) {
	if level < MinLevel || level > MaxLevel {
		return levelParams{}, fmt.Errorf("zstd: level %d out of range [%d,%d]", level, MinLevel, MaxLevel)
	}
	if level >= 1 {
		return levelTable[level], nil
	}
	// Level 0 means default; negative levels accelerate level 1 by skipping.
	if level == 0 {
		return levelTable[DefaultLevel], nil
	}
	p := levelTable[1]
	p.skipStep = 1 - level // -1 → 2, -5 → 6
	p.minMatch = smallMinMatch
	return p, nil
}

// adaptParams shrinks table and window sizes for small inputs, the behaviour
// the paper calls out for KVSTORE1: "for smaller inputs, Zstd shrinks its
// hash tables ... the working memory will sit in a faster cache" (§IV-E).
func adaptParams(p levelParams, srcLen int, windowOverride uint) lz.Params {
	if windowOverride != 0 {
		p.windowLog = windowOverride
		// An explicit window is a capacity statement (CompSim sizes real
		// hardware from it): scale the index structures so the matcher can
		// actually reach across it, as zstd derives cparams from windowLog.
		if h := windowOverride - 1; h > p.hashLog {
			if h > 22 {
				h = 22
			}
			p.hashLog = h
		}
		if p.strategy != lz.Fast {
			if c := windowOverride; c > p.chainLog {
				if c > 23 {
					c = 23
				}
				p.chainLog = c
			}
		}
	}
	if p.windowLog < MinWindowLog {
		p.windowLog = MinWindowLog
	}
	if p.windowLog > MaxWindowLog {
		p.windowLog = MaxWindowLog
	}
	if srcLen > 0 {
		need := uint(mathbits.Len64(uint64(srcLen - 1)))
		if need < MinWindowLog {
			need = MinWindowLog
		}
		if p.windowLog > need {
			p.windowLog = need
		}
		// Hash/chain tables larger than the input waste cache; keep a 2x
		// slack so near-boundary inputs still hash well.
		if p.hashLog > need+1 {
			p.hashLog = need + 1
		}
		if p.chainLog > need+1 && p.chainLog != 0 {
			p.chainLog = need + 1
		}
		if p.strategy == lz.Fast && srcLen <= smallSource {
			p.minMatch = smallMinMatch
		}
	}
	if p.hashLog < 6 {
		p.hashLog = 6
	}
	if p.strategy != lz.Fast && p.chainLog < 6 {
		p.chainLog = 6
	}
	return lz.Params{
		WindowLog: p.windowLog,
		HashLog:   p.hashLog,
		ChainLog:  p.chainLog,
		Depth:     p.depth,
		MinMatch:  p.minMatch,
		SkipStep:  p.skipStep,
		Strategy:  p.strategy,
		// The offset codes keep three repeat slots (codes.go).
		RepeatOffsets: true,
	}
}
