// Package dict trains compression dictionaries from sample data, the
// "Managed Compression" ingredient the paper credits for recovering the
// compression ratio lost when caches compress each small item individually
// (§IV-C). TrainZstd is the one zstd dictionary trainer every dictionary in
// the system comes from: content, then entropy tables for that content.
//
// The trainer is a simplified fastCOVER: it scores fixed-length segments of
// the training corpus by how many still-uncovered k-mers they contain,
// greedily selects the best segment per epoch, and zeroes the score of
// covered k-mers so later picks add new material instead of repeating the
// same popular strings. Selected segments are laid out with the most
// valuable content at the end of the dictionary, where match offsets into
// it are shortest.
package dict

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/datacomp/datacomp/internal/zstd"
)

// Params control training.
type Params struct {
	// MaxSize bounds the dictionary size in bytes.
	MaxSize int
	// SegmentLen is the granularity of selected segments.
	SegmentLen int
	// K is the k-mer length used for scoring.
	K int
}

// DefaultParams returns sensible training parameters for a target size.
func DefaultParams(maxSize int) Params {
	return Params{MaxSize: maxSize, SegmentLen: 64, K: 8}
}

func (p Params) validate() error {
	if p.MaxSize < 64 {
		return fmt.Errorf("dict: max size %d too small (min 64)", p.MaxSize)
	}
	if p.SegmentLen < 16 || p.SegmentLen > p.MaxSize {
		return fmt.Errorf("dict: segment length %d out of range", p.SegmentLen)
	}
	if p.K < 4 || p.K > 16 || p.K > p.SegmentLen {
		return fmt.Errorf("dict: k %d out of range", p.K)
	}
	return nil
}

// ErrNotEnoughSamples is returned when the corpus is too small to train on.
var ErrNotEnoughSamples = errors.New("dict: not enough sample data")

func hashK(data []byte, k int) uint64 {
	var v uint64
	switch {
	case k >= 8:
		v = binary.LittleEndian.Uint64(data)
		if k > 8 {
			// Fold the remaining bytes in.
			for i := 8; i < k; i++ {
				v = v*1099511628211 ^ uint64(data[i])
			}
		}
	default:
		for i := 0; i < k; i++ {
			v = v<<8 | uint64(data[i])
		}
	}
	return v * 0x9E3779B97F4A7C15
}

// Train builds a dictionary of at most p.MaxSize bytes from samples.
func Train(samples [][]byte, p Params) ([]byte, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	var corpus []byte
	for _, s := range samples {
		corpus = append(corpus, s...)
	}
	if len(corpus) < 4*p.SegmentLen || len(corpus) < p.K {
		return nil, ErrNotEnoughSamples
	}

	// Score every k-mer by occurrence count.
	freq := make(map[uint64]int32, len(corpus)/2)
	for i := 0; i+p.K <= len(corpus); i++ {
		freq[hashK(corpus[i:], p.K)]++
	}

	numSegments := p.MaxSize / p.SegmentLen
	if numSegments < 1 {
		numSegments = 1
	}
	// Epochs partition the corpus so selections spread across samples
	// rather than clustering at the densest spot.
	epochs := numSegments
	epochSize := len(corpus) / epochs
	for epochSize < p.SegmentLen && epochs > 1 {
		epochs--
		epochSize = len(corpus) / epochs
	}
	if epochSize < p.SegmentLen {
		return nil, ErrNotEnoughSamples
	}

	type segment struct {
		start int
		score int64
	}
	var picks []segment
	for e := 0; e < epochs && len(picks) < numSegments; e++ {
		lo := e * epochSize
		hi := lo + epochSize
		if e == epochs-1 {
			hi = len(corpus)
		}
		best := segment{start: -1}
		// Slide at segment-length/4 stride for speed.
		stride := p.SegmentLen / 4
		for s := lo; s+p.SegmentLen <= hi; s += stride {
			var score int64
			for i := s; i+p.K <= s+p.SegmentLen; i++ {
				score += int64(freq[hashK(corpus[i:], p.K)])
			}
			if score > best.score {
				best = segment{start: s, score: score}
			}
		}
		if best.start < 0 {
			continue
		}
		picks = append(picks, best)
		// Zero the covered k-mers so later epochs add novel content.
		for i := best.start; i+p.K <= best.start+p.SegmentLen; i++ {
			freq[hashK(corpus[i:], p.K)] = 0
		}
	}
	if len(picks) == 0 {
		return nil, ErrNotEnoughSamples
	}

	// Most valuable content goes last: offsets into the dictionary tail are
	// the cheapest for the compressor.
	dict := make([]byte, 0, len(picks)*p.SegmentLen)
	for i := len(picks) - 1; i >= 0; i-- {
		dict = append(dict, corpus[picks[i].start:picks[i].start+p.SegmentLen]...)
	}
	if len(dict) > p.MaxSize {
		dict = dict[len(dict)-p.MaxSize:]
	}
	return dict, nil
}

// TrainZstd trains a zstd dictionary of at most maxSize bytes of content
// from samples (Train), carrying entropy tables for that content trained on
// blocks coded at level (zstd.TrainTables), so a frame coded against it
// sends no tables of its own whenever that is smaller. It returns
// ErrNotEnoughSamples when the content cannot be trained or the
// dictionary's zstd.DictID would be 0, which frames and manifests read as
// "no dictionary".
func TrainZstd(level, maxSize int, samples, blocks [][]byte) ([]byte, error) {
	d, err := Train(samples, DefaultParams(maxSize))
	if err != nil {
		return nil, err
	}
	if d, err = zstd.TrainTables(zstd.Options{Level: level, Dict: d}, blocks); err != nil {
		return nil, err
	}
	if zstd.DictID(d) == 0 {
		return nil, ErrNotEnoughSamples
	}
	return d, nil
}
