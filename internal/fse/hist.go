package fse

import (
	"errors"
	"math"
	mathbits "math/bits"
)

// Histogram holds frequency counts for a byte alphabet.
type Histogram struct {
	Counts    [256]uint32
	Total     int // number of symbols counted
	MaxSymbol int // largest symbol with a nonzero count, -1 when empty
}

// Count tallies the symbols of data into a fresh Histogram.
func Count(data []byte) Histogram {
	var h Histogram
	h.MaxSymbol = -1
	for _, b := range data {
		h.Counts[b]++
	}
	h.Total = len(data)
	for s := len(h.Counts) - 1; s >= 0; s-- {
		if h.Counts[s] != 0 {
			h.MaxSymbol = s
			break
		}
	}
	return h
}

// Distinct reports the number of symbols with a nonzero count.
func (h *Histogram) Distinct() int {
	n := 0
	for s := 0; s <= h.MaxSymbol; s++ {
		if h.Counts[s] != 0 {
			n++
		}
	}
	return n
}

// IsSingleSymbol reports whether exactly one symbol occurs in the data.
func (h *Histogram) IsSingleSymbol() bool {
	return h.Total > 0 && h.MaxSymbol >= 0 && int(h.Counts[h.MaxSymbol]) == h.Total
}

// ShannonEntropy returns the empirical entropy of the histogram in bits per
// symbol. An empty histogram has zero entropy.
func (h *Histogram) ShannonEntropy() float64 {
	if h.Total == 0 {
		return 0
	}
	e := 0.0
	total := float64(h.Total)
	for s := 0; s <= h.MaxSymbol; s++ {
		if c := h.Counts[s]; c != 0 {
			p := float64(c) / total
			e -= p * math.Log2(p)
		}
	}
	return e
}

// EstimateCompressedBits returns the entropy-ideal size in bits of coding the
// histogram's data with an order-0 coder, excluding table headers:
// n·log2(n) − Σ c·log2(c) over the counts c of its n symbols.
func (h *Histogram) EstimateCompressedBits() float64 {
	bits := NLog2N(h.Total)
	for s := 0; s <= h.MaxSymbol; s++ {
		if c := h.Counts[s]; c != 0 {
			bits -= NLog2N(int(c))
		}
	}
	return bits
}

// nlog2nSmall holds NLog2N for the counts short inputs have: an entropy
// bound over a small block's few symbols would otherwise spend more on
// logarithms than on counting.
var nlog2nSmall = func() (t [256]float64) {
	for n := 1; n < len(t); n++ {
		t[n] = float64(n) * math.Log2(float64(n))
	}
	return t
}()

// NLog2N returns n·log2(n), 0 for n ≤ 0: what a symbol counted n times
// takes off the entropy bound n'·log2(n') of the n' symbols it is among.
func NLog2N(n int) float64 {
	if uint(n) < uint(len(nlog2nSmall)) {
		return nlog2nSmall[n]
	}
	if n < 0 {
		return 0
	}
	return float64(n) * math.Log2(float64(n))
}

// MinTableLog and MaxTableLog bound the table sizes this package codes with.
const (
	MinTableLog = 5
	MaxTableLog = 12
)

// OptimalTableLog picks a table size for normalizing a histogram: large
// enough to represent the alphabet, small enough that tables stay cache
// resident for short inputs. maxLog caps the result and is clamped to
// [MinTableLog, MaxTableLog].
func OptimalTableLog(h *Histogram, maxLog uint) uint {
	if maxLog > MaxTableLog {
		maxLog = MaxTableLog
	}
	if maxLog < MinTableLog {
		maxLog = MinTableLog
	}
	// Heuristic from FSE: about log2(total)-2, at least enough slots to give
	// every distinct symbol one state. Up to 4 symbols the heuristic is below
	// MinTableLog (and at 2 the unsigned subtraction would wrap).
	log := uint(MinTableLog)
	if h.Total > 4 {
		log = uint(mathbits.Len32(uint32(h.Total-1))) - 2
	}
	minNeeded := uint(mathbits.Len32(uint32(h.Distinct()))) + 1
	if log < minNeeded {
		log = minNeeded
	}
	if log < MinTableLog {
		log = MinTableLog
	}
	if log > maxLog {
		log = maxLog
	}
	return log
}

// ErrEmpty is returned when normalizing an empty histogram.
var ErrEmpty = errors.New("fse: cannot normalize empty histogram")

// ErrTooManySymbols is returned when the alphabet cannot fit in the table.
var ErrTooManySymbols = errors.New("fse: more distinct symbols than table slots")

// Normalize scales the histogram to sum exactly to 1<<tableLog. Every symbol
// with a nonzero raw count receives at least one slot. The returned slice has
// length MaxSymbol+1.
func (h *Histogram) Normalize(tableLog uint) ([]uint16, error) {
	return h.NormalizeInto(nil, tableLog)
}

// NormalizeInto is Normalize writing into dst (reusing its capacity), the
// form steady-state encoders call so table construction does not allocate.
// The returned slice has length MaxSymbol+1.
func (h *Histogram) NormalizeInto(dst []uint16, tableLog uint) ([]uint16, error) {
	if h.Total == 0 || h.MaxSymbol < 0 {
		return nil, ErrEmpty
	}
	tableSize := 1 << tableLog
	distinct := h.Distinct()
	if distinct > tableSize {
		return nil, ErrTooManySymbols
	}
	norm := dst
	if n := h.MaxSymbol + 1; cap(norm) < n {
		norm = make([]uint16, n)
	} else {
		norm = norm[:n]
	}
	for i := range norm {
		norm[i] = 0
	}
	if distinct == 1 {
		norm[h.MaxSymbol] = uint16(tableSize)
		return norm, nil
	}

	// First pass: proportional shares with a floor of 1, tracking the
	// fractional remainders for largest-remainder correction.
	type rem struct {
		sym  int
		frac float64
	}
	var remArr [256]rem
	rems := remArr[:0]
	sum := 0
	scale := float64(tableSize) / float64(h.Total)
	for s := 0; s <= h.MaxSymbol; s++ {
		c := h.Counts[s]
		if c == 0 {
			continue
		}
		exact := float64(c) * scale
		n := int(exact)
		if n < 1 {
			n = 1
		}
		norm[s] = uint16(n)
		sum += n
		rems = append(rems, rem{s, exact - float64(n)})
	}

	// Distribute the remaining slots to the largest remainders, or reclaim
	// overshoot from the symbols that can best afford it.
	for sum < tableSize {
		best := -1
		bestFrac := math.Inf(-1)
		for i := range rems {
			if rems[i].frac > bestFrac {
				bestFrac = rems[i].frac
				best = i
			}
		}
		norm[rems[best].sym]++
		rems[best].frac -= 1.0
		sum++
	}
	for sum > tableSize {
		// Shrink the symbol whose normalized share most exceeds its exact
		// share, never below 1.
		best := -1
		bestOver := math.Inf(-1)
		for s := 0; s <= h.MaxSymbol; s++ {
			if norm[s] <= 1 {
				continue
			}
			over := float64(norm[s]) - float64(h.Counts[s])*scale
			if over > bestOver {
				bestOver = over
				best = s
			}
		}
		if best < 0 {
			return nil, ErrTooManySymbols
		}
		norm[best]--
		sum--
	}
	return norm, nil
}
