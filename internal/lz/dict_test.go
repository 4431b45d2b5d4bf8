package lz

import (
	"math/rand"
	"slices"
	"testing"
)

// textish returns n bytes over a small alphabet with planted repeats, so a
// parse finds matches both inside src and back into the dictionary.
func textish(rng *rand.Rand, n int, pool []byte) []byte {
	b := make([]byte, 0, n)
	for len(b) < n {
		if len(pool) >= 16 && rng.Intn(3) == 0 {
			k := 4 + rng.Intn(28)
			at := rng.Intn(len(pool) - 8)
			b = append(b, pool[at:min(at+k, len(pool))]...)
			continue
		}
		b = append(b, "abcdefgh ,.01"[rng.Intn(13)])
	}
	return b[:n]
}

// strided appends n bytes to hist that mostly repeat the byte stride back,
// with a mutation every few bytes: after each mutation the parse resumes at
// the same offset, a repeat, which reaches into hist while the payload is
// shorter than stride.
func strided(rng *rand.Rand, hist []byte, n, stride int) []byte {
	b := slices.Clone(hist)
	for k := 0; k < n; k++ {
		if at := len(b) - stride; at >= 0 && rng.Intn(12) != 0 {
			b = append(b, b[at])
			continue
		}
		b = append(b, "abcdefgh ,.01"[rng.Intn(13)])
	}
	return b[len(hist):]
}

// TestParseDictMatchesParse holds the one-time dictionary table to the
// per-call indexing it replaces: for random dictionaries of 0 to 16 KiB,
// histories cut anywhere from the dictionary's tail (lengths near the
// 8-byte hash window especially) and payloads near it too, ParseDict on a
// matcher given the dictionary returns the sequences Parse does on a fresh
// matcher, call after call, whatever the stale entries earlier calls left.
func TestParseDictMatchesParse(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	params := []Params{
		{WindowLog: 10, HashLog: 11, MinMatch: 4, SkipStep: 1, Strategy: Fast},
		{WindowLog: 12, HashLog: 12, MinMatch: 4, SkipStep: 1, Strategy: Fast},
		{WindowLog: 17, HashLog: 15, MinMatch: 4, SkipStep: 1, Strategy: Fast},
		{WindowLog: 14, HashLog: 8, MinMatch: 3, SkipStep: 3, Strategy: Fast},
		{WindowLog: 12, HashLog: 12, ChainLog: 12, Depth: 4, MinMatch: 4, Strategy: Greedy},
		// zstd's: repeat offsets, whose probes read the history in src.
		{WindowLog: 17, HashLog: 15, MinMatch: 6, SkipStep: 1, Strategy: Fast, RepeatOffsets: true},
		{WindowLog: 14, HashLog: 14, MinMatch: 5, SkipStep: 1, Strategy: Fast, RepeatOffsets: true},
		{WindowLog: 12, HashLog: 8, MinMatch: 5, SkipStep: 3, Strategy: Fast, RepeatOffsets: true},
	}
	// repIntoHistory counts repeat-offset matches whose source lies in the
	// history, so the test is known to reach them.
	repIntoHistory := 0
	dictSizes := []int{0, 1, 7, 8, 9, 15, 16, 17, 100, 2048, 4096 + 3, 16 << 10}
	payloadSizes := []int{0, 1, 7, 8, 9, 15, 16, 300, 1024, 5000}
	for _, p := range params {
		for _, dn := range dictSizes {
			dict := textish(rng, dn, nil)
			withDict, err := NewMatcher(p)
			if err != nil {
				t.Fatal(err)
			}
			withDict.SetDict(dict)
			plain, err := NewMatcher(p)
			if err != nil {
				t.Fatal(err)
			}
			// History lengths: the whole dictionary, the window's worth of
			// it, and every length within two hash windows of 0.
			starts := []int{dn, min(dn, 1<<p.WindowLog), dn / 2}
			for s := 0; s <= 17 && s <= dn; s++ {
				starts = append(starts, s)
			}
			for _, start := range starts {
				for _, pn := range payloadSizes {
					hist := slices.Clone(dict[dn-start:])
					payloads := [][]byte{textish(rng, pn, dict)}
					if p.RepeatOffsets {
						payloads = append(payloads, strided(rng, hist, pn, 1+rng.Intn(max(1, min(start, 600)))))
					}
					for _, payload := range payloads {
						src := append(slices.Clone(hist), payload...)
						want := plain.Parse(nil, src, start)
						got := withDict.ParseDict(nil, src, start)
						if !slices.Equal(got, want) {
							t.Fatalf("%v dict %d history %d payload %d: ParseDict differs from Parse\n got %v\nwant %v",
								p.Strategy, dn, start, pn, got, want)
						}
						if pn > 0 {
							if _, err := Apply(src, start, got); err != nil {
								t.Fatalf("%v dict %d history %d payload %d: %v", p.Strategy, dn, start, pn, err)
							}
						}
						pos, last := start, uint32(0)
						for _, sq := range got {
							pos += int(sq.LitLen)
							if sq.MatchLen > 0 && sq.Offset == last && pos-int(sq.Offset) < start {
								repIntoHistory++
							}
							pos += int(sq.MatchLen)
							last = sq.Offset
						}
					}
				}
			}
		}
	}
	if repIntoHistory == 0 {
		t.Fatal("no repeat-offset match reached into the history")
	}
	t.Logf("%d repeat-offset matches reached into the history", repIntoHistory)
}
