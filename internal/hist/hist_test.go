package hist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCountBasics(t *testing.T) {
	h := Count([]byte("abracadabra"))
	if h.Total != 11 {
		t.Fatalf("total = %d", h.Total)
	}
	if h.Counts['a'] != 5 || h.Counts['b'] != 2 || h.Counts['r'] != 2 || h.Counts['c'] != 1 || h.Counts['d'] != 1 {
		t.Fatalf("bad counts: %v", h.Counts[:128])
	}
	if h.MaxSymbol != 'r' {
		t.Fatalf("max symbol = %d", h.MaxSymbol)
	}
	if h.Distinct() != 5 {
		t.Fatalf("distinct = %d", h.Distinct())
	}
}

func TestCountEmpty(t *testing.T) {
	h := Count(nil)
	if h.Total != 0 || h.MaxSymbol != -1 {
		t.Fatalf("empty histogram: %+v", h)
	}
	if h.ShannonEntropy() != 0 {
		t.Fatal("entropy of empty data should be 0")
	}
	if _, err := h.Normalize(6); err != ErrEmpty {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
}

func TestSingleSymbol(t *testing.T) {
	h := Count([]byte{42, 42, 42, 42})
	if !h.IsSingleSymbol() {
		t.Fatal("should be single symbol")
	}
	norm, err := h.Normalize(6)
	if err != nil {
		t.Fatal(err)
	}
	if norm[42] != 64 {
		t.Fatalf("single symbol should own the whole table: %v", norm)
	}
}

func TestEntropyUniform(t *testing.T) {
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i)
	}
	h := Count(data)
	if e := h.ShannonEntropy(); math.Abs(e-8.0) > 1e-9 {
		t.Fatalf("uniform 256-symbol entropy = %v, want 8", e)
	}
}

func TestEntropyBiased(t *testing.T) {
	// Biased coin p=0.25: H = 0.25*2 + 0.75*log2(4/3) ≈ 0.8113.
	data := make([]byte, 1000)
	for i := 0; i < 250; i++ {
		data[i] = 1
	}
	h := Count(data)
	want := -(0.25*math.Log2(0.25) + 0.75*math.Log2(0.75))
	if e := h.ShannonEntropy(); math.Abs(e-want) > 1e-9 {
		t.Fatalf("entropy = %v want %v", e, want)
	}
}

func TestNormalizeSumsToTableSize(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog, the quick brown fox")
	h := Count(data)
	for _, log := range []uint{5, 6, 8, 10, 12} {
		norm, err := h.Normalize(log)
		if err != nil {
			t.Fatalf("log %d: %v", log, err)
		}
		if err := ValidateNormalized(norm, log); err != nil {
			t.Fatalf("log %d: %v", log, err)
		}
		// Every present symbol must keep a slot.
		for s := 0; s <= h.MaxSymbol; s++ {
			if h.Counts[s] > 0 && norm[s] == 0 {
				t.Fatalf("log %d: symbol %d lost its slot", log, s)
			}
			if h.Counts[s] == 0 && s < len(norm) && norm[s] != 0 {
				t.Fatalf("log %d: absent symbol %d gained a slot", log, s)
			}
		}
	}
}

func TestNormalizeTooManySymbols(t *testing.T) {
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i)
	}
	h := Count(data)
	if _, err := h.Normalize(5); err != ErrTooManySymbols {
		t.Fatalf("want ErrTooManySymbols, got %v", err)
	}
}

func TestNormalizeProportionality(t *testing.T) {
	// A symbol with 90% of the mass should get roughly 90% of the slots.
	data := make([]byte, 1000)
	for i := 0; i < 900; i++ {
		data[i] = 'x'
	}
	for i := 900; i < 1000; i++ {
		data[i] = 'y'
	}
	h := Count(data)
	norm, err := h.Normalize(8)
	if err != nil {
		t.Fatal(err)
	}
	if norm['x'] < 220 || norm['x'] > 236 {
		t.Fatalf("x share = %d, want ≈230", norm['x'])
	}
}

func TestOptimalTableLogBounds(t *testing.T) {
	// Tiny inputs get the smallest table, two symbols included.
	for _, data := range [][]byte{{1, 2}, {1, 2, 3}, {1, 1, 2, 2}, []byte("ab")} {
		h := Count(data)
		if log := OptimalTableLog(&h, 12); log != MinTableLog {
			t.Fatalf("%v: log %d, want %d", data, log, MinTableLog)
		}
	}
	big := Count(make([]byte, 1<<20))
	if log := OptimalTableLog(&big, 9); log != 9 {
		t.Fatalf("cap not honored: %d", log)
	}
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i)
	}
	wide := Count(data)
	if log := OptimalTableLog(&wide, 12); (1 << log) < wide.Distinct() {
		t.Fatalf("table too small for alphabet: log=%d distinct=%d", log, wide.Distinct())
	}
}

func TestQuickNormalizeInvariants(t *testing.T) {
	f := func(seed int64, size uint16, logSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(size)%4096 + 1
		data := make([]byte, n)
		// Mix of skewed and uniform data.
		alpha := rng.Intn(255) + 1
		for i := range data {
			data[i] = byte(rng.Intn(alpha))
		}
		h := Count(data)
		log := uint(logSel)%(MaxTableLog-MinTableLog+1) + MinTableLog
		norm, err := h.Normalize(log)
		if err == ErrTooManySymbols {
			return h.Distinct() > 1<<log
		}
		if err != nil {
			return false
		}
		if ValidateNormalized(norm, log) != nil {
			return false
		}
		for s := 0; s <= h.MaxSymbol; s++ {
			if (h.Counts[s] > 0) != (norm[s] > 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCount(b *testing.B) {
	data := make([]byte, 1<<16)
	rng := rand.New(rand.NewSource(1))
	for i := range data {
		data[i] = byte(rng.Intn(64))
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Count(data)
	}
}

func BenchmarkNormalize(b *testing.B) {
	data := make([]byte, 1<<16)
	rng := rand.New(rand.NewSource(1))
	for i := range data {
		data[i] = byte(rng.Intn(64))
	}
	h := Count(data)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Normalize(9); err != nil {
			b.Fatal(err)
		}
	}
}
