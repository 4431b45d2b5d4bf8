package codec

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func compressible(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"registry", "engine", "metrics", "measure", "ratio", "block", "codec", "split"}
	var buf bytes.Buffer
	for buf.Len() < n {
		buf.WriteString(words[rng.Intn(len(words))])
		buf.WriteByte(' ')
	}
	return buf.Bytes()[:n]
}

func TestRegistryHasAllThree(t *testing.T) {
	names := Names()
	want := []string{"graph", "lz4", "zlib", "zstd"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
	for _, n := range want {
		c, ok := Lookup(n)
		if !ok {
			t.Fatalf("codec %q missing", n)
		}
		min, max, def := c.Levels()
		if def < min || def > max {
			t.Fatalf("%s: default level %d outside [%d,%d]", n, def, min, max)
		}
	}
	if _, ok := Lookup("brotli"); ok {
		t.Fatal("unexpected codec found")
	}
}

func TestEngineRoundtripAllCodecs(t *testing.T) {
	src := compressible(1, 50000)
	for _, name := range Names() {
		c, _ := Lookup(name)
		_, _, def := c.Levels()
		eng, err := c.New(Options{Level: def})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out, err := eng.Compress(nil, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := eng.Decompress(nil, out)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(back, src) {
			t.Fatalf("%s: roundtrip mismatch", name)
		}
	}
}

func TestNewEngineUnknown(t *testing.T) {
	if _, err := NewEngine("nope", WithLevel(1)); err == nil {
		t.Fatal("unknown codec accepted")
	}
}

func TestOptionsRejectedWhereUnsupported(t *testing.T) {
	if _, err := NewEngine("lz4", WithLevel(1), WithDict([]byte("d"))); err == nil {
		t.Error("lz4 with dict accepted")
	}
	if _, err := NewEngine("lz4", WithLevel(1), WithWindowLog(16)); err == nil {
		t.Error("lz4 with window accepted")
	}
	if _, err := NewEngine("zlib", WithLevel(6), WithDict([]byte("d"))); err == nil {
		t.Error("zlib with dict accepted")
	}
	if _, err := NewEngine("zstd", WithLevel(3), WithDict([]byte("dict")), WithWindowLog(16)); err != nil {
		t.Errorf("zstd with dict+window rejected: %v", err)
	}
}

func TestSplitBlocks(t *testing.T) {
	data := compressible(3, 1000)
	blocks := SplitBlocks(data, 256)
	if len(blocks) != 4 {
		t.Fatalf("got %d blocks", len(blocks))
	}
	if len(blocks[3]) != 1000-3*256 {
		t.Fatalf("last block %d bytes", len(blocks[3]))
	}
	var joined []byte
	for _, b := range blocks {
		joined = append(joined, b...)
	}
	if !bytes.Equal(joined, data) {
		t.Fatal("blocks do not rejoin")
	}
	if got := SplitBlocks(data, 0); len(got) != 1 {
		t.Fatalf("blockSize 0 should give one block, got %d", len(got))
	}
	if got := SplitBlocks(nil, 16); got != nil {
		t.Fatalf("empty data should give no blocks, got %v", got)
	}
}

func TestMeasure(t *testing.T) {
	eng, err := NewEngine("zstd", WithLevel(1))
	if err != nil {
		t.Fatal(err)
	}
	samples := [][]byte{compressible(1, 20000), compressible(2, 30000)}
	m, err := Measure(eng, samples, 8192, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.InputBytes != 50000 {
		t.Fatalf("input bytes = %d", m.InputBytes)
	}
	if m.Blocks != 3+4 {
		t.Fatalf("blocks = %d", m.Blocks)
	}
	if m.Ratio() <= 1 {
		t.Fatalf("ratio = %v, want > 1 on compressible data", m.Ratio())
	}
	if m.CompressMBps() <= 0 || m.DecompressMBps() <= 0 {
		t.Fatalf("speeds not measured: %+v", m)
	}
	if m.DecompressPerBlock() <= 0 {
		t.Fatal("per-block latency not measured")
	}
	var sum Metrics
	sum.Add(m)
	sum.Add(m)
	if sum.InputBytes != 2*m.InputBytes || sum.Blocks != 2*m.Blocks {
		t.Fatalf("Add broken: %+v", sum)
	}
}

func TestMeasureZeroValueMetrics(t *testing.T) {
	var m Metrics
	if m.Ratio() != 0 || m.CompressMBps() != 0 || m.DecompressMBps() != 0 || m.DecompressPerBlock() != 0 {
		t.Fatal("zero metrics should report zeros, not NaN/panic")
	}
}

func TestQuickBlockRoundtrip(t *testing.T) {
	f := func(seed int64, size uint16, bsSel uint8, codecSel uint8) bool {
		names := Names()
		name := names[int(codecSel)%len(names)]
		c, _ := Lookup(name)
		_, _, def := c.Levels()
		eng, err := c.New(Options{Level: def})
		if err != nil {
			return false
		}
		data := compressible(seed, int(size)%20000)
		bs := []int{0, 64, 1024, 4096}[int(bsSel)%4]
		// Each block round-trips on its own through the one engine, and the
		// decoded blocks rejoin to the input.
		var back, comp []byte
		for _, b := range SplitBlocks(data, bs) {
			if comp, err = eng.Compress(comp[:0], b); err != nil {
				return false
			}
			base := len(back)
			if back, err = eng.Decompress(back, comp); err != nil || !bytes.Equal(back[base:], b) {
				return false
			}
		}
		return bytes.Equal(back, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCapabilityMatrix(t *testing.T) {
	want := map[string][2]bool{ // dict, window
		"zstd": {true, true},
		"lz4":  {false, false},
		"zlib": {false, false},
	}
	for name, caps := range want {
		c, ok := Lookup(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		_, _, def := c.Levels()
		_, err := c.New(Options{Level: def, Dict: bytes.Repeat([]byte("dictionary content "), 8)})
		if (err == nil) != caps[0] || c.SupportsWindow() != caps[1] {
			t.Errorf("%s capabilities: dict=%v window=%v", name, err == nil, c.SupportsWindow())
		}
	}
}

func TestMeasureDetectsFailure(t *testing.T) {
	// An engine whose decompressor rejects its own output must fail the
	// roundtrip verification.
	eng := badEngine{}
	if _, err := Measure(eng, [][]byte{compressible(1, 1000)}, 0, 1); err == nil {
		t.Fatal("broken engine passed verification")
	}
}

type badEngine struct{}

func (badEngine) Compress(dst, src []byte) ([]byte, error)   { return append(dst, src...), nil }
func (badEngine) Decompress(dst, src []byte) ([]byte, error) { return append(dst, 'x'), nil }

func TestMeasureRepeats(t *testing.T) {
	eng, err := NewEngine("lz4", WithLevel(1))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Measure(eng, [][]byte{compressible(2, 8192)}, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.InputBytes != 8192 {
		t.Fatalf("repeats must not inflate byte counts: %d", m.InputBytes)
	}
}
