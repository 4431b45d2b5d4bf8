package adaptive

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/datacomp/datacomp/internal/core"
	"github.com/datacomp/datacomp/internal/corpus"
)

// TestSwapHammer drives concurrent compress/decompress traffic through a
// handle while generations swap every few milliseconds — the satellite
// race gate. Run under -race in CI. Every frame must decode without error,
// to the exact payload, and its header must name the generation that was
// serving when it was encoded.
func TestSwapHammer(t *testing.T) {
	c := testController(t, Config{RetainGenerations: 2})
	h, err := c.Handle("hammer")
	if err != nil {
		t.Fatal(err)
	}
	// The controller worker also runs, competing with the explicit swapper
	// below for adoption; both paths must be safe together.
	c.Start()

	payloads := [][]byte{
		corpus.LogLines(11, 4<<10),
		corpus.Records(12, 4<<10),
		corpus.SourceCode(13, 4<<10),
	}
	configs := []core.Config{
		{Algorithm: "zstd", Level: 1},
		{Algorithm: "lz4", Level: 1},
		{Algorithm: "zstd", Level: 6},
		{Algorithm: "zlib", Level: 1},
		{Algorithm: "zstd", Level: 3, WindowLog: 16},
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var decodes, oldGen atomic.Uint64

	// Swapper: a new generation every 2ms.
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			if err := h.adopt(core.Result{Config: configs[i%len(configs)], Feasible: true}); err != nil {
				t.Errorf("adopt: %v", err)
				return
			}
			i++
		}
	}()

	// Hammerers: compress, parse, decompress, verify — reusing buffers the
	// way a serving loop would.
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var comp, out []byte
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				src := payloads[(w+i)%len(payloads)]
				lo := h.Generation() // current gen before encode
				var err error
				comp, err = h.Compress(comp[:0], src)
				if err != nil {
					t.Errorf("compress: %v", err)
					return
				}
				hi := h.Generation() // swaps during encode land in [lo, hi]
				gen, _, _, _, err := ParseFrame(comp)
				if err != nil {
					t.Errorf("parse: %v", err)
					return
				}
				if gen < lo || gen > hi {
					t.Errorf("frame generation %d outside window [%d, %d]", gen, lo, hi)
					return
				}
				out, err = h.Decompress(out[:0], comp)
				if err != nil {
					t.Errorf("decompress gen %d (current %d): %v", gen, h.Generation(), err)
					return
				}
				if !bytes.Equal(out, src) {
					t.Errorf("roundtrip mismatch at gen %d", gen)
					return
				}
				decodes.Add(1)
				if gen != h.Generation() {
					oldGen.Add(1)
				}
			}
		}(w)
	}

	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	if decodes.Load() == 0 {
		t.Fatal("no frames exercised")
	}
	if h.Generation() < 5 {
		t.Fatalf("only %d generations churned; swapper too slow for the race to mean anything", h.Generation())
	}
	if oldGen.Load() == 0 {
		t.Fatal("no frame ever decoded under a retired generation; race surface not exercised")
	}
	t.Logf("hammer: %d decodes across %d generations (%d via retired gens, %d drops)",
		decodes.Load(), h.Generation(), oldGen.Load(), h.sampleDrops.Load())
}
