package cache

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/datacomp/datacomp/internal/adaptive"
	"github.com/datacomp/datacomp/internal/core"
	"github.com/datacomp/datacomp/internal/corpus"
)

func TestAdaptiveCacheRoundtrip(t *testing.T) {
	ctrl, err := adaptive.New(adaptive.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	c, err := New(Config{Shards: 2, Adaptive: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	val := corpus.Records(1, 8<<10)
	if err := c.Set("k", "profile", val); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Get("k")
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, val) {
		t.Fatal("roundtrip mismatch")
	}
	// The item type became its own adaptive class.
	found := false
	for _, s := range ctrl.Status() {
		if s.Class == "cache:profile" {
			found = true
		}
	}
	if !found {
		t.Fatal("no cache:profile class registered")
	}
	// Items stay compressed: resident bytes under raw bytes.
	if st := c.Stats(); st.ResidentCompressedBytes >= st.ResidentRawBytes {
		t.Fatalf("no compression: raw %d compressed %d", st.ResidentRawBytes, st.ResidentCompressedBytes)
	}
}

// TestAdaptiveCacheSwapHammer is the cache half of the satellite race
// gate: concurrent Get/Set traffic while the serving config swaps every
// few milliseconds. Items written under retired generations must keep
// decoding — the cache is exactly the consumer whose payloads outlive
// config changes.
func TestAdaptiveCacheSwapHammer(t *testing.T) {
	ctrl, err := adaptive.New(adaptive.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	c, err := New(Config{Shards: 4, Adaptive: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	h, err := ctrl.Handle("cache:items")
	if err != nil {
		t.Fatal(err)
	}
	configs := []core.Config{
		{Algorithm: "zstd", Level: 1},
		{Algorithm: "lz4", Level: 1},
		{Algorithm: "zstd", Level: 6},
		{Algorithm: "zlib", Level: 1},
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			if err := h.Adopt(configs[i%len(configs)]); err != nil {
				t.Errorf("adopt: %v", err)
				return
			}
		}
	}()
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("w%d-k%d", w, i%64)
				want := corpus.Records(int64(w*1000+i%64), 4<<10)
				if err := c.Set(key, "items", want); err != nil {
					t.Errorf("set %s: %v", key, err)
					return
				}
				// Read back keys written many swaps ago too.
				old := fmt.Sprintf("w%d-k%d", w, (i-32+64)%64)
				got, ok, err := c.Get(old)
				if err != nil {
					t.Errorf("get %s: %v", old, err)
					return
				}
				if ok && i >= 32 {
					wantOld := corpus.Records(int64(w*1000+(i-32+64)%64), 4<<10)
					if !bytes.Equal(got, wantOld) {
						t.Errorf("get %s: content mismatch", old)
						return
					}
				}
			}
		}(w)
	}
	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	if h.Generation() < 5 {
		t.Fatalf("only %d generations churned during the hammer", h.Generation())
	}
}
