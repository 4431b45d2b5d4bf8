package cache

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/datacomp/datacomp/internal/adaptive"
	"github.com/datacomp/datacomp/internal/core"
	"github.com/datacomp/datacomp/internal/corpus"
)

// newCache builds a cache over a controller that is never started, so
// every class serves the controller's default, (zstd, 3).
func newCache(t *testing.T, cfg Config) *Cache {
	t.Helper()
	ctrl, err := adaptive.New(adaptive.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctrl.Close)
	cfg.Adaptive = ctrl
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSetGetRoundtrip(t *testing.T) {
	c := newCache(t, Config{})
	typ := corpus.DefaultItemTypes()[0]
	items := corpus.CacheItems(1, typ, 200)
	for i, it := range items {
		if err := c.Set(fmt.Sprintf("k%d", i), typ.Name, it); err != nil {
			t.Fatal(err)
		}
	}
	for i, it := range items {
		got, ok, err := c.Get(fmt.Sprintf("k%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("item %d missing", i)
		}
		if !bytes.Equal(got, it) {
			t.Fatalf("item %d corrupted", i)
		}
	}
	st := c.Stats()
	if st.Hits != 200 || st.Sets != 200 {
		t.Fatalf("stats: %+v", st)
	}
	if st.CompressionRatio() <= 1 {
		t.Fatalf("items should compress: ratio %.2f", st.CompressionRatio())
	}
}

func TestGetMiss(t *testing.T) {
	c := newCache(t, Config{})
	_, ok, err := c.Get("missing")
	if err != nil || ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("misses = %d", st.Misses)
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	c := newCache(t, Config{})
	if err := c.Set("", "t", []byte("v")); err != ErrEmptyKey {
		t.Fatalf("got %v", err)
	}
	if _, _, err := c.Get(""); err != ErrEmptyKey {
		t.Fatalf("got %v", err)
	}
	if c.Delete("") {
		t.Fatal("deleted empty key")
	}
}

func TestDelete(t *testing.T) {
	c := newCache(t, Config{})
	v := bytes.Repeat([]byte("abc"), 100)
	if err := c.Set("k", "t", v); err != nil {
		t.Fatal(err)
	}
	if !c.Delete("k") {
		t.Fatal("delete failed")
	}
	if c.Delete("k") {
		t.Fatal("double delete succeeded")
	}
	if _, ok, _ := c.Get("k"); ok {
		t.Fatal("deleted key still present")
	}
	st := c.Stats()
	if st.ResidentRawBytes != 0 || st.ResidentCompressedBytes != 0 {
		t.Fatalf("resident bytes not released: %+v", st)
	}
}

func TestOverwriteAccounting(t *testing.T) {
	c := newCache(t, Config{Shards: 1})
	big := bytes.Repeat([]byte("hello world "), 200)
	small := bytes.Repeat([]byte("x"), 100)
	if err := c.Set("k", "t", big); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("k", "t", small); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.ResidentRawBytes != int64(len(small)) {
		t.Fatalf("raw bytes = %d want %d", st.ResidentRawBytes, len(small))
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestLRUEviction(t *testing.T) {
	c := newCache(t, Config{Shards: 1, CapacityBytes: 4096, MinCompressSize: 1 << 20})
	// Incompressible-ish values stored raw: 16 x 512B > 4096B capacity.
	for i := 0; i < 16; i++ {
		v := bytes.Repeat([]byte{byte(i)}, 512)
		if err := c.Set(fmt.Sprintf("k%d", i), "t", v); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evicts == 0 {
		t.Fatal("no evictions under pressure")
	}
	if st.ResidentCompressedBytes > 4096 {
		t.Fatalf("capacity exceeded: %d", st.ResidentCompressedBytes)
	}
	// Oldest keys should be gone, newest present.
	if _, ok, _ := c.Get("k0"); ok {
		t.Fatal("oldest key survived")
	}
	if _, ok, _ := c.Get("k15"); !ok {
		t.Fatal("newest key evicted")
	}
}

// TestDictionaryImprovesResidentRatio drives small items through a started
// default controller. Once the cache:edge_assoc class adopts the dictionary
// it trains, the same items sit smaller than under a controller that never
// trains.
func TestDictionaryImprovesResidentRatio(t *testing.T) {
	typ := corpus.DefaultItemTypes()[2] // edge_assoc: small items
	ctrl, err := adaptive.New(adaptive.Config{Interval: 10 * time.Millisecond, SampleEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	warm, err := New(Config{Shards: 1, Adaptive: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	h, err := ctrl.Handle(adaptiveClassPrefix + typ.Name)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Start()
	train := corpus.CacheItems(1, typ, 2000)
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; len(h.Config().Dict) == 0; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("no dictionary adopted after %d sets", i)
		}
		if err := warm.Set(fmt.Sprintf("w%d", i%len(train)), typ.Name, train[i%len(train)]); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Microsecond)
	}

	plain := newCache(t, Config{Shards: 1})
	dicted, err := New(Config{Shards: 1, Adaptive: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	items := corpus.CacheItems(99, typ, 500)
	for i, it := range items {
		key := fmt.Sprintf("k%d", i)
		if err := plain.Set(key, typ.Name, it); err != nil {
			t.Fatal(err)
		}
		if err := dicted.Set(key, typ.Name, it); err != nil {
			t.Fatal(err)
		}
	}
	// Verify values survive the dictionary path.
	for i, it := range items {
		got, ok, err := dicted.Get(fmt.Sprintf("k%d", i))
		if err != nil || !ok || !bytes.Equal(got, it) {
			t.Fatalf("dict get %d: ok=%v err=%v", i, ok, err)
		}
	}
	pr := plain.Stats().CompressionRatio()
	dr := dicted.Stats().CompressionRatio()
	t.Logf("plain ratio %.2f, dict ratio %.2f (serving %s)", pr, dr, h.Config())
	if dr <= pr {
		t.Fatalf("dictionary should improve ratio: plain %.2f dict %.2f", pr, dr)
	}
}

func TestNetworkAccounting(t *testing.T) {
	c := newCache(t, Config{Shards: 1})
	v := bytes.Repeat([]byte("net bytes saved "), 64)
	if err := c.Set("k", "t", v); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get("k"); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.NetworkBytesRaw != int64(len(v)) {
		t.Fatalf("raw net bytes = %d", st.NetworkBytesRaw)
	}
	if st.NetworkBytesCompressed >= st.NetworkBytesRaw {
		t.Fatal("compressed network bytes should be smaller")
	}
	if st.ServerCompressTime <= 0 || st.ClientDecompressTime <= 0 {
		t.Fatalf("timing not accounted: %+v", st)
	}
}

func TestTinyItemsStoredRaw(t *testing.T) {
	c := newCache(t, Config{Shards: 1, MinCompressSize: 64})
	if err := c.Set("k", "t", []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Get("k")
	if err != nil || !ok || string(got) != "tiny" {
		t.Fatalf("got=%q ok=%v err=%v", got, ok, err)
	}
	if st := c.Stats(); st.ServerCompressTime != 0 {
		t.Fatal("tiny item should skip compression")
	}
}

func TestIncompressibleItemsStoredRaw(t *testing.T) {
	c := newCache(t, Config{Shards: 1})
	value := make([]byte, 1024)
	rand.New(rand.NewSource(1)).Read(value)
	if err := c.Set("k", "t", value); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Get("k")
	if err != nil || !ok || !bytes.Equal(got, value) {
		t.Fatalf("roundtrip failed: ok=%v err=%v", ok, err)
	}
	if st := c.Stats(); st.ResidentCompressedBytes != int64(len(value)) || st.ResidentRawBytes != int64(len(value)) {
		t.Fatalf("incompressible item not stored raw: %+v", st)
	}
}

func TestBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("cache without a controller accepted")
	}
	// A class takes a dictionary only on zstd.
	ctrl, err := adaptive.New(adaptive.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	h, err := ctrl.Handle(adaptiveClassPrefix + "t")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Adopt(core.Config{Algorithm: "lz4", Level: 1, Dict: []byte("d")}); err == nil {
		t.Fatal("dict with lz4 accepted")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := newCache(t, Config{Shards: 8})
	typ := corpus.DefaultItemTypes()[0]
	items := corpus.CacheItems(7, typ, 64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, it := range items {
				key := fmt.Sprintf("g%d-k%d", g, i)
				if err := c.Set(key, typ.Name, it); err != nil {
					t.Error(err)
					return
				}
				got, ok, err := c.Get(key)
				if err != nil || !ok || !bytes.Equal(got, it) {
					t.Errorf("g%d item %d: ok=%v err=%v", g, i, ok, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() != 8*len(items) {
		t.Fatalf("len = %d", c.Len())
	}
}
