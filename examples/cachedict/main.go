// Cachedict: run the memcached-style object cache over the Managed
// Compression service, a started adaptive controller with one class per
// item type, and compare each type's resident ratio before and after its
// class adopts a dictionary trained from the type's own traffic: the
// paper's CACHE1/CACHE2 story (§IV-C, Figs. 10–11). It exits non-zero if
// no class adopts a dictionary.
//
//	go run ./examples/cachedict
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"github.com/datacomp/datacomp/internal/adaptive"
	"github.com/datacomp/datacomp/internal/cache"
	"github.com/datacomp/datacomp/internal/corpus"
)

const itemsPerType = 1000

func main() {
	ctrl, err := adaptive.New(adaptive.Config{Interval: 100 * time.Millisecond, SampleEvery: 8})
	if err != nil {
		log.Fatal(err)
	}
	defer ctrl.Close()
	types := corpus.DefaultItemTypes()

	// fill writes one type's items into a cache of their own over the
	// controller, reads them back, and returns the cache's resident ratio.
	fill := func(typ corpus.ItemType, seed int64) float64 {
		c, err := cache.New(cache.Config{Shards: 8, Adaptive: ctrl})
		if err != nil {
			log.Fatal(err)
		}
		items := corpus.CacheItems(seed, typ, itemsPerType)
		for j, item := range items {
			if err := c.Set(fmt.Sprint(j), typ.Name, item); err != nil {
				log.Fatal(err)
			}
		}
		for j, item := range items {
			if got, ok, err := c.Get(fmt.Sprint(j)); err != nil || !ok || !bytes.Equal(got, item) {
				log.Fatalf("%s item %d: ok=%v err=%v", typ.Name, j, ok, err)
			}
		}
		return c.Stats().CompressionRatio()
	}

	// Before: every class serves the controller's default while its
	// reservoir samples the type's traffic.
	before := make([]float64, len(types))
	handles := make([]*adaptive.Handle, len(types))
	for i, typ := range types {
		before[i] = fill(typ, int64(100+i))
		if handles[i], err = ctrl.Handle("cache:" + typ.Name); err != nil {
			log.Fatal(err)
		}
	}

	// The controller trains each class's dictionary from its reservoir and
	// adopts it when it wins.
	ctrl.Start()
	adopted := func() (n int) {
		for _, h := range handles {
			if len(h.Config().Dict) > 0 {
				n++
			}
		}
		return n
	}
	for deadline := time.Now().Add(10 * time.Second); adopted() < len(types) && time.Now().Before(deadline); {
		time.Sleep(50 * time.Millisecond)
	}

	fmt.Printf("== %d items per type, resident ratio before → after its class's adoption ==\n", itemsPerType)
	for i, typ := range types {
		after := fill(typ, int64(200+i))
		fmt.Printf("%-15s %5.2f → %5.2f  serving %s\n", typ.Name, before[i], after, handles[i].Config())
	}
	if adopted() == 0 {
		log.Fatal("no class adopted a dictionary")
	}
	fmt.Printf("%d of %d classes adopted a dictionary\n", adopted(), len(types))
}
