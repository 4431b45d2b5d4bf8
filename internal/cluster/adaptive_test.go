package cluster

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/datacomp/datacomp/internal/adaptive"
	"github.com/datacomp/datacomp/internal/core"
	"github.com/datacomp/datacomp/internal/corpus"
	"github.com/datacomp/datacomp/internal/rpc"
)

// TestClusterAdaptiveLinks serves every node link, both ends, through one
// adaptive controller: each rpc method is its own class, re-optimized online
// from the frames it carries. The default, zstd-19, is clearly dominated on
// 2 KiB database rows, so the controller must swap off it while puts and gets
// keep flowing; it must never serve an SLO-infeasible config, and every acked
// write must read back exactly across the swaps.
func TestClusterAdaptiveLinks(t *testing.T) {
	ctrl, err := adaptive.New(adaptive.Config{
		Default:    core.Config{Algorithm: "zstd", Level: 19},
		Interval:   50 * time.Millisecond,
		MinSamples: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctrl.Close) // after the cluster's Close, registered below
	ctrl.Start()
	c := testCluster(t, 3, WithCompression(rpc.Compression{Adaptive: ctrl}))

	swaps := func() (n uint64) {
		for _, s := range ctrl.Status() {
			n += s.Swaps
		}
		return n
	}
	const keys, valueBytes = 64, 2 << 10
	acked := make(map[string][]byte, keys)
	deadline := time.Now().Add(10 * time.Second)
	ops := 0
	for ; swaps() == 0; ops++ {
		if time.Now().After(deadline) {
			t.Fatalf("no class swapped off the default in 10 s (%d ops): %+v", ops, ctrl.Status())
		}
		key := fmt.Sprintf("row-%02d", ops%keys)
		val := corpus.Records(int64(ops), valueBytes)
		if err := c.Put(tctx, []byte(key), val); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
		acked[key] = val
		if got, ok, err := c.Get(tctx, []byte(key)); err != nil || !ok || !bytes.Equal(got, val) {
			t.Fatalf("get %s just put: ok=%v err=%v, %d bytes, want %d", key, ok, err, len(got), len(val))
		}
	}
	for _, s := range ctrl.Status() {
		t.Logf("%-12s %-24s gen=%d swaps=%d", s.Class, s.Config, s.Generation, s.Swaps)
		if !s.Feasible {
			t.Errorf("class %s serves SLO-infeasible %s", s.Class, s.Config)
		}
	}
	for key, want := range acked {
		if got, ok, err := c.Get(tctx, []byte(key)); err != nil || !ok || !bytes.Equal(got, want) {
			t.Errorf("acked write %s lost: ok=%v err=%v", key, ok, err)
		}
	}
	t.Logf("first swap after %d ops", ops)
}
