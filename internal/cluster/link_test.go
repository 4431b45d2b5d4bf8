package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/datacomp/datacomp/internal/faultinject"
	"github.com/datacomp/datacomp/internal/telemetry"
)

// flipLink is a node connection whose reads pass through fault injection.
// It stays a net.Conn, so a call's context deadline still reaches the pipe:
// a flipped length field that promises bytes the node never sends fails
// the call at its deadline instead of hanging it.
type flipLink struct {
	net.Conn
	r io.Reader
}

func (l flipLink) Read(p []byte) (int, error) { return l.r.Read(p) }

// TestClusterLinkBitFlips runs the hammer's shape — one writer per key,
// every worker reading every key — over node links whose client read side
// flips bits. Nothing retries inside a call: a call that fails drops its
// client, and the pool dials afresh. Every successful get must read between
// the last acked put and the last issued one (a failed put is
// indeterminate), every failure must be a lost quorum, and once new dials
// flip nothing, every key must read its last acked value.
func TestClusterLinkBitFlips(t *testing.T) {
	const opsPerWorker, clients = 300, 4
	var flipRate atomic.Uint64 // math.Float64bits of the rate a new dial gets
	var dials, seed atomic.Uint64
	flipRate.Store(math.Float64bits(0.002))
	wrap := func(_ string, dial func(context.Context) (io.ReadWriter, error)) func(context.Context) (io.ReadWriter, error) {
		return func(ctx context.Context) (io.ReadWriter, error) {
			conn, err := dial(ctx)
			if err != nil {
				return nil, err
			}
			dials.Add(1)
			nc := conn.(net.Conn)
			return flipLink{nc, faultinject.New(nc, faultinject.WithSeed(seed.Add(1)),
				faultinject.WithBitFlips(math.Float64frombits(flipRate.Load())))}, nil
		}
	}
	c := testCluster(t, 3, WithClientsPerNode(clients), WithDialWrapper(wrap))
	corrupt := telemetry.Default.Counter("rpc_corrupt_frames_total", "")
	corrupt0 := corrupt.Value()

	// opCtx bounds one op: a call stuck behind a flipped length field gives
	// up here, and the op reports a lost quorum.
	opCtx := func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(tctx, 250*time.Millisecond)
	}
	m := &hammerModel{prefix: "link"}
	// put writes key k's next value, retrying a lost quorum up to tries
	// times, each under a new sequence number.
	put := func(k, tries int) error {
		var err error
		for try := 0; try < tries; try++ {
			err = m.put(k, func(key, value []byte) error {
				ctx, cancel := opCtx()
				defer cancel()
				return c.Put(ctx, key, value)
			})
			if !errors.Is(err, ErrNoQuorum) {
				return err
			}
		}
		return err
	}
	for k := 0; k < hammerKeys; k++ {
		if err := put(k, 20); err != nil {
			t.Fatalf("preload %s: %v", m.key(k), err)
		}
	}

	var putFails, getFails atomic.Int64
	wait := m.start(t, opsPerWorker, nil,
		func(k int) error {
			err := put(k, 1)
			if errors.Is(err, ErrNoQuorum) {
				putFails.Add(1)
				return nil
			}
			return err
		},
		func(key []byte) ([]byte, error) {
			ctx, cancel := opCtx()
			defer cancel()
			v, ok, err := c.Get(ctx, key)
			if errors.Is(err, ErrNoQuorum) {
				getFails.Add(1)
				return nil, nil
			}
			if err == nil && !ok {
				err = errors.New("not found")
			}
			return v, err
		})
	wait()
	if t.Failed() {
		return
	}

	// Every failed call closed its client, and a corrupt frame fails one
	// call: the pools dialed at least once per corrupt frame beyond the
	// clients they hold now.
	idle := 0
	c.mu.RLock()
	for _, p := range c.clients {
		idle += len(p.ch)
	}
	c.mu.RUnlock()
	bad := corrupt.Value() - corrupt0
	t.Logf("%d corrupt frames, %d dials, %d idle clients, %d failed puts, %d failed gets",
		bad, dials.Load(), idle, putFails.Load(), getFails.Load())
	if bad == 0 {
		t.Fatal("no corrupt frame over the run; injection ineffective")
	}
	if int64(dials.Load()) < int64(idle)+bad {
		t.Fatalf("%d dials for %d idle clients and %d corrupt frames: failed clients were not replaced", dials.Load(), idle, bad)
	}

	// New dials flip nothing now. Clients still on flipping links fail at
	// most once each before the pools replace them, so a bounded retry
	// settles every key whose last put was indeterminate, and then every
	// key reads exactly its last acked value.
	flipRate.Store(0)
	for k := 0; k < hammerKeys; k++ {
		if m.issued[k].Load() != m.acked[k].Load() {
			if err := put(k, 3*clients+1); err != nil {
				t.Fatalf("settle %s: %v", m.key(k), err)
			}
		}
	}
	for k := 0; k < hammerKeys; k++ {
		want := fmt.Sprint(m.acked[k].Load())
		var v []byte
		var ok bool
		var err error
		for try := 0; try <= 3*clients; try++ {
			ctx, cancel := opCtx()
			v, ok, err = c.Get(ctx, m.key(k))
			cancel()
			if !errors.Is(err, ErrNoQuorum) {
				break
			}
		}
		if err != nil || !ok || string(v) != want {
			t.Fatalf("get %s = %q ok=%v err=%v, want its last acked %q", m.key(k), v, ok, err, want)
		}
	}
}
