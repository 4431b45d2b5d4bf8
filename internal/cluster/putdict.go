package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/datacomp/datacomp/internal/dict"
	"github.com/datacomp/datacomp/internal/rpc"
	"github.com/datacomp/datacomp/internal/zstd"
)

// The cluster dictionary (DESIGN.md §11): one zstd dictionary, trained by
// the coordinator from its first puts and installed on every node
// (MethodInstall), which each kv.put is then coded against once per
// fan-out, at putLevel, instead of with the links' lz4. Every replica's WAL
// keeps that coding as it arrived. A node's store dictionary cannot stand
// in for it: stores train on what they hold, and nodes holding different
// keys train different ones. The cluster trains one for its life.
const (
	// putLevel is the zstd level puts are coded at: a fast level, whose
	// frames against a dictionary with tables are as small as level 1's on
	// kv.put bodies, for less CPU on both ends.
	putLevel = -3
	// putDictBytes bounds the dictionary's content, as a store's.
	putDictBytes = 2 << 10
	// putSampleBytes is how much put traffic the dictionary trains on.
	putSampleBytes = 64 << 10
)

// putDict is a cluster's dictionary state: the samples it trains on, then
// the dictionary. Safe for concurrent use.
type putDict struct {
	cur atomic.Pointer[rpc.Dict] // nil until trained and installed where it could be

	mu       sync.Mutex
	samples  [][]byte // copies of kv.put bodies of at least rpc.MinSize
	size     int
	done     bool          // sampling is over: the dictionary is training, or trained
	training chan struct{} // closed once the training ends; nil while none runs
}

// wait holds a put while the dictionary trains (a few milliseconds of CPU,
// once), so that every writer waits it out, not only the one whose put
// trains it: writers loading keys in parallel that fall out of step stay
// out of step, so the tables each flush writes overlap the next ones' key
// ranges and compaction rewrites blocks it would have carried. It waits
// for nothing else — not for the installs, which need the network.
func (d *putDict) wait(ctx context.Context) error {
	if d.cur.Load() != nil {
		return nil
	}
	d.mu.Lock()
	ch := d.training
	d.mu.Unlock()
	if ch == nil {
		return nil
	}
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// sample keeps a copy of body, a kv.put request, until the samples reach
// putSampleBytes; the put that fills them trains the dictionary and
// installs it on every node, and only then do puts use it.
func (d *putDict) sample(ctx context.Context, c *Cluster, body []byte) {
	if d.cur.Load() != nil || len(body) < rpc.MinSize {
		return
	}
	d.mu.Lock()
	if d.done {
		d.mu.Unlock()
		return
	}
	d.samples = append(d.samples, slices.Clone(body))
	d.size += len(body)
	full := d.size >= putSampleBytes
	samples := d.samples
	if d.done = full; full {
		d.samples, d.size = nil, 0
		d.training = make(chan struct{})
	}
	d.mu.Unlock()
	if full {
		d.train(ctx, c, samples)
	}
}

// train trains the dictionary from samples, installs it on every running
// node and then makes puts use it. It runs on the put that filled the
// samples and holds no cluster lock: other puts wait out the training
// (wait) but not the installs, and go on coded as the links code until the
// dictionary is published; a node the install missed gets it from
// forOwners before its first put coded against it. Samples too alike to
// train on are dropped, and sampling starts afresh.
func (d *putDict) train(ctx context.Context, c *Cluster, samples [][]byte) {
	b, err := dict.TrainZstd(putLevel, putDictBytes, samples, samples)
	d.mu.Lock()
	close(d.training)
	d.training = nil
	d.done = err == nil
	d.mu.Unlock()
	if err != nil {
		return
	}
	nd := &rpc.Dict{Bytes: b, ID: zstd.DictID(b), Level: putLevel}
	c.mu.RLock()
	pools := make([]*clientPool, 0, len(c.clients))
	for _, p := range c.clients {
		pools = append(pools, p)
	}
	c.mu.RUnlock()
	for _, p := range pools {
		if p.node.Running() {
			_ = p.install(ctx, nd)
		}
	}
	d.cur.Store(nd)
}

// forOwners is the dictionary a put to reps is coded against: the cluster
// dictionary once every owner holds it, installing it on an owner that does
// not yet, and the zero Dict while there is none or an owner could not take
// it.
func (d *putDict) forOwners(ctx context.Context, reps []replica) rpc.Dict {
	cur := d.cur.Load()
	if cur == nil {
		return rpc.Dict{}
	}
	for i := range reps {
		if p := reps[i].pool; p.installed.Load() != cur.ID && p.install(ctx, cur) != nil {
			return rpc.Dict{}
		}
	}
	return *cur
}

// errNoPutDict fails an install asked for before the cluster has a
// dictionary.
var errNoPutDict = errors.New("cluster: no cluster dictionary to install")

// install gives the node d with kv.install, unless it acked d already.
func (p *clientPool) install(ctx context.Context, d *rpc.Dict) error {
	if d == nil {
		return errNoPutDict
	}
	p.installMu.Lock()
	defer p.installMu.Unlock()
	if p.installed.Load() == d.ID {
		return nil
	}
	cmDictInstalls.Inc()
	req := binary.LittleEndian.AppendUint32(make([]byte, 0, 4+len(d.Bytes)), d.ID)
	if _, err := p.callOnce(ctx, nil, MethodInstall, append(req, d.Bytes...), nil); err != nil {
		return fmt.Errorf("install dictionary %08x on %s: %w", d.ID, p.node.Name(), err)
	}
	p.installed.Store(d.ID)
	return nil
}
