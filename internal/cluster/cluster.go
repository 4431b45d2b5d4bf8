package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"github.com/datacomp/datacomp/internal/kvstore"
	"github.com/datacomp/datacomp/internal/rpc"
	"github.com/datacomp/datacomp/internal/telemetry"
)

// Package-level telemetry on the shared registry.
var (
	cmOnce                                sync.Once
	cmPuts, cmGets, cmDeletes             *telemetry.Counter
	cmRepairs, cmCorrupt, cmStale         *telemetry.Counter
	cmQuorumFailures, cmRebalancedRecords *telemetry.Counter
	cmReplicaErrors                       *telemetry.Counter
	cmPutBlind, cmPutCompared             *telemetry.Counter
)

func cm() {
	cmOnce.Do(func() {
		r := telemetry.Default
		cmPuts = r.Counter("cluster_puts_total", "cluster put operations")
		cmGets = r.Counter("cluster_gets_total", "cluster get operations")
		cmDeletes = r.Counter("cluster_deletes_total", "cluster delete operations")
		cmRepairs = r.Counter("cluster_read_repairs_total", "replica records rewritten by read-repair")
		cmCorrupt = r.Counter("cluster_corrupt_replicas_total", "replica reads failing the record checksum")
		cmStale = r.Counter("cluster_stale_replicas_total", "replica reads returning an older version")
		cmQuorumFailures = r.Counter("cluster_quorum_failures_total", "operations failing to reach quorum")
		cmRebalancedRecords = r.Counter("cluster_rebalanced_records_total", "records copied during rebalancing")
		cmReplicaErrors = r.Counter("cluster_replica_errors_total", "per-replica call failures")
		cmPutBlind = r.Counter("cluster_put_blind_total", "replica puts written without reading the stored record")
		cmPutCompared = r.Counter("cluster_put_compared_total", "replica puts that read and compared the stored record first")
	})
}

// ErrNoQuorum is returned when fewer replicas than the required quorum
// acknowledged an operation.
var ErrNoQuorum = errors.New("cluster: quorum not reached")

// ErrNoNodes is returned for operations on an empty cluster.
var ErrNoNodes = errors.New("cluster: no nodes")

// Option configures a Cluster.
type Option func(*clusterConfig)

type clusterConfig struct {
	replication    int
	vnodes         int
	clientsPerNode int
	comp           rpc.Compression
	nodeOpts       []NodeOption
	dialWrap       func(string, func(context.Context) (io.ReadWriter, error)) func(context.Context) (io.ReadWriter, error)
}

// WithReplication sets the replica count N (default 3). Write and read
// quorums are both majorities of N, so a read always intersects the last
// acknowledged write.
func WithReplication(n int) Option { return func(c *clusterConfig) { c.replication = n } }

// WithVirtualNodes sets the ring's virtual nodes per physical node
// (default 64).
func WithVirtualNodes(n int) Option { return func(c *clusterConfig) { c.vnodes = n } }

// WithClientsPerNode sizes the per-node rpc client pool (default 2) —
// concurrent cluster callers beyond the pool size queue per node.
func WithClientsPerNode(n int) Option { return func(c *clusterConfig) { c.clientsPerNode = n } }

// WithCompression sets the transport compression used on node links. It
// must match the nodes' own (default lz4-1 with checksums).
func WithCompression(comp rpc.Compression) Option {
	return func(c *clusterConfig) { c.comp = comp }
}

// WithNodeDefaults appends NodeOptions applied to every node the cluster
// creates via AddNode.
func WithNodeDefaults(opts ...NodeOption) Option {
	return func(c *clusterConfig) { c.nodeOpts = append(c.nodeOpts, opts...) }
}

// WithDialWrapper interposes on every node dial — the chaos hook where a
// faultinject.Conn slips between client and node. The wrapper receives the
// node name and its dial function and returns the dial to use.
func WithDialWrapper(w func(node string, dial func(context.Context) (io.ReadWriter, error)) func(context.Context) (io.ReadWriter, error)) Option {
	return func(c *clusterConfig) { c.dialWrap = w }
}

// Cluster routes versioned keys over a consistent-hash ring of rpc-served
// kvstore nodes with majority-quorum replication and read-repair.
type Cluster struct {
	cfg     clusterConfig
	version atomic.Uint64

	mu      sync.RWMutex
	ring    *Ring
	nodes   map[string]*Node
	clients map[string]*clientPool

	// Stats below are process-wide mirrors of the telemetry counters,
	// kept per-cluster for tests.
	repairs   atomic.Int64
	corrupt   atomic.Int64
	rebalance atomic.Int64
}

// New builds an empty cluster; add members with AddNode or Join.
func New(opts ...Option) *Cluster {
	cfg := clusterConfig{
		replication:    3,
		clientsPerNode: 2,
		comp:           rpc.Compression{Codec: "lz4", Level: 1, Checksum: true},
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.replication < 1 {
		cfg.replication = 1
	}
	if cfg.clientsPerNode < 1 {
		cfg.clientsPerNode = 1
	}
	cm()
	return &Cluster{
		cfg:     cfg,
		ring:    NewRing(cfg.vnodes),
		nodes:   make(map[string]*Node),
		clients: make(map[string]*clientPool),
	}
}

// quorum is the majority of the effective replica set.
func (c *Cluster) quorum(replicas int) int { return replicas/2 + 1 }

// AddNode creates a node, joins it to the ring, and rebalances existing
// keys onto it.
func (c *Cluster) AddNode(ctx context.Context, name string, opts ...NodeOption) (*Node, error) {
	n, err := NewNode(ctx, name, append(append([]NodeOption{}, c.cfg.nodeOpts...), opts...)...)
	if err != nil {
		return nil, err
	}
	if err := c.Join(ctx, n); err != nil {
		return nil, err
	}
	return n, nil
}

// Join adds an existing node to the ring and copies onto it every record
// it now owns.
func (c *Cluster) Join(ctx context.Context, n *Node) error {
	c.mu.Lock()
	if _, dup := c.nodes[n.Name()]; dup {
		c.mu.Unlock()
		return fmt.Errorf("cluster: duplicate node %q", n.Name())
	}
	c.nodes[n.Name()] = n
	c.clients[n.Name()] = newClientPool(c, n)
	c.ring.Add(n.Name())
	c.mu.Unlock()
	return c.Rebalance(ctx)
}

// Leave removes a node from the ring, first copying its records to their
// new owners. The node itself keeps running until the caller stops it.
func (c *Cluster) Leave(ctx context.Context, name string) error {
	c.mu.Lock()
	n, ok := c.nodes[name]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("cluster: unknown node %q", name)
	}
	// Drop from the ring first so owners are computed without it, then
	// push its data to the new owner set.
	c.ring.Remove(name)
	delete(c.nodes, name)
	pool := c.clients[name]
	delete(c.clients, name)
	c.mu.Unlock()

	var err error
	if n.Running() {
		err = c.drainFrom(ctx, pool)
	}
	pool.close()
	return err
}

// Node returns a member by name (nil if absent) — the handle tests and
// harnesses use to crash and restart members.
func (c *Cluster) Node(name string) *Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nodes[name]
}

// Nodes lists member names in sorted order.
func (c *Cluster) Nodes() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ring.Nodes()
}

// Close stops every node.
func (c *Cluster) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for name, p := range c.clients {
		p.close()
		delete(c.clients, name)
	}
	for name, n := range c.nodes {
		if err := n.Stop(); err != nil && first == nil {
			first = err
		}
		delete(c.nodes, name)
	}
	return first
}

// owners resolves the replica set and pools for key.
func (c *Cluster) owners(key []byte) ([]string, []*clientPool, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.ring.Len() == 0 {
		return nil, nil, ErrNoNodes
	}
	names := c.ring.Owners(key, c.cfg.replication)
	pools := make([]*clientPool, len(names))
	for i, name := range names {
		pools[i] = c.clients[name]
	}
	return names, pools, nil
}

// NextVersion mints a monotonically increasing write version. Exposed so
// load harnesses can stamp their own records when verifying.
func (c *Cluster) NextVersion() uint64 { return c.version.Add(1) }

// Put replicates key→value to its owners; it succeeds once a majority
// acknowledged a durable write.
func (c *Cluster) Put(ctx context.Context, key, value []byte) error {
	if len(key) == 0 {
		return kvstore.ErrEmptyKey
	}
	cmPuts.Inc()
	rec := appendRecord(nil, c.NextVersion(), false, value)
	req := appendKeyRecord(nil, key, rec)
	return c.writeQuorum(ctx, key, MethodPut, req)
}

// Delete replicates a versioned tombstone for key.
func (c *Cluster) Delete(ctx context.Context, key []byte) error {
	if len(key) == 0 {
		return kvstore.ErrEmptyKey
	}
	cmDeletes.Inc()
	req := binary.AppendUvarint(nil, uint64(len(key)))
	req = append(req, key...)
	req = binary.LittleEndian.AppendUint64(req, c.NextVersion())
	return c.writeQuorum(ctx, key, MethodDelete, req)
}

func (c *Cluster) writeQuorum(ctx context.Context, key []byte, method string, req []byte) error {
	_, pools, err := c.owners(key)
	if err != nil {
		return err
	}
	acks := 0
	var lastErr error
	for _, p := range pools {
		if _, err := p.call(ctx, method, req); err != nil {
			cmReplicaErrors.Inc()
			lastErr = err
			continue
		}
		acks++
	}
	if acks < c.quorum(len(pools)) {
		cmQuorumFailures.Inc()
		if lastErr != nil {
			return fmt.Errorf("%w: %d/%d acks: %w", ErrNoQuorum, acks, len(pools), lastErr)
		}
		return fmt.Errorf("%w: %d/%d acks", ErrNoQuorum, acks, len(pools))
	}
	return nil
}

// Get reads key from its replica set: every owner is consulted (the read
// fails unless a quorum of them answers), the highest-version
// checksum-valid record wins, and any replica that returned stale, missing,
// or corrupt data is repaired with the winner before Get returns.
func (c *Cluster) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	if len(key) == 0 {
		return nil, false, kvstore.ErrEmptyKey
	}
	cmGets.Inc()
	names, pools, err := c.owners(key)
	if err != nil {
		return nil, false, err
	}
	type reply struct {
		idx  int
		rec  record
		raw  []byte // full record bytes, nil when the replica had none
		ok   bool   // call succeeded
		lost bool   // record present but checksum-invalid
	}
	replies := make([]reply, 0, len(pools))
	responded := 0
	var callErrs []error
	for i, p := range pools {
		resp, err := p.call(ctx, MethodGet, key)
		if err != nil {
			cmReplicaErrors.Inc()
			callErrs = append(callErrs, fmt.Errorf("%s: %w", names[i], err))
			replies = append(replies, reply{idx: i})
			continue
		}
		responded++
		r := reply{idx: i, ok: true}
		if len(resp) >= 1 && resp[0] == 0x01 {
			raw := resp[1:]
			rec, perr := parseRecord(raw)
			switch {
			case perr != nil || !rec.sumOK(raw):
				r.lost = true
				cmCorrupt.Inc()
				c.corrupt.Add(1)
			default:
				r.rec = rec
				r.raw = append([]byte{}, raw...)
			}
		}
		replies = append(replies, r)
	}
	if responded < c.quorum(len(pools)) {
		cmQuorumFailures.Inc()
		return nil, false, fmt.Errorf("get: %w: %d/%d replicas: %w", ErrNoQuorum, responded, len(pools), errors.Join(callErrs...))
	}

	// Pick the winner: highest version among checksum-valid records.
	var best *reply
	for i := range replies {
		r := &replies[i]
		if r.raw == nil {
			continue
		}
		if best == nil || r.rec.version > best.rec.version {
			best = r
		}
	}

	// Read-repair: push the winner to every responsive replica that
	// disagrees (stale version, missing, or corrupt).
	if best != nil {
		req := appendKeyRecord(nil, key, best.raw)
		for _, r := range replies {
			if !r.ok || r.idx == best.idx {
				continue
			}
			needs := r.lost || r.raw == nil || r.rec.version < best.rec.version
			if !needs {
				continue
			}
			if r.raw != nil && !r.lost {
				cmStale.Inc()
			}
			if _, err := pools[r.idx].call(ctx, MethodPut, req); err == nil {
				cmRepairs.Inc()
				c.repairs.Add(1)
			}
		}
	}

	if best == nil || best.rec.tombstone {
		return nil, false, nil
	}
	return append([]byte{}, best.rec.payload...), true, nil
}

// Rebalance copies every record to its current owner set — run after ring
// membership changes. Writes are versioned, so re-copying is idempotent
// and concurrent user writes are never regressed.
func (c *Cluster) Rebalance(ctx context.Context) error {
	c.mu.RLock()
	pools := make([]*clientPool, 0, len(c.clients))
	for _, p := range c.clients {
		pools = append(pools, p)
	}
	c.mu.RUnlock()
	for _, p := range pools {
		if !p.node.Running() {
			continue
		}
		if err := c.drainFrom(ctx, p); err != nil {
			return err
		}
	}
	return nil
}

// drainFrom dumps one node and re-puts each record to its owners.
func (c *Cluster) drainFrom(ctx context.Context, src *clientPool) error {
	dumpResp, err := src.call(ctx, MethodDump, nil)
	if err != nil {
		return fmt.Errorf("rebalance dump from %s: %w", src.node.Name(), err)
	}
	return walkDump(dumpResp, func(key, rec []byte) error {
		_, pools, err := c.owners(key)
		if err != nil {
			return err
		}
		req := appendKeyRecord(nil, key, rec)
		for _, p := range pools {
			if p == src {
				continue
			}
			if _, err := p.call(ctx, MethodPut, req); err != nil {
				cmReplicaErrors.Inc()
				continue // best-effort: quorum reads tolerate a lagging copy
			}
			cmRebalancedRecords.Inc()
			c.rebalance.Add(1)
		}
		return nil
	})
}

// Stats is a per-cluster view of repair and rebalance activity.
type Stats struct {
	ReadRepairs       int64
	CorruptReplicas   int64
	RebalancedRecords int64
}

// Stats returns per-cluster counters (the telemetry registry carries the
// process-wide versions).
func (c *Cluster) Stats() Stats {
	return Stats{
		ReadRepairs:       c.repairs.Load(),
		CorruptReplicas:   c.corrupt.Load(),
		RebalancedRecords: c.rebalance.Load(),
	}
}

// clientPool is a fixed-size pool of rpc clients to one node. Clients
// redial through the node's Dial, so a restarted node reconnects
// transparently on the next call.
type clientPool struct {
	node *Node
	ch   chan *rpc.Client
	c    *Cluster
}

func newClientPool(c *Cluster, n *Node) *clientPool {
	return &clientPool{node: n, c: c, ch: make(chan *rpc.Client, c.cfg.clientsPerNode)}
}

// acquire returns a pooled client, dialing a fresh one when the pool has
// capacity.
func (p *clientPool) acquire(ctx context.Context) (*rpc.Client, error) {
	select {
	case cl := <-p.ch:
		return cl, nil
	default:
	}
	dial := func(ctx context.Context) (io.ReadWriter, error) { return p.node.Dial(ctx) }
	if p.c.cfg.dialWrap != nil {
		dial = p.c.cfg.dialWrap(p.node.Name(), dial)
	}
	conn, err := dial(ctx)
	if err != nil {
		return nil, err
	}
	return rpc.NewClient(conn, p.c.cfg.comp, rpc.WithRedial(func(ctx context.Context) (io.ReadWriter, error) {
		return dial(ctx)
	}))
}

func (p *clientPool) release(cl *rpc.Client) {
	select {
	case p.ch <- cl:
	default:
		cl.Close()
	}
}

// call runs one rpc against the node with a pooled client.
func (p *clientPool) call(ctx context.Context, method string, req []byte) ([]byte, error) {
	cl, err := p.acquire(ctx)
	if err != nil {
		return nil, err
	}
	resp, err := cl.Call(ctx, method, req)
	if err != nil {
		// A dead connection (node stop/crash) poisons the client; drop it
		// so the next call dials fresh.
		cl.Close()
		return nil, err
	}
	p.release(cl)
	return resp, nil
}

func (p *clientPool) close() {
	for {
		select {
		case cl := <-p.ch:
			cl.Close()
		default:
			return
		}
	}
}
