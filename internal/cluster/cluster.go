package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/datacomp/datacomp/internal/kvstore"
	"github.com/datacomp/datacomp/internal/rpc"
	"github.com/datacomp/datacomp/internal/telemetry"
	"github.com/datacomp/datacomp/internal/zstd"
)

// Package-level telemetry on the shared registry, registered at package
// initialisation: the one count of cluster and node events.
var (
	cmPuts              = telemetry.Default.Counter("cluster_puts_total", "cluster put operations")
	cmGets              = telemetry.Default.Counter("cluster_gets_total", "cluster get operations")
	cmDeletes           = telemetry.Default.Counter("cluster_deletes_total", "cluster delete operations")
	cmRepairs           = telemetry.Default.Counter("cluster_read_repairs_total", "replica records rewritten by read-repair")
	cmCorrupt           = telemetry.Default.Counter("cluster_corrupt_replicas_total", "replica reads failing the record checksum")
	cmStale             = telemetry.Default.Counter("cluster_stale_replicas_total", "replica reads returning an older version")
	cmMissing           = telemetry.Default.Counter("cluster_missing_replicas_total", "replica reads finding no record where another owner held one")
	cmGetDigest         = telemetry.Default.Counter("cluster_get_digest_total", "replica reads answered by kv.digest (header only)")
	cmGetFull           = telemetry.Default.Counter("cluster_get_full_total", "replica reads answered by kv.get (whole record)")
	cmGetEscalated      = telemetry.Default.Counter("cluster_get_escalated_total", "kv.get calls beyond the first owner's: a digest was newer, disagreed or failed, or the first owner had no valid record")
	cmQuorumFailures    = telemetry.Default.Counter("cluster_quorum_failures_total", "operations failing to reach quorum")
	cmRebalancedRecords = telemetry.Default.Counter("cluster_rebalanced_records_total", "records copied during rebalancing")
	cmReplicaErrors     = telemetry.Default.Counter("cluster_replica_errors_total", "per-replica call failures")
	cmPutBlind          = telemetry.Default.Counter("cluster_put_blind_total", "replica puts written without reading the stored record")
	cmPutCompared       = telemetry.Default.Counter("cluster_put_compared_total", "replica puts that read and compared the stored record first")
	cmDictFetches       = telemetry.Default.Counter("cluster_dict_fetches_total", "kv.dict calls fetching a node's store dictionary for its kv.get replies")
	cmDictInstalls      = telemetry.Default.Counter("cluster_dict_installs_total", "kv.install calls giving a node the cluster dictionary puts are coded against")
	cmReplyHits         = telemetry.Default.Counter("cluster_reply_cache_hits_total", "kv.get replies sent as a node kept them coded: no store read, no coding")
	cmReplyMisses       = telemetry.Default.Counter("cluster_reply_cache_misses_total", "kv.get calls a node's reply cache held no current coding for")
	cmReplyBytes        = telemetry.Default.Gauge("cluster_reply_cache_bytes", "bytes the nodes' reply caches retain")
)

// ErrNoQuorum is returned when fewer replicas than the required quorum
// acknowledged an operation.
var ErrNoQuorum = errors.New("cluster: quorum not reached")

// ErrAllReplicasCorrupt is returned by Get when no owner holds a
// checksum-valid record for the key and at least one holds a corrupt one:
// the key was written and what is left of it cannot be trusted.
var ErrAllReplicasCorrupt = errors.New("cluster: every stored replica is corrupt")

// ErrNoNodes is returned for operations on an empty cluster.
var ErrNoNodes = errors.New("cluster: no nodes")

// replication is the replica count N. Write and read quorums are both
// majorities of N, so a read always intersects the last acknowledged write.
const replication = 3

// defaultCompression is the node links' transport compression: lz4-1 with
// checksums, cheap enough for the serving path and verified end to end.
var defaultCompression = rpc.Compression{Codec: "lz4", Level: 1, Checksum: true}

// Option configures a Cluster.
type Option func(*clusterConfig)

type clusterConfig struct {
	clientsPerNode int
	comp           rpc.Compression
	nodeOpts       []NodeOption
	dialWrap       func(string, func(context.Context) (io.ReadWriter, error)) func(context.Context) (io.ReadWriter, error)
}

// WithClientsPerNode sets how many idle rpc clients are kept per node
// (default 2). An operation holds one client per owner while its calls are
// in flight; callers beyond the pool size dial a connection for the call
// and drop it afterwards.
func WithClientsPerNode(n int) Option { return func(c *clusterConfig) { c.clientsPerNode = n } }

// WithCompression sets the transport compression of every node link, at
// both ends: the cluster's clients and every node AddNode builds (default
// lz4-1 with checksums).
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

	// dicts are the store dictionaries node replies are coded against.
	dicts dictCache

	// putDict is the cluster dictionary puts are coded against, trained
	// from the first puts.
	putDict putDict

	// coders are idle Coders for cfg.comp, which code each write's request
	// once for all of its owners' links: as many as clientsPerNode, the
	// writes that run on pooled clients alone. A channel rather than a
	// sync.Pool, which a GC would empty, and each refill would build an
	// engine.
	coders chan *rpc.Coder

	// ops are idle fan-out states (op), as many as clientsPerNode, the
	// operations that run on pooled clients alone: a channel for the
	// same reason as coders, since a GC would empty a sync.Pool and each
	// refill would regrow the replica slots and their reply buffers.
	ops chan *op
}

// New builds an empty cluster; add members with AddNode.
func New(opts ...Option) *Cluster {
	cfg := clusterConfig{clientsPerNode: 2, comp: defaultCompression}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.clientsPerNode < 1 {
		cfg.clientsPerNode = 1
	}
	return &Cluster{
		cfg:     cfg,
		ring:    NewRing(0),
		nodes:   make(map[string]*Node),
		clients: make(map[string]*clientPool),
		coders:  make(chan *rpc.Coder, cfg.clientsPerNode),
		ops:     make(chan *op, cfg.clientsPerNode),
	}
}

// quorum is the majority of the effective replica set.
func (c *Cluster) quorum(replicas int) int { return replicas/2 + 1 }

// AddNode creates a node with the cluster's link compression and node
// defaults, joins it to the ring, and rebalances existing keys onto it.
func (c *Cluster) AddNode(ctx context.Context, name string) (*Node, error) {
	n, err := newNode(ctx, name, c.cfg.comp, c.cfg.nodeOpts...)
	if err != nil {
		return nil, err
	}
	if err := c.join(ctx, n); err != nil {
		return nil, err
	}
	return n, nil
}

// join adds a node to the ring, gives it the cluster dictionary if there is
// one, and copies onto it every record it now owns.
func (c *Cluster) join(ctx context.Context, n *Node) error {
	c.mu.Lock()
	if _, dup := c.nodes[n.Name()]; dup {
		c.mu.Unlock()
		return fmt.Errorf("cluster: duplicate node %q", n.Name())
	}
	pool := newClientPool(c, n)
	c.nodes[n.Name()] = n
	c.clients[n.Name()] = pool
	c.ring.Add(n.Name())
	c.mu.Unlock()
	if d := c.putDict.cur.Load(); d != nil {
		_ = pool.install(ctx, d) // failing, the node's first put installs it
	}
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

// Close stops every node and closes the idle clients and coders.
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
		n.replies.release()
		delete(c.nodes, name)
	}
	for {
		select {
		case cd := <-c.coders:
			cd.Close()
		default:
			return first
		}
	}
}

// replica is one owner of a key for the length of an operation: its client
// pool and the slot its latest reply lands in. resp's backing array belongs
// to the pooled op and is reused by the next operation.
type replica struct {
	pool *clientPool
	resp []byte
	err  error
	// Set by Get: full says the latest call was a kv.get (a failed call is
	// not retried after one), state what its reply amounted to.
	full  bool
	state replicaState
}

type replicaState uint8

const (
	repFailed  replicaState = iota // call failed
	repMissing                     // owner holds no record
	repDigest                      // header only
	repFull                        // whole record, checksum-valid
	repLost                        // whole record, checksum-invalid
)

// version reads the record version out of a digest or kv.get reply.
func (r *replica) version() uint64 { return binary.LittleEndian.Uint64(r.resp[1:9]) }

// header is the 17 record header bytes of a digest or kv.get reply.
func (r *replica) header() []byte { return r.resp[1 : 1+recHeaderLen] }

// op is one operation's replica set and fan-out state. It is recycled
// through its cluster's ops, so an operation allocates none of its own
// bookkeeping; nothing may keep an op, a slice of its reps, or a reply or
// request in its buffers past release.
type op struct {
	free  chan *op  // the cluster's ops, which release returns it to
	reps  []replica // each slot's resp buffer survives release for the next op
	names []string  // reps' node names, as the ring returned them
	calls []func()  // calls[i] runs call(i): bound once per slot, so fanOut starts each goroutine without a closure
	wg    sync.WaitGroup
	buf   []byte // the request a write or read-repair frames; no call holds it once the call returns

	// What fanOut's goroutines read, set before they start: a read's method
	// and request, or a write's body, coded once for every owner (coded,
	// which body then points at).
	ctx    context.Context
	method string
	req    []byte
	body   *rpc.Body
	coded  rpc.Body
}

// maxPooledBuffer bounds each request and reply buffer a pooled op keeps.
const maxPooledBuffer = 64 << 10

// owners resolves key's replica set in ring order. The caller releases it.
func (c *Cluster) owners(key []byte) (*op, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.ring.Len() == 0 {
		return nil, ErrNoNodes
	}
	var o *op
	select {
	case o = <-c.ops:
	default:
		o = &op{free: c.ops}
	}
	o.names = c.ring.AppendOwners(o.names[:0], key, replication)
	o.reps = slices.Grow(o.reps, len(o.names))[:len(o.names)]
	o.bind()
	for i, name := range o.names {
		r := &o.reps[i]
		*r = replica{pool: c.clients[name], resp: r.resp[:0]}
	}
	return o, nil
}

// release returns o to its cluster's ops holding no error, context or
// request, and every slot's reply buffer emptied for the next operation;
// when enough are kept, o is dropped.
func (o *op) release() {
	for i := range o.reps {
		r := &o.reps[i]
		resp := r.resp[:0]
		if cap(resp) > maxPooledBuffer {
			resp = nil
		}
		*r = replica{resp: resp}
	}
	o.reps = o.reps[:0]
	o.ctx, o.method, o.req, o.body, o.coded = nil, "", nil, nil, rpc.Body{}
	if cap(o.buf) > maxPooledBuffer {
		o.buf = nil
	}
	select {
	case o.free <- o:
	default:
	}
}

// fanOut calls every owner at once — reps[0] on the caller's goroutine, the
// others on their own — and returns when all of them have answered or
// failed, so an operation costs its slowest call, not the sum. A read sends
// req, method first to reps[0] and rest to the others; a write sends body
// (nil for a read) to all. Each reply lands in its slot's buffer.
func (o *op) fanOut(ctx context.Context, first, rest string, req []byte, body *rpc.Body) {
	o.ctx, o.method, o.req, o.body = ctx, rest, req, body
	for i := 1; i < len(o.reps); i++ {
		o.wg.Add(1)
		go o.calls[i]()
	}
	o.reps[0].send(ctx, first, req, body)
	o.wg.Wait()
}

// bind gives every replica slot its call.
func (o *op) bind() {
	for i := len(o.calls); i < len(o.reps); i++ {
		o.calls = append(o.calls, func() { o.call(i) })
	}
}

// call is one of fanOut's goroutines: it sends o's request to reps[i].
func (o *op) call(i int) {
	defer o.wg.Done()
	o.reps[i].send(o.ctx, o.method, o.req, o.body)
}

// send calls r's owner with the reply landing in r's buffer.
func (r *replica) send(ctx context.Context, method string, req []byte, body *rpc.Body) {
	r.resp, r.err = r.pool.call(ctx, r.resp[:0], method, req, body)
}

// code codes a MethodPut request once for all of its owners' links, against
// d when it is a dictionary. The Body holds the returned Coder's scratch, so
// the caller hands the Coder back (release) only once no call holds the
// Body.
func (c *Cluster) code(ctx context.Context, req []byte, d rpc.Dict) (*rpc.Coder, rpc.Body, error) {
	var cd *rpc.Coder
	select {
	case cd = <-c.coders:
	default:
		var err error
		if cd, err = rpc.NewCoder(c.cfg.comp); err != nil {
			return nil, rpc.Body{}, err
		}
	}
	b, err := cd.CodeDict(ctx, MethodPut, req, d)
	if err != nil {
		c.release(cd)
		return nil, rpc.Body{}, err
	}
	return cd, b, nil
}

// release keeps cd for the next write, or closes it when enough are kept.
func (c *Cluster) release(cd *rpc.Coder) {
	select {
	case c.coders <- cd:
	default:
		cd.Close()
	}
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
	return c.writeQuorum(ctx, key, false, value)
}

// Delete replicates a versioned tombstone for key, as a put.
func (c *Cluster) Delete(ctx context.Context, key []byte) error {
	if len(key) == 0 {
		return kvstore.ErrEmptyKey
	}
	cmDeletes.Inc()
	return c.writeQuorum(ctx, key, true, nil)
}

// writeQuorum puts a new version of key, value or a tombstone, to key's
// owners, the request coded once for all of them: against the cluster
// dictionary once every owner holds it, and until then as the links code.
func (c *Cluster) writeQuorum(ctx context.Context, key []byte, tombstone bool, value []byte) error {
	if err := c.putDict.wait(ctx); err != nil {
		return err
	}
	version := c.NextVersion()
	o, err := c.owners(key)
	if err != nil {
		return err
	}
	defer o.release()
	o.buf = appendPutRequest(o.buf[:0], key, version, tombstone, value)
	cd, body, err := c.code(ctx, o.buf, c.putDict.forOwners(ctx, o.reps))
	if err != nil {
		return err
	}
	defer c.release(cd)
	o.coded = body
	o.fanOut(ctx, MethodPut, MethodPut, nil, &o.coded)
	c.putDict.sample(ctx, c, o.buf)
	reps := o.reps
	acks := 0
	var lastErr error
	for i := range reps {
		if reps[i].err != nil {
			cmReplicaErrors.Inc()
			lastErr = reps[i].err
			continue
		}
		acks++
	}
	if acks < c.quorum(len(reps)) {
		cmQuorumFailures.Inc()
		if lastErr != nil {
			return fmt.Errorf("%w: %d/%d acks: %w", ErrNoQuorum, acks, len(reps), lastErr)
		}
		return fmt.Errorf("%w: %d/%d acks", ErrNoQuorum, acks, len(reps))
	}
	return nil
}

// Get reads key from its replica set. Every owner is consulted at once: the
// first in ring order for the record, the others for its 17-byte header
// only (kv.digest), and the read fails unless a quorum of them answers. The
// record is accepted when its payload checksum holds and no header carries a
// higher version. Otherwise — a newer or disagreeing header, a digest call
// that failed, or a first owner that is down or holds no valid record —
// the owner in question is asked for its whole record too, until the
// highest-version checksum-valid record is in hand; that one wins, and every
// owner that answered with something older, nothing, or a corrupt record is
// repaired with it before Get returns.
func (c *Cluster) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	if len(key) == 0 {
		return nil, false, kvstore.ErrEmptyKey
	}
	cmGets.Inc()
	o, err := c.owners(key)
	if err != nil {
		return nil, false, err
	}
	defer o.release()
	o.fanOut(ctx, MethodGet, MethodDigest, key, nil)
	reps := o.reps
	for i := range reps {
		c.classify(&reps[i], i == 0)
	}

	// Escalate until no owner is known to hold something newer than, or
	// different from, the best whole record: each pass reads one owner in
	// full, and no owner twice.
	var best *replica
	for {
		best = nil
		for i := range reps {
			if r := &reps[i]; r.state == repFull && (best == nil || r.version() > best.version()) {
				best = r
			}
		}
		var next *replica
		for i := range reps {
			r := &reps[i]
			switch {
			case r.full: // read in full already, or failed to be: not asked again
			case r.state == repFailed:
				next = r
			case r.state == repDigest && (best == nil || r.version() > best.version() ||
				r.version() == best.version() && !bytes.Equal(r.header(), best.header())):
				if next == nil || next.state == repDigest && r.version() > next.version() {
					next = r
				}
			}
		}
		if next == nil {
			break
		}
		cmGetEscalated.Inc()
		next.send(ctx, MethodGet, key, nil)
		c.classify(next, true)
	}

	responded, lost := 0, 0
	var callErrs []error
	for i := range reps {
		switch r := &reps[i]; r.state {
		case repFailed:
			callErrs = append(callErrs, fmt.Errorf("%s: %w", r.pool.node.Name(), r.err))
			continue
		case repLost:
			lost++
		}
		responded++
	}
	if responded < c.quorum(len(reps)) {
		cmQuorumFailures.Inc()
		return nil, false, fmt.Errorf("get: %w: %d/%d replicas: %w", ErrNoQuorum, responded, len(reps), errors.Join(callErrs...))
	}
	if best == nil {
		if lost > 0 {
			return nil, false, fmt.Errorf("get: %w: %d of %d answering replicas", ErrAllReplicasCorrupt, lost, responded)
		}
		return nil, false, nil
	}

	// Read-repair: push the winner to every responsive replica that
	// disagrees (stale version, missing, or corrupt). The kv.put is framed
	// once, in the op's request buffer, and coded once; its empty reply
	// needs no buffer.
	var cd *rpc.Coder
	for i := range reps {
		r := &reps[i]
		switch {
		case r == best || r.state == repFailed:
			continue
		case r.state == repLost: // counted when it was read
		case r.state == repMissing:
			cmMissing.Inc()
		case r.version() < best.version():
			cmStale.Inc()
		default:
			continue
		}
		if cd == nil {
			o.buf = appendKeyRecord(o.buf[:0], key, best.resp[1:])
			if cd, o.coded, err = c.code(ctx, o.buf, rpc.Dict{}); err != nil {
				break // the read stands; only the repair is lost
			}
		}
		if _, err := r.pool.call(ctx, nil, "", nil, &o.coded); err == nil {
			cmRepairs.Inc()
		}
	}
	if cd != nil {
		c.release(cd)
	}

	if best.resp[1+8]&flagTombstone != 0 {
		return nil, false, nil
	}
	// The reply is the op's; the caller gets the value's one copy.
	v := best.resp[1+recHeaderLen:]
	value := make([]byte, len(v))
	copy(value, v)
	return value, true, nil
}

// classify sets r.state from the reply r holds; full says it came from a
// kv.get rather than a kv.digest.
func (c *Cluster) classify(r *replica, full bool) {
	r.full = full
	switch {
	case r.err != nil:
		cmReplicaErrors.Inc()
		r.state = repFailed
		return
	case len(r.resp) < 1 || r.resp[0] != 0x01:
		r.state = repMissing
	case len(r.resp) < 1+recHeaderLen:
		r.state = repLost
	case !r.full:
		r.state = repDigest
	default:
		r.state = repFull
		if _, valid := validRecord(r.resp[1:]); !valid {
			r.state = repLost
		}
	}
	if r.full {
		cmGetFull.Inc()
	} else {
		cmGetDigest.Inc()
	}
	if r.state == repLost {
		cmCorrupt.Inc()
	}
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

// drainFrom dumps one node and re-puts each record to its owners, framing
// every kv.put in one request buffer and coding it once.
func (c *Cluster) drainFrom(ctx context.Context, src *clientPool) error {
	dumpResp, err := src.call(ctx, nil, MethodDump, nil, nil)
	if err != nil {
		return fmt.Errorf("rebalance dump from %s: %w", src.node.Name(), err)
	}
	var req []byte
	return walkDump(dumpResp, func(key, rec []byte) error {
		o, err := c.owners(key)
		if err != nil {
			return err
		}
		defer o.release()
		req = appendKeyRecord(req[:0], key, rec)
		cd, body, err := c.code(ctx, req, rpc.Dict{})
		if err != nil {
			return err
		}
		defer c.release(cd)
		for _, r := range o.reps {
			if r.pool == src {
				continue
			}
			if _, err := r.pool.call(ctx, nil, "", nil, &body); err != nil {
				cmReplicaErrors.Inc()
				continue // best-effort: quorum reads tolerate a lagging copy
			}
			cmRebalancedRecords.Inc()
		}
		return nil
	})
}

// clientPool is a fixed-size pool of rpc clients to one node. A client
// whose call failed is closed, not pooled, and the pool dials the node
// afresh when it runs dry: after a node restarts, each client left on a
// dead connection fails one call and is replaced.
type clientPool struct {
	node *Node
	ch   chan *rpc.Client
	c    *Cluster

	// installed is the ID of the cluster dictionary the node acked
	// (kv.install), 0 for none; installMu serializes the installs.
	installed atomic.Uint32
	installMu sync.Mutex
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
	dial := p.node.Dial
	if p.c.cfg.dialWrap != nil {
		dial = p.c.cfg.dialWrap(p.node.Name(), dial)
	}
	conn, err := dial(ctx)
	if err != nil {
		return nil, err
	}
	return rpc.NewClient(conn, p.c.cfg.comp, rpc.WithDictResolver(p.c.dicts.lookup))
}

func (p *clientPool) release(cl *rpc.Client) {
	select {
	case p.ch <- cl:
	default:
		cl.Close()
	}
}

// call runs one rpc against the node with a pooled client, appending the
// reply to dst: body when it is not nil, else method with req. On error it
// returns dst unchanged. A dictionary one end lacks is not an error of the
// node's, and the call — a read, or a versioned put, so idempotent — is
// sent once more: after the cluster fetched the store dictionary a reply
// was coded against, or installed the cluster dictionary on a node that
// refused a request coded against it.
func (p *clientPool) call(ctx context.Context, dst []byte, method string, req []byte, body *rpc.Body) ([]byte, error) {
	resp, err := p.callOnce(ctx, dst, method, req, body)
	if err != nil {
		if u, ok := unknownDict(err); ok {
			var ferr error
			if u.Request {
				p.installed.Store(0)
				ferr = p.install(ctx, p.c.putDict.cur.Load())
			} else {
				ferr = p.fetchDict(ctx, u.ID)
			}
			if ferr == nil {
				resp, err = p.callOnce(ctx, dst, method, req, body)
			}
		}
	}
	return resp, err
}

// unknownDict returns the rpc.UnknownDictError err holds. It is called on
// failed calls only: its target escapes.
func unknownDict(err error) (*rpc.UnknownDictError, bool) {
	var u *rpc.UnknownDictError
	return u, errors.As(err, &u)
}

// callOnce is call without the dictionary fetch.
func (p *clientPool) callOnce(ctx context.Context, dst []byte, method string, req []byte, body *rpc.Body) ([]byte, error) {
	cl, err := p.acquire(ctx)
	if err != nil {
		return dst, err
	}
	var resp []byte
	if body != nil {
		resp, err = cl.AppendCallBody(ctx, dst, body)
	} else {
		resp, err = cl.AppendCall(ctx, dst, method, req)
	}
	if err != nil {
		// A dead or desynced connection (node stop or crash, a corrupt
		// frame) poisons the client; drop it so a later call dials fresh.
		// An unknown dictionary leaves the connection as it was.
		if _, ok := unknownDict(err); ok {
			p.release(cl)
		} else {
			cl.Close()
		}
		return dst, err
	}
	p.release(cl)
	return resp, nil
}

// errDictMismatch refuses a kv.dict reply that is not the dictionary asked
// for.
var errDictMismatch = errors.New("cluster: kv.dict reply does not hash to the dictionary ID")

// fetchDict asks the node for its store dictionary and keeps it when it is
// the one with id.
func (p *clientPool) fetchDict(ctx context.Context, id uint32) error {
	cmDictFetches.Inc()
	d, err := p.callOnce(ctx, nil, MethodDict, nil, nil)
	if err != nil {
		return err
	}
	if zstd.DictID(d) != id {
		return fmt.Errorf("%w: %s sent %08x for %08x", errDictMismatch, p.node.Name(), zstd.DictID(d), id)
	}
	p.c.dicts.add(id, d)
	return nil
}

// maxDicts bounds the dictionary cache: one dictionary per node is what a
// cluster uses, so the bound only stops a churning membership from growing
// it without end.
const maxDicts = 64

// dictCache is the cluster's one cache of node store dictionaries by
// zstd.DictID, shared by every node's clients as their rpc resolver. A
// restarted node keeps its dictionary and so its entry; past maxDicts the
// oldest entry goes. Safe for concurrent use.
type dictCache struct {
	mu    sync.RWMutex
	byID  map[uint32][]byte
	order []uint32 // insertion order, oldest first
}

// lookup returns the dictionary with id, or nil.
func (d *dictCache) lookup(id uint32) []byte {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.byID[id]
}

// add keeps b as the dictionary with id.
func (d *dictCache) add(id uint32, b []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.byID[id]; ok {
		return
	}
	if d.byID == nil {
		d.byID = make(map[uint32][]byte)
	}
	if len(d.order) >= maxDicts {
		delete(d.byID, d.order[0])
		d.order = d.order[1:]
	}
	d.byID[id] = b
	d.order = append(d.order, id)
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
