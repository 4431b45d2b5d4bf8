package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"

	"github.com/datacomp/datacomp/internal/kvstore"
	"github.com/datacomp/datacomp/internal/rpc"
	"github.com/datacomp/datacomp/internal/xxhash"
	"github.com/datacomp/datacomp/internal/zstd"
)

// RPC method names a node serves. Exported as constants so clients and
// servers can never drift on the string.
const (
	// MethodPut stores a versioned record, a tombstone for a delete. The
	// request is a kvstore batch body holding the one put key→record
	// (kvstore.AppendPutHead), so a replica's WAL can keep the coding it
	// arrived in (DESIGN.md §6): the link's, or a zstd coding against the
	// cluster dictionary (MethodInstall). The node applies it only if the
	// version exceeds the stored one, so replays and retries are
	// idempotent.
	MethodPut = "kv.put"
	// MethodGet fetches the record for a key: request is the raw key,
	// response is 0x00 (none) or 0x01 followed by the record. A reply of at
	// least rpc.MinSize is coded against the node's store dictionary
	// when the store has one (rpc.Server.RegisterAppendDict), and the
	// coordinator fetches that dictionary with MethodDict.
	MethodGet = "kv.get"
	// MethodDigest fetches only the record header for a key: request is the
	// raw key, response is 0x00 (none) or 0x01 followed by the 17 header
	// bytes (version | flags | payload checksum) of the stored record.
	MethodDigest = "kv.digest"
	// MethodDump streams every live record: uvarint klen | key |
	// uvarint reclen | record, repeated. Rebalancing reads it.
	MethodDump = "kv.dump"
	// MethodDict fetches the node's store dictionary: the request is empty,
	// the response the dictionary's bytes, empty when the store has none.
	MethodDict = "kv.dict"
	// MethodInstall gives the node the cluster dictionary its MethodPut
	// requests may then be coded against: the request is the dictionary's
	// zstd.DictID, 4 bytes little-endian, then its bytes, and the response
	// is empty. The node refuses bytes that do not hash to the ID, and
	// acks only once its store holds the dictionary durably
	// (kvstore.DB.AddWALDict), for its WAL to keep those codings.
	MethodInstall = "kv.install"
)

// Versioned record layout, built by the cluster and stored opaquely in the
// node's kvstore:
//
//	8B LE version | 1B flags | 8B LE xxhash(payload) | payload
//
// The version orders concurrent writers (last-write-wins) and makes
// replication idempotent; the checksum lets a reader detect a replica
// whose payload rotted beneath the store's own block checksums (or was
// corrupted before they were computed). Deletes are tombstone records
// (flag bit 0) so replicas can order a delete against a racing put.
const (
	recHeaderLen  = 8 + 1 + 8
	flagTombstone = 0x01
)

var errBadRecord = errors.New("cluster: malformed record")

// errStoredCorrupt fails a digest of a record whose payload no longer matches
// its checksum: the header alone would pass for a healthy replica.
var errStoredCorrupt = errors.New("cluster: stored record fails its checksum")

// appendRecord frames payload as a versioned record.
func appendRecord(dst []byte, version uint64, tombstone bool, payload []byte) []byte {
	var hdr [recHeaderLen]byte
	binary.LittleEndian.PutUint64(hdr[0:8], version)
	if tombstone {
		hdr[8] = flagTombstone
	}
	binary.LittleEndian.PutUint64(hdr[9:17], xxhash.Sum64(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// record is a parsed versioned record. payload aliases the input.
type record struct {
	version   uint64
	tombstone bool
	payload   []byte
}

func parseRecord(b []byte) (record, error) {
	if len(b) < recHeaderLen {
		return record{}, errBadRecord
	}
	return record{
		version:   binary.LittleEndian.Uint64(b[0:8]),
		tombstone: b[8]&flagTombstone != 0,
		payload:   b[recHeaderLen:],
	}, nil
}

// sumOK verifies the embedded payload checksum.
func (r record) sumOK(raw []byte) bool {
	return binary.LittleEndian.Uint64(raw[9:17]) == xxhash.Sum64(r.payload)
}

// validRecord parses raw and reports whether it is well-formed and its
// payload matches its checksum.
func validRecord(raw []byte) (record, bool) {
	rec, err := parseRecord(raw)
	return rec, err == nil && rec.sumOK(raw)
}

// NodeOption configures a Node.
type NodeOption func(*nodeConfig)

type nodeConfig struct {
	comp      rpc.Compression
	storeOpts []kvstore.Option
	persister kvstore.Persister
}

// WithNodeStoreOptions appends options to the node's kvstore.Open call. The
// store's WAL syncs every write by default (an acked replica write must
// survive that replica crashing, because the quorum already counted it);
// kvstore.WithWAL here overrides that.
func WithNodeStoreOptions(opts ...kvstore.Option) NodeOption {
	return func(c *nodeConfig) { c.storeOpts = append(c.storeOpts, opts...) }
}

// WithNodePersister pins the node's durability backend (default: a
// MemPersister that survives Stop/Crash/Restart in memory).
func WithNodePersister(p kvstore.Persister) NodeOption {
	return func(c *nodeConfig) { c.persister = p }
}

// Node is one in-process cluster member: a durable kvstore served over
// real rpc frames. Stop/Restart cycle the process; Crash models the
// machine dying (unsynced WAL bytes lost).
type Node struct {
	name string
	cfg  nodeConfig

	mu      sync.RWMutex
	db      *kvstore.DB
	server  *rpc.Server
	ctx     context.Context
	cancel  context.CancelFunc
	stopped bool
	wg      sync.WaitGroup

	// putMu serializes the version-compare-and-put in handlePut so a
	// concurrent older write can never clobber a newer record. It also
	// guards versions.
	putMu sync.Mutex

	// versions maps a key to the header (version | flags | checksum) of the
	// record the store holds for it, as last written by handlePut or read by
	// handleDigest since start(). While a key is present its entry equals
	// the stored record's header, so a put above the entry needs no
	// read-before-write and a digest needs no read at all. It is hot
	// metadata kept outside the compressed tier: without it every replica
	// put and two of three replica reads decode an SST block to look at
	// eight bytes. start() replaces it, because a crash can lose the WAL
	// tail and with it records the old table described. Entries are
	// pointers so that a put of a tracked key rewrites its header in place.
	versions map[string]*[recHeaderLen]byte

	// exhaustive says versions holds every key the store does: the store
	// opened empty, and since then no entry has left the table (an eviction,
	// a failed put, a corrupt read) and Store() has handed the DB to no one
	// who could write behind the table. While it holds, a key the table
	// lacks is a key the store lacks, so its put is blind and its digest
	// answers "none" without a read. Once false it stays false until
	// start() opens an empty store again. Guarded by putMu.
	exhaustive bool

	// lifeMu serializes Stop/Crash/Restart so two lifecycle transitions
	// can never interleave (e.g. concurrent Restarts double-opening the
	// store over one persister).
	lifeMu sync.Mutex
}

// maxTrackedVersions bounds Node.versions. A key outside the table costs one
// store read on its next put or digest, which is what each cost before the
// table existed, so the bound is a memory cap (a few MiB of short keys), not
// a tuning knob.
const maxTrackedVersions = 1 << 16

// ErrNodeDown is returned when dialing or serving on a stopped node.
var ErrNodeDown = errors.New("cluster: node down")

// newNode starts a node serving its links with comp. The store opens
// immediately (recovering whatever the persister holds, which for a fresh
// MemPersister is nothing).
func newNode(ctx context.Context, name string, comp rpc.Compression, opts ...NodeOption) (*Node, error) {
	cfg := nodeConfig{comp: comp}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.persister == nil {
		cfg.persister = kvstore.NewMemPersister()
	}
	n := &Node{name: name, cfg: cfg}
	if err := n.start(ctx); err != nil {
		return nil, err
	}
	return n, nil
}

// start opens the store (recovering from the persister) and builds a fresh
// rpc server. Callers hold no locks.
func (n *Node) start(ctx context.Context) error {
	storeOpts := append([]kvstore.Option{kvstore.WithWAL(kvstore.SyncAlways), kvstore.WithPersister(n.cfg.persister)}, n.cfg.storeOpts...)
	db, err := kvstore.Open(ctx, "", storeOpts...)
	if err != nil {
		return err
	}
	srv := rpc.NewServer(n.cfg.comp)
	srv.RegisterCodedDict(MethodPut, n.handlePut, n.walDict)
	srv.Register(MethodInstall, n.handleInstall)
	srv.RegisterAppendDict(MethodGet, n.handleGet, n.replyDict)
	srv.RegisterAppend(MethodDigest, n.handleDigest)
	srv.RegisterAppend(MethodDump, n.handleDump)
	srv.Register(MethodDict, n.handleDict)

	n.putMu.Lock()
	n.versions = make(map[string]*[recHeaderLen]byte)
	n.exhaustive = db.Seq() == 0
	n.putMu.Unlock()

	nctx, cancel := context.WithCancel(context.Background())
	n.mu.Lock()
	n.db = db
	n.server = srv
	n.ctx = nctx
	n.cancel = cancel
	n.stopped = false
	n.mu.Unlock()
	return nil
}

// Name reports the node's ring identity.
func (n *Node) Name() string { return n.name }

// Dial opens an in-process connection to the node's rpc server: a
// net.Pipe whose server end is served until the node stops. The returned
// end is what rpc.NewClient (or a faultinject wrapper) consumes.
func (n *Node) Dial(ctx context.Context) (io.ReadWriter, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.stopped {
		return nil, fmt.Errorf("dial %s: %w", n.name, ErrNodeDown)
	}
	cc, sc := net.Pipe()
	srv, nctx := n.server, n.ctx
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		_ = srv.ServeConn(nctx, sc)
		sc.Close()
		cc.Close()
	}()
	return cc, nil
}

// Stop gracefully halts the node: connections drop, and the store closes
// with a final WAL sync. The persisted state remains for Restart.
func (n *Node) Stop() error {
	n.lifeMu.Lock()
	defer n.lifeMu.Unlock()
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return nil
	}
	n.stopped = true
	n.cancel()
	db := n.db
	n.mu.Unlock()
	n.wg.Wait()
	return db.Close()
}

// Crash kills the node without any sync: connections drop and every WAL
// byte not already fsynced is lost, exactly like the machine dying.
func (n *Node) Crash() {
	n.lifeMu.Lock()
	defer n.lifeMu.Unlock()
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	n.cancel()
	n.mu.Unlock()
	n.wg.Wait()
	if mp, ok := n.cfg.persister.(*kvstore.MemPersister); ok {
		mp.Crash()
	}
	// The old DB is abandoned un-Closed, as a killed process would leave it.
}

// Restart brings a stopped or crashed node back: the store reopens from
// the persister — the manifest's tables, then the WAL tail.
func (n *Node) Restart(ctx context.Context) error {
	n.lifeMu.Lock()
	defer n.lifeMu.Unlock()
	n.mu.RLock()
	stopped := n.stopped
	n.mu.RUnlock()
	if !stopped {
		return fmt.Errorf("cluster: restart of running node %s", n.name)
	}
	return n.start(ctx)
}

// Running reports whether the node currently serves.
func (n *Node) Running() bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return !n.stopped
}

// Store exposes the node's live kvstore (nil when the node is down).
// Chaos tests use it to corrupt a replica in place; treat it as
// read-mostly in real harnesses. A writer must not store a checksum-valid
// record of a higher version than the key already has: handlePut would not
// know of it and could overwrite it without comparing. Any write here also
// leaves the version table describing the record it replaced, so the node
// keeps answering kv.digest with the old header until a kv.get finds the
// record corrupt, a put rewrites it, or the entry is evicted; a test that
// wants a digest owner to notice must drop the entry itself (forget). The
// call itself ends the table's claim to hold every stored key, for the
// rest of this store's life: from here on a key the table lacks is read
// from the store on its next put or digest.
func (n *Node) Store() *kvstore.DB {
	db, err := n.store()
	if err != nil {
		return nil
	}
	n.putMu.Lock()
	n.exhaustive = false
	n.putMu.Unlock()
	return db
}

// store returns the live DB or ErrNodeDown.
func (n *Node) store() (*kvstore.DB, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.stopped {
		return nil, ErrNodeDown
	}
	return n.db, nil
}

// handlePut applies a versioned record if it is newer than the stored one.
//
// Blind path: the version table holds the key and the record is above the
// entry, hence above anything stored, or the table is exhaustive and lacks
// the key, so the store holds nothing for it; either way the record is
// written without a read. Compared path, for everything else (a key the
// table does not hold once it is no longer exhaustive, and duplicates, stale
// writers, read-repair and rebalance re-puts at or below the entry): the
// stored record is read and only a checksum-valid one of an equal or higher
// version vetoes the write.
//
// The store commits req, a batch body, with the coding it arrived in: when
// the link's codec is the WAL's (lz4 on the default links), or the request
// came coded against the cluster dictionary, which the store holds
// (MethodInstall), the log keeps those bytes and no replica codes the
// record again. A request that came uncoded, or coded by another codec,
// the store codes itself.
func (n *Node) handlePut(ctx context.Context, req []byte, coded rpc.Coded) ([]byte, error) {
	key, rest, err := kvstore.ParsePutBody(req)
	if err != nil {
		return nil, err
	}
	rec, err := parseRecord(rest)
	if err != nil {
		return nil, err
	}
	db, err := n.store()
	if err != nil {
		return nil, err
	}
	n.putMu.Lock()
	defer n.putMu.Unlock()
	seen := n.versions[string(key)] // nil when untracked
	if seen == nil && n.exhaustive || seen != nil && rec.version > binary.LittleEndian.Uint64(seen[:8]) {
		cmPutBlind.Inc()
	} else {
		cmPutCompared.Inc()
		cur, ok, err := db.Get(ctx, key)
		if err != nil {
			return nil, err
		}
		// Only a checksum-valid stored record can veto the write; a
		// corrupt one must be replaceable by read-repair regardless of
		// the version its damaged header claims.
		if curRec, valid := validRecord(cur); ok && valid && curRec.version >= rec.version {
			n.track(key, seen, cur)
			return nil, nil // stale or duplicate: idempotent no-op
		}
	}
	if err := db.ApplyCoded(ctx, req, coded.Codec, coded.Data); err != nil {
		// The store may or may not hold the record now (a flush can fail
		// after the memtable took it): forget the key rather than guess.
		n.drop(key)
		return nil, err
	}
	n.track(key, seen, rest)
	return nil, nil
}

// track records rec's header as the one the store holds for key and returns
// the key's entry; entry is that entry, nil when the table does not hold the
// key. Callers hold putMu. A held entry is rewritten in place, so only a key
// entering the table allocates: its string, and its entry unless a full
// table makes room by dropping an arbitrary one, whose entry it takes over.
// The dropped key's next put or digest reads the store and re-enters, and
// the table is no longer exhaustive.
func (n *Node) track(key []byte, entry *[recHeaderLen]byte, rec []byte) *[recHeaderLen]byte {
	if entry == nil {
		if len(n.versions) >= maxTrackedVersions {
			for victim, e := range n.versions {
				delete(n.versions, victim)
				n.exhaustive = false
				entry = e
				break
			}
		} else {
			entry = new([recHeaderLen]byte)
		}
		n.versions[string(key)] = entry
	}
	*entry = [recHeaderLen]byte(rec)
	return entry
}

// drop removes key from the table, which is then no longer exhaustive: the
// store may hold a record for key that the table does not describe. Callers
// hold putMu.
func (n *Node) drop(key []byte) {
	delete(n.versions, string(key))
	n.exhaustive = false
}

// handleGet appends the stored record to dst (tombstones included — the
// caller needs their versions for repair ordering). A record that fails its
// checksum is returned as stored, for the caller to count and repair, and
// leaves the version table so no digest vouches for it meanwhile.
func (n *Node) handleGet(ctx context.Context, dst, req []byte) ([]byte, error) {
	if len(req) == 0 {
		return nil, errBadRecord
	}
	db, err := n.store()
	if err != nil {
		return nil, err
	}
	// The record is copied once, straight into the reply behind its 0x01.
	resp, ok, err := db.AppendGet(ctx, append(dst, 0x01), req)
	if err != nil {
		return nil, err
	}
	if !ok {
		return append(dst, 0x00), nil
	}
	if _, valid := validRecord(resp[len(dst)+1:]); !valid {
		n.putMu.Lock()
		n.drop(req)
		n.putMu.Unlock()
	}
	return resp, nil
}

// replyDict is the dictionary kv.get replies are coded against: the store's,
// at the store's level, or none.
func (n *Node) replyDict() rpc.Dict {
	db, err := n.store()
	if err != nil {
		return rpc.Dict{}
	}
	d := db.Dict()
	return rpc.Dict{Bytes: d.Bytes, ID: d.ID, Level: d.Level}
}

// walDict resolves the cluster dictionary a kv.put request is coded
// against: one the store holds for its WAL, or nil.
func (n *Node) walDict(id uint32) []byte {
	db, err := n.store()
	if err != nil {
		return nil
	}
	return db.WALDict(id)
}

// errInstallMismatch refuses a kv.install whose bytes do not hash to the ID
// it names.
var errInstallMismatch = errors.New("cluster: kv.install bytes do not hash to the dictionary ID")

// handleInstall makes the dictionary req carries durable in the store, for
// kv.put requests coded against it.
func (n *Node) handleInstall(ctx context.Context, req []byte) ([]byte, error) {
	if len(req) < 4 {
		return nil, errBadRecord
	}
	id, d := binary.LittleEndian.Uint32(req), req[4:]
	if zstd.DictID(d) != id {
		return nil, fmt.Errorf("%w: %08x names %08x", errInstallMismatch, zstd.DictID(d), id)
	}
	db, err := n.store()
	if err != nil {
		return nil, err
	}
	return nil, db.AddWALDict(d)
}

// handleDict returns the store dictionary, empty when the store has none.
func (n *Node) handleDict(ctx context.Context, req []byte) ([]byte, error) {
	db, err := n.store()
	if err != nil {
		return nil, err
	}
	return db.Dict().Bytes, nil
}

// handleDigest appends the header of the stored record to dst: from the
// version table when it holds the key, 0x00 with no read when the table is
// exhaustive and lacks it, else from the store, and then the key enters the
// table — which must happen under putMu, or a put landing between the read
// and the insert would leave the table behind the store.
func (n *Node) handleDigest(ctx context.Context, dst, req []byte) ([]byte, error) {
	if len(req) == 0 {
		return nil, errBadRecord
	}
	db, err := n.store()
	if err != nil {
		return nil, err
	}
	n.putMu.Lock()
	defer n.putMu.Unlock()
	hdr := n.versions[string(req)]
	if hdr == nil {
		if n.exhaustive {
			return append(dst, 0x00), nil
		}
		cur, ok, err := db.Get(ctx, req)
		if err != nil {
			return nil, err
		}
		if !ok {
			return append(dst, 0x00), nil
		}
		if _, valid := validRecord(cur); !valid {
			return nil, errStoredCorrupt
		}
		hdr = n.track(req, nil, cur)
	}
	return append(append(dst, 0x01), hdr[:]...), nil
}

// handleDump appends every stored record to dst, tombstones included.
func (n *Node) handleDump(ctx context.Context, dst, req []byte) ([]byte, error) {
	db, err := n.store()
	if err != nil {
		return nil, err
	}
	out := dst
	err = db.Scan(ctx, func(k, v []byte) bool {
		out = binary.AppendUvarint(out, uint64(len(k)))
		out = append(out, k...)
		out = binary.AppendUvarint(out, uint64(len(v)))
		out = append(out, v...)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// appendKeyRecord frames key and rec as a MethodPut request, growing dst at
// most once.
func appendKeyRecord(dst, key, rec []byte) []byte {
	dst = slices.Grow(dst, kvstore.PutBodyLen(len(key), len(rec)))
	return append(kvstore.AppendPutHead(dst, key, len(rec)), rec...)
}

// appendPutRequest frames a new record for MethodPut onto dst, growing it at
// most once: the bytes of appendKeyRecord(dst, key, appendRecord(nil,
// version, tombstone, payload)), with payload copied once.
func appendPutRequest(dst, key []byte, version uint64, tombstone bool, payload []byte) []byte {
	reclen := recHeaderLen + len(payload)
	if n := len(dst) + kvstore.PutBodyLen(len(key), reclen); n > cap(dst) {
		dst = append(make([]byte, 0, n), dst...)
	}
	return appendRecord(kvstore.AppendPutHead(dst, key, reclen), version, tombstone, payload)
}

// walkDump iterates a MethodDump response.
func walkDump(b []byte, fn func(key, rec []byte) error) error {
	for len(b) > 0 {
		klen, n := binary.Uvarint(b)
		if n <= 0 || klen == 0 || klen > uint64(len(b)-n) {
			return errBadRecord
		}
		b = b[n:]
		key := b[:klen]
		b = b[klen:]
		rlen, n := binary.Uvarint(b)
		if n <= 0 || rlen > uint64(len(b)-n) {
			return errBadRecord
		}
		b = b[n:]
		if err := fn(key, b[:rlen]); err != nil {
			return err
		}
		b = b[rlen:]
	}
	return nil
}
