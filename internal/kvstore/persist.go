package kvstore

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Persister is the DB's durability backend: an append-only write-ahead log
// of opaque framed records plus a flat namespace of named blobs (one per
// table, one manifest). The DB owns the formats and the commit order; the
// persister owns bytes, boundaries, and fsync. Implementations must make
// ReplayWAL discard the torn or corrupt tail it stops at, so subsequent
// appends extend a clean log, and must not be called back from inside
// ReplayWAL's fn.
type Persister interface {
	// AppendWAL appends one framed record. Durability follows Sync, not
	// AppendWAL.
	AppendWAL(rec []byte) error
	// Sync makes every appended record durable.
	Sync() error
	// ReplayWAL invokes fn for each complete framed record in append
	// order. A torn or unparsable tail ends the walk silently and is
	// discarded. fn returning ErrStopReplay discards that record and the
	// remainder of the log; any other fn error aborts the replay.
	ReplayWAL(fn func(rec []byte) error) error
	// ResetWAL durably empties the log.
	ResetWAL() error
	// PutBlob atomically and durably creates or replaces the blob: after a
	// crash the old content or the new survives, never a mix. The persister
	// may keep data itself rather than a copy; the caller keeps reading it
	// and does not write to it while the persister may hold it — until a
	// DeleteBlobs naming the blob returns nil. The DB then takes the memory
	// back and writes a later table into it.
	PutBlob(name string, data []byte) error
	// GetBlob returns the blob's content, which the caller must not modify
	// and must not keep past a successful DeleteBlobs of the blob: the DB
	// writes later tables into the memory of the tables it deleted, which
	// for a persister that returns what it holds is this memory. A missing
	// blob is an error matching fs.ErrNotExist.
	GetBlob(name string) ([]byte, error)
	// DeleteBlobs durably removes the blobs — one directory fsync for the
	// lot, not one each; a missing one is not an error. Once it returns nil
	// the persister holds none of their memory.
	DeleteBlobs(names ...string) error
	// ListBlobs names every blob.
	ListBlobs() ([]string, error)
	// Close releases resources. The persister may be reopened or reused
	// afterwards by a recovering DB where the implementation allows it.
	Close() error
}

// ErrStopReplay is returned by a ReplayWAL callback to declare the current
// record undecodable: replay stops, and the record plus everything after
// it is discarded as the crash tail.
var ErrStopReplay = errors.New("kvstore: stop WAL replay")

// walkWAL walks the framed records of log, invoking fn per record. It
// returns the byte length of the prefix to keep: the log up to (not
// including) the first torn record, unparsable header, or record on which
// fn returned ErrStopReplay. Other fn errors abort the walk.
func walkWAL(log []byte, fn func(rec []byte) error) (keep int, err error) {
	pos := 0
	for {
		n, err := walRecordBounds(log[pos:])
		if err != nil {
			// io.EOF: clean end. Torn or corrupt: the crash tail starts
			// here; everything before it is intact.
			return pos, nil
		}
		if ferr := fn(log[pos : pos+n]); ferr != nil {
			if errors.Is(ferr, ErrStopReplay) {
				return pos, nil
			}
			return pos, ferr
		}
		pos += n
	}
}

// MemPersister is the diskless Persister: the WAL is a run of byte
// chunks, blobs a map. It distinguishes synced from merely appended bytes
// so tests (and the cluster's chaos harness) can model a machine crash —
// Crash drops everything not yet fsynced — without touching a filesystem.
type MemPersister struct {
	mu sync.Mutex
	// wal is the log, in chunks of walChunk bytes or one appended record,
	// whichever is larger; a record lies whole in one chunk. Chunks after
	// cur are empty and kept: a reset log refills the chunks it had, so it
	// allocates only past the longest log it ever held, a chunk at a time,
	// and copies nothing.
	wal    [][]byte
	cur    int // the chunk appends go to
	size   int // bytes in the log
	synced int
	blobs  map[string][]byte
}

// walChunk is the size of a MemPersister log chunk.
const walChunk = 64 << 10

// NewMemPersister returns an empty in-memory persister.
func NewMemPersister() *MemPersister { return &MemPersister{blobs: map[string][]byte{}} }

// AppendWAL implements Persister.
func (p *MemPersister) AppendWAL(rec []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cur == len(p.wal) || len(p.wal[p.cur])+len(rec) > cap(p.wal[p.cur]) {
		if p.cur < len(p.wal) && len(p.wal[p.cur]) > 0 {
			p.cur++
		}
		if p.cur == len(p.wal) {
			p.wal = append(p.wal, nil)
		}
		if cap(p.wal[p.cur]) < len(rec) {
			p.wal[p.cur] = make([]byte, 0, max(walChunk, len(rec)))
		}
	}
	p.wal[p.cur] = append(p.wal[p.cur], rec...)
	p.size += len(rec)
	return nil
}

// Sync implements Persister: appended bytes become crash-durable.
func (p *MemPersister) Sync() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.synced = p.size
	return nil
}

// ReplayWAL implements Persister. Records never straddle chunks, so each
// chunk is walked on its own; the first that ends in a torn or stopped
// record ends the log.
func (p *MemPersister) ReplayWAL(fn func(rec []byte) error) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	pos := 0
	for _, c := range p.wal {
		keep, err := walkWAL(c, fn)
		if err != nil {
			return err
		}
		if keep < len(c) {
			p.truncateLocked(pos + keep)
			return nil
		}
		pos += len(c)
	}
	return nil
}

// ResetWAL implements Persister.
func (p *MemPersister) ResetWAL() error {
	p.TruncateWAL(0)
	return nil
}

// PutBlob implements Persister; the map keeps data itself, no copy.
func (p *MemPersister) PutBlob(name string, data []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.blobs[name] = data
	return nil
}

// GetBlob implements Persister.
func (p *MemPersister) GetBlob(name string) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	data, ok := p.blobs[name]
	if !ok {
		return nil, fmt.Errorf("kvstore: blob %s: %w", name, fs.ErrNotExist)
	}
	return data, nil
}

// DeleteBlobs implements Persister.
func (p *MemPersister) DeleteBlobs(names ...string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, name := range names {
		delete(p.blobs, name)
	}
	return nil
}

// ListBlobs implements Persister.
func (p *MemPersister) ListBlobs() ([]string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	names := make([]string, 0, len(p.blobs))
	for name := range p.blobs {
		names = append(names, name)
	}
	return names, nil
}

// Close implements Persister; a MemPersister stays reusable after Close,
// which is what lets a "crashed" node reopen its state.
func (p *MemPersister) Close() error { return nil }

// Crash models the machine dying: every WAL byte not covered by a Sync is
// lost. Blobs (always written atomically and durably) survive.
func (p *MemPersister) Crash() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.truncateLocked(p.synced)
}

// TruncateWAL cuts the log to n bytes — at an arbitrary offset, so tests
// can tear the final record mid-frame.
func (p *MemPersister) TruncateWAL(n int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.truncateLocked(int(max(n, 0)))
}

// truncateLocked cuts the log to n bytes, keeping every chunk's memory.
func (p *MemPersister) truncateLocked(n int) {
	if n < p.size {
		p.size, p.cur = n, 0
		for i, c := range p.wal {
			k := min(len(c), n)
			p.wal[i] = c[:k]
			n -= k
			if k > 0 {
				p.cur = i
			}
		}
	}
	p.synced = min(p.synced, p.size)
}

// WALBytes reports the current WAL length, so tests can enumerate every
// crash offset.
func (p *MemPersister) WALBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int64(p.size)
}

// Directory layout of DirPersister.
const (
	walFileName = "wal.log"
	tmpSuffix   = ".tmp"
)

// DirPersister stores the WAL and each blob as a file in one directory:
//
//	<dir>/wal.log   append-only framed records
//	<dir>/<blob>    written as <blob>.tmp, fsynced, renamed into place
//
// A create, rename or remove is durable only once the directory itself is
// fsynced, so every one of them is followed by that fsync.
type DirPersister struct {
	dir string
	mu  sync.Mutex
	wal *os.File
}

// NewDirPersister opens (creating if needed) a directory-backed persister
// and removes the temp files a crash mid-PutBlob left behind.
func NewDirPersister(dir string) (*DirPersister, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("kvstore: persister dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("kvstore: persister dir: %w", err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), tmpSuffix) {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return nil, fmt.Errorf("kvstore: persister dir: %w", err)
			}
		}
	}
	wal, err := os.OpenFile(filepath.Join(dir, walFileName), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kvstore: wal: %w", err)
	}
	p := &DirPersister{dir: dir, wal: wal}
	if err := p.syncDir(); err != nil {
		wal.Close()
		return nil, fmt.Errorf("kvstore: persister dir: %w", err)
	}
	return p, nil
}

// Dir reports the backing directory.
func (p *DirPersister) Dir() string { return p.dir }

func (p *DirPersister) syncDir() error {
	d, err := os.Open(p.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// AppendWAL implements Persister.
func (p *DirPersister) AppendWAL(rec []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, err := p.wal.Write(rec)
	return err
}

// Sync implements Persister.
func (p *DirPersister) Sync() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.wal.Sync()
}

// ReplayWAL implements Persister, truncating the file past the last intact
// record so new appends extend a clean log.
func (p *DirPersister) ReplayWAL(fn func(rec []byte) error) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	log, err := os.ReadFile(filepath.Join(p.dir, walFileName))
	if err != nil {
		return err
	}
	keep, err := walkWAL(log, fn)
	if err != nil {
		return err
	}
	if keep < len(log) {
		if err := p.wal.Truncate(int64(keep)); err != nil {
			return err
		}
	}
	return nil
}

// ResetWAL implements Persister.
func (p *DirPersister) ResetWAL() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.wal.Truncate(0); err != nil {
		return err
	}
	return p.wal.Sync()
}

// PutBlob implements Persister.
func (p *DirPersister) PutBlob(name string, data []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	path := filepath.Join(p.dir, name)
	f, err := os.OpenFile(path+tmpSuffix, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(path+tmpSuffix, path)
	}
	if err != nil {
		return err
	}
	return p.syncDir()
}

// GetBlob implements Persister.
func (p *DirPersister) GetBlob(name string) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return os.ReadFile(filepath.Join(p.dir, name))
}

// DeleteBlobs implements Persister.
func (p *DirPersister) DeleteBlobs(names ...string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	removed := false
	for _, name := range names {
		if err := os.Remove(filepath.Join(p.dir, name)); err == nil {
			removed = true
		} else if !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	if !removed {
		return nil
	}
	return p.syncDir()
}

// ListBlobs implements Persister: every regular file but the log.
func (p *DirPersister) ListBlobs() ([]string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	entries, err := os.ReadDir(p.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.Type().IsRegular() && e.Name() != walFileName {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// Close implements Persister.
func (p *DirPersister) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.wal.Close()
}

// FaultPersister wraps a Persister with deterministic failure injection on
// the durability path — the storage-side sibling of faultinject.Conn. It
// is how tests prove a failed append is a failed ack, never a silent hole.
// Calls it injects nothing into go straight to the embedded Persister.
type FaultPersister struct {
	Persister

	mu           sync.Mutex
	appendBudget int64 // bytes accepted before appends fail; <0 = unlimited
	appended     int64
	failSync     bool
	failBlobs    bool
}

// NewFaultPersister wraps p with no faults armed.
func NewFaultPersister(p Persister) *FaultPersister {
	return &FaultPersister{Persister: p, appendBudget: -1}
}

// FailAppendsAfter arms append failure once n more bytes have been
// accepted; n = 0 fails the next append.
func (p *FaultPersister) FailAppendsAfter(n int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.appendBudget = n
	p.appended = 0
}

// FailSync makes Sync fail while on is true.
func (p *FaultPersister) FailSync(on bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failSync = on
}

// FailBlobs makes PutBlob — every table write and manifest commit — fail
// while on is true.
func (p *FaultPersister) FailBlobs(on bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failBlobs = on
}

// ErrInjected is the failure FaultPersister injects.
var ErrInjected = errors.New("kvstore: injected persister fault")

// AppendWAL implements Persister.
func (p *FaultPersister) AppendWAL(rec []byte) error {
	p.mu.Lock()
	if p.appendBudget >= 0 {
		if p.appended+int64(len(rec)) > p.appendBudget {
			p.mu.Unlock()
			return fmt.Errorf("append past budget: %w", ErrInjected)
		}
		p.appended += int64(len(rec))
	}
	p.mu.Unlock()
	return p.Persister.AppendWAL(rec)
}

// Sync implements Persister.
func (p *FaultPersister) Sync() error {
	p.mu.Lock()
	fail := p.failSync
	p.mu.Unlock()
	if fail {
		return fmt.Errorf("sync: %w", ErrInjected)
	}
	return p.Persister.Sync()
}

// PutBlob implements Persister.
func (p *FaultPersister) PutBlob(name string, data []byte) error {
	p.mu.Lock()
	fail := p.failBlobs
	p.mu.Unlock()
	if fail {
		return fmt.Errorf("put blob %s: %w", name, ErrInjected)
	}
	return p.Persister.PutBlob(name, data)
}
