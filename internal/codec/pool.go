package codec

import (
	"fmt"
	"hash/fnv"
	"sync"
)

// Pool recycles engines for one (codec, options) configuration. Engines
// are documented as single-goroutine, so concurrent callers historically
// constructed a fresh engine per call or per connection — paying matcher
// allocation (hash/chain tables run to megabytes at high levels) on every
// construction. A Pool amortizes that: Get hands out an idle engine or
// builds one, Put returns it for reuse. Safe for concurrent use.
type Pool struct {
	codec Codec
	opts  Options
	pool  sync.Pool

	// Shared-registry identity. A pool handed out by SharedPool or
	// AcquireShared remembers its key so ReleaseShared can retire it from
	// the process-wide map once no acquirer references it. All three fields
	// are guarded by sharedMu; private pools from NewPool leave them zero.
	key    poolKey
	refs   int
	pinned bool
}

// NewPool validates the configuration by building one engine eagerly and
// returns a pool producing engines for it.
func NewPool(name string, opts Options) (*Pool, error) {
	c, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("codec: unknown codec %q", name)
	}
	first, err := buildEngine(c, opts)
	if err != nil {
		return nil, err
	}
	p := &Pool{codec: c, opts: opts}
	p.pool.New = func() any {
		eng, err := buildEngine(c, opts)
		if err != nil {
			// Options validated at construction; a failure here would be a
			// registry swap, which misuse deserves a panic.
			panic(fmt.Sprintf("codec: pool construction failed: %v", err))
		}
		return eng
	}
	p.pool.Put(first)
	return p, nil
}

// Options returns the pool's engine configuration.
func (p *Pool) Options() Options { return p.opts }

// Codec returns the pool's codec name.
func (p *Pool) Codec() string { return p.codec.Name() }

// Get returns an engine for exclusive use. Return it with Put.
func (p *Pool) Get() Engine { return p.pool.Get().(Engine) }

// Put returns an engine obtained from Get. Putting an engine from a
// different configuration corrupts the pool; don't.
func (p *Pool) Put(e Engine) {
	if e == nil {
		return
	}
	p.pool.Put(e)
}

// Do runs f with a pooled engine, returning it afterwards.
func (p *Pool) Do(f func(Engine) error) error {
	e := p.Get()
	defer p.Put(e)
	return f(e)
}

// poolKey identifies a shared pool configuration. Dictionaries are keyed
// by content hash + length, mirroring zstd.DictID semantics.
type poolKey struct {
	name     string
	level    int
	window   uint
	dictHash uint64
	dictLen  int
	checksum bool
}

var (
	sharedMu    sync.Mutex
	sharedPools = map[poolKey]*Pool{}
)

func sharedKey(name string, opts Options) poolKey {
	k := poolKey{name: name, level: opts.Level, window: opts.WindowLog, dictLen: len(opts.Dict), checksum: opts.Checksum}
	if len(opts.Dict) > 0 {
		h := fnv.New64a()
		h.Write(opts.Dict)
		k.dictHash = h.Sum64()
	}
	return k
}

func sharedLocked(name string, opts Options) (*Pool, error) {
	k := sharedKey(name, opts)
	if p, ok := sharedPools[k]; ok {
		return p, nil
	}
	p, err := NewPool(name, opts)
	if err != nil {
		return nil, err
	}
	p.key = k
	sharedPools[k] = p
	return p, nil
}

// SharedPool returns a process-wide pool for the configuration, creating
// it on first use. Repeated calls with an equal configuration return the
// same pool, so independent subsystems (RPC transports, instrumented
// benchmark runs) share recycled engines. Pools obtained this way are
// pinned for the life of the process; callers whose configurations come
// and go (the adaptive controller cycling generations) must use
// AcquireShared/ReleaseShared instead so retired configurations can be
// evicted.
func SharedPool(name string, opts Options) (*Pool, error) {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	p, err := sharedLocked(name, opts)
	if err != nil {
		return nil, err
	}
	p.pinned = true
	return p, nil
}

// AcquireShared returns the process-wide pool for the configuration with
// its reference count raised. Pair every acquire with exactly one
// ReleaseShared: when the last reference drops, the pool — and the
// megabytes of matcher state its idle engines hold — leaves the shared
// registry and becomes garbage. A configuration also pinned by SharedPool
// is never evicted.
func AcquireShared(name string, opts Options) (*Pool, error) {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	p, err := sharedLocked(name, opts)
	if err != nil {
		return nil, err
	}
	p.refs++
	return p, nil
}

// ReleaseShared drops one AcquireShared reference. Releasing a nil,
// private, or pinned pool is a no-op, so callers can release
// unconditionally on teardown.
func ReleaseShared(p *Pool) {
	if p == nil {
		return
	}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if p.pinned || p.refs == 0 {
		return
	}
	p.refs--
	if p.refs == 0 && sharedPools[p.key] == p {
		delete(sharedPools, p.key)
	}
}

// SharedPoolCount reports how many configurations the shared registry
// currently holds — the bound the adaptive swap tests assert on.
func SharedPoolCount() int {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	return len(sharedPools)
}
