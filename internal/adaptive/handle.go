package adaptive

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/core"
	"github.com/datacomp/datacomp/internal/telemetry"
	"github.com/datacomp/datacomp/internal/zstd"
)

// generation is one immutable serving configuration. The handle publishes
// the current generation through an atomic pointer; a swap builds a fresh
// generation and stores it, so the hot path never takes a lock and never
// observes a half-updated config. Retired generations stay decodable
// forever (the frame header carries everything a decoder needs) even after
// their encoder pool is evicted from the shared registry.
type generation struct {
	gen     uint64
	cfg     core.Config
	codecID byte
	dictID  uint32
	pool    *codec.Pool // refcounted via codec.AcquireShared
	hdr     []byte      // precomputed frame header
}

// decPoolKey identifies a decode-side engine: decompression is insensitive
// to level and window, so retired generations that differ only in those
// share one pool — the reason cycling N configs keeps pool counts bounded.
type decPoolKey struct {
	codecID byte
	dictID  uint32
}

// Handle is the per-traffic-class serving endpoint: a codec.Engine whose
// configuration is swapped live by the Controller. Unlike raw engines a
// Handle is safe for concurrent use; it checks out single-goroutine
// engines from the current generation's pool per call.
type Handle struct {
	class string
	ctrl  *Controller

	cur     atomic.Pointer[generation]
	nextGen atomic.Uint64

	// Reservoir (Vitter's algorithm R over every sampleEvery-th call).
	// The hot path pays one atomic increment; the sampled call pays a
	// TryLock and a bounded copy into a recycled slot, and drops the
	// sample on contention rather than ever blocking serving traffic.
	ops        atomic.Uint64
	sampleMask uint64
	resMu      sync.Mutex
	slots      [][]byte
	offered    uint64 // samples offered to the reservoir (algorithm R's t)
	rng        uint64

	// Retired generations, newest last; bounded by the controller's retain.
	// Guarded by swapMu (swaps are controller-only and rare).
	swapMu  sync.Mutex
	retired []*generation

	// Decode pools for frames from non-current generations, bounded LRU.
	decMu     sync.Mutex
	decPools  map[decPoolKey]*codec.Pool
	decOrder  []decPoolKey
	dicts     map[uint32][]byte // every dictionary ever adopted, by zstd.DictID
	maxDecode int

	// Shadow state owned by the controller worker (single goroutine).
	shadow      *core.CompEngine
	trialBuf    [][]byte
	copies      [][]byte // one reused copy buffer per reservoir slot
	nextCand    int
	dictCand    core.Config
	haveDict    bool
	sinceTrain  int
	curGauge    *telemetry.Gauge
	lastReport  atomic.Pointer[Decision]
	swaps       atomic.Uint64
	decodeOld   atomic.Uint64
	decodeCur   atomic.Uint64
	sampleDrops atomic.Uint64
}

// newHandle builds a handle serving cfg as generation 1.
func newHandle(ctrl *Controller, class string, cfg core.Config) (*Handle, error) {
	h := &Handle{
		class:      class,
		ctrl:       ctrl,
		sampleMask: uint64(ctrl.cfg.SampleEvery) - 1,
		slots:      make([][]byte, 0, ctrl.reservoirSize),
		trialBuf:   make([][]byte, 0, ctrl.reservoirSize),
		copies:     make([][]byte, ctrl.reservoirSize),
		decPools:   make(map[decPoolKey]*codec.Pool),
		dicts:      make(map[uint32][]byte),
		maxDecode:  ctrl.retain * 2,
		rng:        0x9E3779B97F4A7C15,
		shadow:     &core.CompEngine{Params: ctrl.params},
	}
	g, err := h.newGeneration(cfg)
	if err != nil {
		return nil, err
	}
	h.cur.Store(g)
	return h, nil
}

// Class returns the traffic-class name.
func (h *Handle) Class() string { return h.class }

// Generation returns the current generation number.
func (h *Handle) Generation() uint64 { return h.cur.Load().gen }

// Config returns the currently serving configuration.
func (h *Handle) Config() core.Config { return h.cur.Load().cfg }

func (h *Handle) newGeneration(cfg core.Config) (*generation, error) {
	id := codecIDOf(cfg.Algorithm)
	if id == codecInvalid {
		return nil, fmt.Errorf("adaptive: codec %q has no wire id", cfg.Algorithm)
	}
	var dictID uint32
	if len(cfg.Dict) > 0 {
		if cfg.Algorithm != "zstd" {
			return nil, fmt.Errorf("adaptive: dictionaries require zstd, got %q", cfg.Algorithm)
		}
		dictID = zstd.DictID(cfg.Dict)
	}
	pool, err := codec.AcquireShared(cfg.Algorithm, codec.Options{
		Level:     cfg.Level,
		WindowLog: cfg.WindowLog,
		Dict:      cfg.Dict,
	})
	if err != nil {
		return nil, err
	}
	g := &generation{
		gen:     h.nextGen.Add(1),
		cfg:     cfg,
		codecID: id,
		dictID:  dictID,
		pool:    pool,
	}
	g.hdr = appendHeader(make([]byte, 0, 16), g.gen, id, dictID)
	if dictID != 0 {
		h.decMu.Lock()
		h.dicts[dictID] = cfg.Dict
		h.decMu.Unlock()
	}
	return g, nil
}

// Adopt swaps the serving config to cfg, retiring the old generation. The
// controller worker adopts the challengers it picks; called directly it is
// an operator override of the decision rule (and the hook the swap-hammer
// tests churn).
func (h *Handle) Adopt(cfg core.Config) error {
	g, err := h.newGeneration(cfg)
	if err != nil {
		return err
	}
	h.swapMu.Lock()
	old := h.cur.Swap(g)
	h.retired = append(h.retired, old)
	if n := h.ctrl.retain; len(h.retired) > n {
		evict := h.retired[0]
		h.retired = append(h.retired[:0], h.retired[1:]...)
		codec.ReleaseShared(evict.pool)
	}
	h.swapMu.Unlock()
	h.swaps.Add(1)
	return nil
}

// Compress encodes src under the current generation, appending a
// self-describing adaptive frame to dst. A sampled op is also offered to
// the reservoir. Safe for concurrent use; allocation-free once pools are
// warm.
func (h *Handle) Compress(dst, src []byte) ([]byte, error) {
	if h.ops.Add(1)&h.sampleMask == 0 {
		h.offer(src)
	}
	g := h.cur.Load()
	dst = append(dst, g.hdr...)
	e := g.pool.Get()
	out, err := e.Compress(dst, src)
	g.pool.Put(e)
	return out, err
}

// Decompress decodes a frame produced by any generation of this class —
// current, retired, or a remote peer's. Safe for concurrent use.
func (h *Handle) Decompress(dst, src []byte) ([]byte, error) {
	gen, codecID, dictID, payload, err := ParseFrame(src)
	if err != nil {
		return nil, err
	}
	g := h.cur.Load()
	if g.gen == gen && g.codecID == codecID && g.dictID == dictID {
		h.decodeCur.Add(1)
		e := g.pool.Get()
		out, err := e.Decompress(dst, payload)
		g.pool.Put(e)
		return out, err
	}
	h.decodeOld.Add(1)
	p, err := h.decodePool(codecID, dictID)
	if err != nil {
		return nil, err
	}
	e := p.Get()
	out, err := e.Decompress(dst, payload)
	p.Put(e)
	return out, err
}

// decodePool returns an engine pool able to decode frames written with
// (codecID, dictID), building and LRU-bounding private pools on demand.
// Decompression ignores level and window, so one pool per (codec, dict)
// covers every retired generation of that shape.
func (h *Handle) decodePool(codecID byte, dictID uint32) (*codec.Pool, error) {
	k := decPoolKey{codecID: codecID, dictID: dictID}
	h.decMu.Lock()
	defer h.decMu.Unlock()
	if p, ok := h.decPools[k]; ok {
		return p, nil
	}
	var dict []byte
	if dictID != 0 {
		var ok bool
		if dict, ok = h.dicts[dictID]; !ok {
			return nil, fmt.Errorf("%w: unknown dictionary id %08x", ErrFrame, dictID)
		}
	}
	p, err := codec.NewPool(codecNameOf(codecID), codec.Options{
		Level: 1,
		Dict:  dict,
	})
	if err != nil {
		return nil, err
	}
	h.decPools[k] = p
	h.decOrder = append(h.decOrder, k)
	if len(h.decOrder) > h.maxDecode {
		evict := h.decOrder[0]
		h.decOrder = append(h.decOrder[:0], h.decOrder[1:]...)
		delete(h.decPools, evict)
	}
	return p, nil
}

// offer places one payload into the reservoir. Algorithm R over the
// subsampled stream: the first reservoirSize offers fill the slots, after
// which each offer replaces a uniformly random slot with probability
// size/offered. Slot buffers are recycled; contention drops the sample.
func (h *Handle) offer(src []byte) {
	if len(src) == 0 {
		return
	}
	if !h.resMu.TryLock() {
		h.sampleDrops.Add(1)
		return
	}
	defer h.resMu.Unlock()
	h.offered++
	var slot int
	if len(h.slots) < cap(h.slots) {
		h.slots = append(h.slots, nil)
		slot = len(h.slots) - 1
	} else {
		// xorshift64* — cheap, and statistical (not cryptographic) quality
		// is all a sampling reservoir needs.
		h.rng ^= h.rng << 13
		h.rng ^= h.rng >> 7
		h.rng ^= h.rng << 17
		j := h.rng % h.offered
		if j >= uint64(len(h.slots)) {
			return
		}
		slot = int(j)
	}
	n := min(len(src), h.ctrl.sampleBytes)
	h.slots[slot] = append(h.slots[slot][:0], src[:n]...)
}

// snapshotSamples copies the reservoir into the controller's trial buffer,
// each slot into its own copy buffer kept across rounds. The copies are
// valid until the next snapshot; nothing a round builds retains them.
func (h *Handle) snapshotSamples() [][]byte {
	h.resMu.Lock()
	defer h.resMu.Unlock()
	h.trialBuf = h.trialBuf[:0]
	for i, s := range h.slots {
		if len(s) > 0 {
			h.copies[i] = append(h.copies[i][:0], s...)
			h.trialBuf = append(h.trialBuf, h.copies[i])
		}
	}
	return h.trialBuf
}

// Report returns the most recent controller decision for this class, if
// any trial has completed.
func (h *Handle) Report() (Decision, bool) {
	d := h.lastReport.Load()
	if d == nil {
		return Decision{}, false
	}
	return *d, true
}
