// Package trace is the repository's request-scoped tracing spine: a
// low-overhead, allocation-conscious span library with context propagation,
// sampling, a wire-encodable span context for RPC stitching, and a flight
// recorder that retains the slowest and most recent completed traces.
//
// The fleet characterization the paper performs attributes *aggregate*
// cycles to codec stages; serving a latency SLO needs *per-request*
// attribution — which codec call, rpc hop or failed call put one request
// into the p999 bucket. Spans answer that: every sampled request carries a
// trace through rpc framing and codec calls, and the histogram exemplars
// in internal/telemetry link tail buckets back to the offending trace.
//
// Design constraints, in order:
//
//  1. Disabled or enabled-but-unsampled tracing must cost near nothing on
//     the hot path: no allocations, one atomic or one context lookup.
//  2. Sampled traces must have bounded memory: spans live in a per-trace
//     buffer capped at MaxSpans, and buffers recycle through pools, so the
//     steady state allocates nothing.
//  3. Handles are values. A SpanHandle is two words and is safe to copy,
//     pass across goroutines, and call on when zero (every method no-ops).
package trace

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one request's trace. Zero is "no trace".
type TraceID uint64

// SpanID identifies one span within a trace. Zero is "no span".
type SpanID uint64

// SpanContext is the propagatable identity of a span — what crosses the
// wire in an RPC frame header so client and server spans stitch into one
// tree.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	Sampled bool
}

// Valid reports whether the context names a real sampled span.
func (sc SpanContext) Valid() bool {
	return sc.Sampled && sc.TraceID != 0 && sc.SpanID != 0
}

// Attr is one typed span attribute: either an int64 or a string value.
type Attr struct {
	Key string
	Str string
	Int int64
	// IsStr distinguishes the zero int from an empty-string value.
	IsStr bool
}

const (
	// maxAttrs bounds attributes per span; later sets are dropped. Spans
	// are fixed-size records so trace memory stays bounded and pooled.
	maxAttrs = 6

	// MaxSpans bounds spans per trace. Further starts are dropped (counted
	// in TraceData.Dropped) so a pathological request cannot grow the
	// flight recorder without bound.
	MaxSpans = 512
)

// Span is one timed operation inside a trace. Spans are records inside the
// owning Trace's buffer; external code manipulates them through SpanHandle.
type Span struct {
	ID     SpanID
	Parent SpanID // zero for the local root
	Name   string
	Start  time.Duration // offset from the trace's start time
	Dur    time.Duration // negative until End (clamped at export)
	attrs  [maxAttrs]Attr
	nattrs uint8
}

// Attrs returns the span's set attributes.
func (s *Span) Attrs() []Attr { return s.attrs[:s.nattrs] }

// Trace accumulates the spans of one sampled request. All mutation happens
// under mu: span starts can come from pipeline worker goroutines while the
// request goroutine is annotating its own span.
type Trace struct {
	tracer *Tracer
	id     TraceID
	remote bool // root was started from a wire context (server half)

	mu      sync.Mutex
	gen     uint32 // incremented on recycle; stale handles no-op
	start   time.Time
	spans   []Span
	dropped int64
}

// SpanHandle addresses one span of one trace generation. The zero handle is
// valid and inert: every method is a no-op, which is what an unsampled
// request gets.
type SpanHandle struct {
	tr  *Trace
	idx int32
	gen uint32
}

// Valid reports whether the handle addresses a live span.
func (h SpanHandle) Valid() bool { return h.tr != nil }

// ctxKey keys the active span handle in a context.
type ctxKey struct{}

// ContextWith returns ctx carrying h as the active span. A zero handle
// returns ctx unchanged (no allocation).
func ContextWith(ctx context.Context, h SpanHandle) context.Context {
	if !h.Valid() {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, h)
}

// FromContext returns the active span handle, or the zero handle.
func FromContext(ctx context.Context) SpanHandle {
	h, _ := ctx.Value(ctxKey{}).(SpanHandle)
	return h
}

// Config parameterizes a Tracer.
type Config struct {
	// SampleEvery samples one trace in every N root starts. 1 traces every
	// request; 0 disables tracing entirely.
	SampleEvery int
	// Recorder retains completed traces. Nil means completed traces are
	// recycled immediately (spans still flow to live exemplars).
	Recorder *Recorder
}

// Tracer creates and samples traces. Safe for concurrent use.
type Tracer struct {
	every uint64
	tick  atomic.Uint64
	ids   atomic.Uint64 // splitmix64 counter for trace/span IDs
	rec   *Recorder
	bufs  sync.Pool // *Trace
}

// New builds a tracer. A nil *Tracer is usable and permanently disabled, so
// call sites never nil-check.
func New(cfg Config) *Tracer {
	t := &Tracer{every: uint64(max(cfg.SampleEvery, 0)), rec: cfg.Recorder}
	t.ids.Store(uint64(time.Now().UnixNano()))
	return t
}

// splitmix64 is the ID mixer: cheap, well-distributed, never zero-prone
// enough to matter (zero outputs are rerolled by nextID).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (t *Tracer) nextID() uint64 {
	for {
		if id := splitmix64(t.ids.Add(1)); id != 0 {
			return id
		}
	}
}

// Enabled reports whether the tracer can ever sample (non-nil and
// SampleEvery > 0).
func (t *Tracer) Enabled() bool { return t != nil && t.every > 0 }

// sampled makes the root-start sampling decision.
func (t *Tracer) sampled() bool {
	if t == nil || t.every == 0 {
		return false
	}
	if t.every == 1 {
		return true
	}
	return t.tick.Add(1)%t.every == 0
}

// newTrace pulls a recycled trace buffer or builds one.
func (t *Tracer) newTrace(id TraceID) *Trace {
	tr, ok := t.bufs.Get().(*Trace)
	if !ok {
		tr = &Trace{tracer: t, spans: make([]Span, 0, 16)}
	}
	tr.id = id
	tr.remote = false
	tr.start = time.Now()
	return tr
}

// recycle resets and pools a finished trace buffer.
func (t *Tracer) recycle(tr *Trace) {
	tr.mu.Lock()
	tr.gen++
	tr.spans = tr.spans[:0]
	tr.dropped = 0
	tr.id = 0
	tr.mu.Unlock()
	t.bufs.Put(tr)
}

// StartRoot starts a new trace if this request wins sampling, returning ctx
// carrying the root span. Unsampled requests get ctx back unchanged and a
// zero handle, with zero allocations.
func (t *Tracer) StartRoot(ctx context.Context, name string) (context.Context, SpanHandle) {
	if !t.sampled() {
		return ctx, SpanHandle{}
	}
	tr := t.newTrace(TraceID(t.nextID()))
	h := tr.startSpan(0, name)
	return ContextWith(ctx, h), h
}

// StartRemote starts the local half of a trace whose identity arrived over
// the wire (the server side of an RPC). The local root's parent is the
// remote span, so export stitches both halves into one tree.
func (t *Tracer) StartRemote(ctx context.Context, name string, sc SpanContext) (context.Context, SpanHandle) {
	if t == nil || t.every == 0 || !sc.Valid() {
		return ctx, SpanHandle{}
	}
	tr := t.newTrace(sc.TraceID)
	tr.remote = true
	h := tr.startSpan(sc.SpanID, name)
	return ContextWith(ctx, h), h
}

// Start starts a child of the context's active span. With no active span it
// returns ctx unchanged and a zero handle.
func Start(ctx context.Context, name string) (context.Context, SpanHandle) {
	h := FromContext(ctx)
	if !h.Valid() {
		return ctx, SpanHandle{}
	}
	c := h.Child(name)
	return ContextWith(ctx, c), c
}

// startSpan allocates a span record. parent is zero for the local root.
func (tr *Trace) startSpan(parent SpanID, name string) SpanHandle {
	now := time.Now()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.spans) >= MaxSpans {
		tr.dropped++
		return SpanHandle{}
	}
	idx := int32(len(tr.spans))
	tr.spans = append(tr.spans, Span{
		ID:     SpanID(tr.tracer.nextID()),
		Parent: parent,
		Name:   name,
		Start:  now.Sub(tr.start),
		Dur:    -1,
	})
	return SpanHandle{tr: tr, idx: idx, gen: tr.gen}
}

// span returns the addressed record, or nil for a stale/zero handle. Caller
// must hold tr.mu.
func (h SpanHandle) span() *Span {
	if h.tr.gen != h.gen || int(h.idx) >= len(h.tr.spans) {
		return nil
	}
	return &h.tr.spans[h.idx]
}

// Child starts a child span. On a zero handle it returns a zero handle.
func (h SpanHandle) Child(name string) SpanHandle {
	if !h.Valid() {
		return SpanHandle{}
	}
	h.tr.mu.Lock()
	sp := h.span()
	h.tr.mu.Unlock()
	if sp == nil {
		return SpanHandle{}
	}
	return h.tr.startSpan(sp.ID, name)
}

// SetInt sets an integer attribute, returning h for chaining. Attributes
// past the per-span cap are dropped.
func (h SpanHandle) SetInt(key string, v int64) SpanHandle {
	if !h.Valid() {
		return h
	}
	h.tr.mu.Lock()
	if sp := h.span(); sp != nil && sp.nattrs < maxAttrs {
		sp.attrs[sp.nattrs] = Attr{Key: key, Int: v}
		sp.nattrs++
	}
	h.tr.mu.Unlock()
	return h
}

// SetStr sets a string attribute, returning h for chaining.
func (h SpanHandle) SetStr(key, v string) SpanHandle {
	if !h.Valid() {
		return h
	}
	h.tr.mu.Lock()
	if sp := h.span(); sp != nil && sp.nattrs < maxAttrs {
		sp.attrs[sp.nattrs] = Attr{Key: key, Str: v, IsStr: true}
		sp.nattrs++
	}
	h.tr.mu.Unlock()
	return h
}

// Context returns the span's propagatable identity, for the wire.
func (h SpanHandle) Context() SpanContext {
	if !h.Valid() {
		return SpanContext{}
	}
	h.tr.mu.Lock()
	sp := h.span()
	var sc SpanContext
	if sp != nil {
		sc = SpanContext{TraceID: h.tr.id, SpanID: sp.ID, Sampled: true}
	}
	h.tr.mu.Unlock()
	return sc
}

// TraceID returns the owning trace's ID (zero for a zero handle) — what
// histogram exemplars record.
func (h SpanHandle) TraceID() TraceID {
	if !h.Valid() {
		return 0
	}
	return h.tr.id
}

// End closes the span. Ending the local root completes the trace: it is
// handed to the flight recorder (or recycled), after which all handles into
// it become inert. End on a zero handle is a no-op; End is not idempotent
// on the root (the second call is inert because the generation moved on).
func (h SpanHandle) End() {
	if !h.Valid() {
		return
	}
	now := time.Now()
	h.tr.mu.Lock()
	sp := h.span()
	root := false
	if sp != nil {
		if sp.Dur < 0 {
			sp.Dur = now.Sub(h.tr.start) - sp.Start
		}
		root = h.idx == 0
	}
	h.tr.mu.Unlock()
	if root && sp != nil {
		h.tr.tracer.finish(h.tr)
	}
}

// finish routes a completed trace to the recorder and recycles whatever
// falls out the other end.
func (t *Tracer) finish(tr *Trace) {
	if t.rec != nil {
		tr = t.rec.admit(tr)
	}
	if tr != nil {
		// A shared recorder can displace a trace owned by another tracer;
		// recycle into its owner's pool, not ours.
		tr.tracer.recycle(tr)
	}
}

// rootDur returns the completed root duration (0 if absent).
func (tr *Trace) rootDur() time.Duration {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.spans) == 0 || tr.spans[0].Dur < 0 {
		return 0
	}
	return tr.spans[0].Dur
}

// snapshotData deep-copies a completed trace for export.
func (tr *Trace) snapshotData() TraceData {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	td := TraceData{
		ID:      tr.id,
		Start:   tr.start,
		Remote:  tr.remote,
		Dropped: tr.dropped,
		Spans:   make([]SpanData, len(tr.spans)),
	}
	var rootEnd time.Duration
	if len(tr.spans) > 0 && tr.spans[0].Dur >= 0 {
		rootEnd = tr.spans[0].Start + tr.spans[0].Dur
	}
	for i := range tr.spans {
		sp := &tr.spans[i]
		d := sp.Dur
		if d < 0 {
			// Never ended (a pipeline straggler): clamp to the root's end.
			d = max(rootEnd-sp.Start, 0)
		}
		td.Spans[i] = SpanData{
			ID:     sp.ID,
			Parent: sp.Parent,
			Name:   sp.Name,
			Start:  sp.Start,
			Dur:    d,
			Attrs:  append([]Attr(nil), sp.attrs[:sp.nattrs]...),
		}
	}
	return td
}

// SpanData is an exported copy of one span.
type SpanData struct {
	ID     SpanID
	Parent SpanID
	Name   string
	Start  time.Duration // offset from TraceData.Start
	Dur    time.Duration
	Attrs  []Attr
}

// TraceData is an exported copy of one completed trace (or, after Stitch,
// of several local halves sharing a trace ID).
type TraceData struct {
	ID      TraceID
	Start   time.Time
	Remote  bool
	Dropped int64
	Spans   []SpanData
}

// Root returns the trace's root span: the span whose parent is absent from
// the trace (after stitching, the client half's root). Falls back to the
// first span.
func (td TraceData) Root() *SpanData {
	if len(td.Spans) == 0 {
		return nil
	}
	present := make(map[SpanID]bool, len(td.Spans))
	for i := range td.Spans {
		present[td.Spans[i].ID] = true
	}
	for i := range td.Spans {
		if td.Spans[i].Parent == 0 || !present[td.Spans[i].Parent] {
			return &td.Spans[i]
		}
	}
	return &td.Spans[0]
}

// Find returns the first span with the given name, or nil.
func (td TraceData) Find(name string) *SpanData {
	for i := range td.Spans {
		if td.Spans[i].Name == name {
			return &td.Spans[i]
		}
	}
	return nil
}

// Stitch merges trace halves that share a TraceID — the client and server
// sides of an RPC recorded as separate local traces — into one TraceData
// per ID, preserving input order of first appearance. Span Start offsets
// are rebased onto the earliest half's start time.
func Stitch(tds []TraceData) []TraceData {
	byID := make(map[TraceID]int, len(tds))
	var out []TraceData
	for _, td := range tds {
		i, ok := byID[td.ID]
		if !ok {
			byID[td.ID] = len(out)
			out = append(out, td)
			continue
		}
		dst := &out[i]
		base := dst.Start
		if td.Start.Before(base) {
			// Rebase the existing spans onto the earlier start.
			delta := base.Sub(td.Start)
			for j := range dst.Spans {
				dst.Spans[j].Start += delta
			}
			dst.Start = td.Start
			base = td.Start
		}
		delta := td.Start.Sub(base)
		for _, sp := range td.Spans {
			sp.Start += delta
			dst.Spans = append(dst.Spans, sp)
		}
		dst.Dropped += td.Dropped
		dst.Remote = dst.Remote && td.Remote
	}
	return out
}
