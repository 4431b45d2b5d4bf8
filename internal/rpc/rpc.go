// Package rpc is a service-to-service RPC transport with transparent
// per-message compression — the setting of the paper's introduction, where
// datacenter services exchange objects over RPC and compression trades CPU
// cycles for network bytes.
//
// Messages are length-delimited binary frames carrying an XXH64 integrity
// checksum over method and payload; payloads at or above a configurable
// threshold are compressed with the configured codec and flagged, so the
// peer decompresses only what was actually compressed (small messages skip
// the codec entirely, as fleet services do). The serving path is hardened
// for production failure modes: corrupt frames surface as ErrCorrupt (never
// a panic or a silently wrong payload), Client.Call takes a context whose
// deadline propagates into the connection, idempotent methods retry with
// exponential backoff behind a per-connection circuit breaker, and an
// overloaded server sheds compression work past a queue-depth threshold.
//
// Both ends account raw vs wire bytes and codec time with atomic counters
// and publish into the shared telemetry registry. Transports draw engines
// from a codec.Pool keyed by configuration, so connection churn does not
// pay engine construction.
package rpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/datacomp/datacomp/internal/adaptive"
	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/telemetry"
	"github.com/datacomp/datacomp/internal/trace"
	"github.com/datacomp/datacomp/internal/xxhash"
)

// Compression configures the transport's codec.
type Compression struct {
	// Codec names a registered codec; empty disables compression.
	Codec string
	// Level is the codec level (0 = codec default).
	Level int
	// MinSize skips compression for smaller payloads (default 256).
	MinSize int
	// Checksum additionally frames codec payloads with a content checksum
	// (codec.WithChecksum), verifying decompressed bytes end to end on top
	// of the always-on wire-frame checksum.
	Checksum bool
	// Adaptive routes payloads through a live-reoptimizing controller
	// instead of the static Codec/Level engine: each RPC method becomes
	// its own traffic class ("rpc:" + method) whose config
	// the controller retunes from reservoir samples. Frames are
	// self-describing, so both connection ends must use the same
	// controller (in-process) or controllers sharing dictionary state.
	// Codec and Level are ignored when set; MinSize still applies.
	Adaptive *adaptive.Controller
}

// adaptiveClassPrefix namespaces the per-method adaptive classes.
const adaptiveClassPrefix = "rpc:"

func (c *Compression) fill() {
	if c.MinSize == 0 {
		c.MinSize = 256
	}
}

// ErrCorrupt is the typed error for frames that fail integrity
// verification — a checksum mismatch, a malformed header, a truncated
// frame, or an undecodable payload. It aliases codec.ErrCorrupt so one
// errors.Is covers both layers.
var ErrCorrupt = codec.ErrCorrupt

// Frame-corruption detail errors, all wrapping ErrCorrupt.
var (
	errUnknownFlags = fmt.Errorf("%w: unknown frame flags", ErrCorrupt)
	errMethodLen    = fmt.Errorf("%w: method length out of range", ErrCorrupt)
	errFrameLen     = fmt.Errorf("%w: payload length out of range", ErrCorrupt)
	errHeader       = fmt.Errorf("%w: malformed frame header", ErrCorrupt)
	errTruncated    = fmt.Errorf("%w: truncated frame", ErrCorrupt)
	errSumMismatch  = fmt.Errorf("%w: frame checksum mismatch", ErrCorrupt)
)

// alignedError marks a frame error detected after the whole frame was
// consumed: the byte stream is still frame-aligned, so the connection
// remains usable. Errors without this mark leave the stream in an unknown
// position and the connection must be abandoned.
type alignedError struct{ err error }

func (e *alignedError) Error() string { return e.err.Error() }
func (e *alignedError) Unwrap() error { return e.err }

func aligned(err error) error { return &alignedError{err: err} }

// isAligned reports whether the connection survived the error.
func isAligned(err error) bool {
	var a *alignedError
	return errors.As(err, &a)
}

// Stats is a consistent snapshot of one endpoint's traffic.
type Stats struct {
	Calls          int64
	RawBytes       int64 // payload bytes before compression (both directions)
	WireBytes      int64 // payload bytes on the wire
	CompressTime   time.Duration
	DecompressTime time.Duration
}

// Saved reports the fraction of payload bytes removed by compression.
func (s Stats) Saved() float64 {
	if s.RawBytes == 0 {
		return 0
	}
	return 1 - float64(s.WireBytes)/float64(s.RawBytes)
}

// counters is the race-safe accumulator behind Stats. Counters are
// mutated from whichever goroutine touches the frame (reader or writer),
// so every field is an independent atomic; snapshot() assembles a Stats.
type counters struct {
	calls        atomic.Int64
	rawBytes     atomic.Int64
	wireBytes    atomic.Int64
	compressNS   atomic.Int64
	decompressNS atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Calls:          c.calls.Load(),
		RawBytes:       c.rawBytes.Load(),
		WireBytes:      c.wireBytes.Load(),
		CompressTime:   time.Duration(c.compressNS.Load()),
		DecompressTime: time.Duration(c.decompressNS.Load()),
	}
}

func (c *counters) foldInto(dst *counters) {
	dst.calls.Add(c.calls.Load())
	dst.rawBytes.Add(c.rawBytes.Load())
	dst.wireBytes.Add(c.wireBytes.Load())
	dst.compressNS.Add(c.compressNS.Load())
	dst.decompressNS.Add(c.decompressNS.Load())
}

// Package-level telemetry, registered once on first transport creation.
var (
	tmOnce            sync.Once
	tmCalls           *telemetry.Counter
	tmRawBytes        *telemetry.Counter
	tmWireBytes       *telemetry.Counter
	tmCompNS          *telemetry.Counter
	tmDecompNS        *telemetry.Counter
	tmFrameBytes      *telemetry.Histogram
	tmCallNS          *telemetry.Histogram
	tmCorrupt         *telemetry.Counter
	tmRetries         *telemetry.Counter
	tmBreakerOpen     *telemetry.Counter
	tmBreakerFastFail *telemetry.Counter
	tmShed            *telemetry.Counter
	tmDeadline        *telemetry.Counter
)

func tm() {
	tmOnce.Do(func() {
		r := telemetry.Default
		tmCalls = r.Counter("rpc_calls_total", "completed RPC calls")
		tmRawBytes = r.Counter("rpc_raw_bytes_total", "payload bytes before compression")
		tmWireBytes = r.Counter("rpc_wire_bytes_total", "payload bytes on the wire")
		tmCompNS = r.Counter("rpc_compress_ns_total", "time compressing RPC payloads")
		tmDecompNS = r.Counter("rpc_decompress_ns_total", "time decompressing RPC payloads")
		tmFrameBytes = r.Histogram("rpc_wire_frame_bytes", "wire payload size per frame", "bytes")
		tmCallNS = r.Histogram("rpc_call_ns", "client call latency end to end", "ns")
		// Exemplars link a tail-latency bucket to the trace that landed there.
		tmCallNS.EnableExemplars()
		tmCorrupt = r.Counter("rpc_corrupt_frames_total", "frames failing integrity verification")
		tmRetries = r.Counter("rpc_retries_total", "retried client calls")
		tmBreakerOpen = r.Counter("rpc_breaker_open_total", "circuit breaker open transitions")
		tmBreakerFastFail = r.Counter("rpc_breaker_fastfail_total", "calls rejected by an open circuit breaker")
		tmShed = r.Counter("rpc_shed_frames_total", "response frames sent uncompressed due to load shedding")
		tmDeadline = r.Counter("rpc_deadline_exceeded_total", "calls failed by context deadline or cancellation")
	})
}

// Frame layout (v2, with the v2.1 trace extension):
//
//	flags   1 byte   (flagCompressed | flagError | flagTrace; anything else
//	                  is corrupt)
//	trace   18 bytes trace span context (present iff flagTrace; see
//	                  trace.AppendWire for the field's own layout)
//	mlen    uvarint  method length (≤ maxMethod)
//	method  mlen bytes
//	plen    uvarint  wire payload length (≤ maxFrame)
//	sum     8 bytes  little-endian XXH64 over trace field (when present),
//	                  then method, then wire payload
//	payload plen bytes
//
// v1 frames had no checksum; the format changed because a transport that
// sits on latency-critical service paths must detect bit flips and
// truncation instead of delivering silently wrong bytes (see DESIGN.md).
//
// The trace field is version-gated by its flag bit: frames without
// flagTrace are byte-identical to plain v2 (including their checksum), so
// old frames decode unchanged here, while a pre-trace binary receiving a
// flagTrace frame rejects it as unknown-flags corruption rather than
// misparsing it — enabling tracing requires both ends at this version
// (DESIGN.md §9).
const (
	flagCompressed = 1 << 0
	flagError      = 1 << 1
	flagTrace      = 1 << 2

	flagsKnown = flagCompressed | flagError | flagTrace
)

const (
	maxFrame    = 64 << 20
	maxMethod   = 4096
	frameSumLen = 8
)

// transport frames and (de)compresses messages on one connection.
// The engine is single-goroutine (Client/Server serialize frame I/O), but
// the stats counters are safe to read concurrently.
//
// When owned is set (server side), readFrame returns method and payload
// slices backed by the transport's scratch buffers, valid only until the
// next readFrame — the serve loop fully consumes each frame before reading
// the next, so steady-state serving allocates nothing per frame. Client
// transports leave owned unset because Call hands the response payload to
// the caller, which keeps it.
type transport struct {
	r       *bufio.Reader
	w       *bufio.Writer
	eng     codec.Engine                // nil = no compression
	pool    *codec.Pool                 // where eng came from, for release()
	actrl   *adaptive.Controller        // non-nil = per-method adaptive compression
	ahnd    map[string]*adaptive.Handle // method → class handle cache
	min     int
	owned   bool
	shed    func() bool // when non-nil and true, skip compression (overload)
	stats   counters
	buf     []byte // compression scratch (write side)
	mbuf    []byte // method scratch (read side)
	rbuf    []byte // wire-payload scratch (read side)
	dbuf    []byte // decompression scratch (read side, owned only)
	wmethod []byte // method scratch (write side, avoids string→[]byte churn)

	// Tracing state. cur is the span the owner (Client.Call attempt or
	// server request loop) is inside of; the frame codecs hang their
	// compress/decompress spans and per-stage children off it. wsc is the
	// span context the next outbound frame should carry; rsc is what the
	// last inbound frame carried. All single-goroutine, like the engine.
	tracer *trace.Tracer
	cur    trace.SpanHandle
	stages trace.StageSpans
	wsc    trace.SpanContext
	rsc    trace.SpanContext
	tbuf   [trace.WireLen]byte // wire trace-field scratch (both sides)

	// Header scratch: on the stack these would escape into the bufio calls
	// and cost a heap allocation per frame.
	whdr [binary.MaxVarintLen64]byte // length fields (write side)
	wsum [frameSumLen]byte           // frame checksum (write side)
	rsum [frameSumLen]byte           // frame checksum (read side)
}

func newTransport(conn io.ReadWriter, comp Compression, tracer *trace.Tracer) (*transport, error) {
	comp.fill()
	tm()
	t := &transport{
		r:      bufio.NewReader(conn),
		w:      bufio.NewWriter(conn),
		min:    comp.MinSize,
		tracer: tracer,
	}
	if comp.Adaptive != nil {
		t.actrl = comp.Adaptive
		t.ahnd = make(map[string]*adaptive.Handle, 4)
		return t, nil
	}
	if comp.Codec != "" {
		c, ok := codec.Lookup(comp.Codec)
		if !ok {
			return nil, fmt.Errorf("rpc: unknown codec %q", comp.Codec)
		}
		level := comp.Level
		if level == 0 {
			_, _, level = c.Levels()
		}
		pool, err := codec.SharedPool(comp.Codec, codec.Options{Level: level, Checksum: comp.Checksum})
		if err != nil {
			return nil, err
		}
		t.pool = pool
		t.eng = pool.Get()
		if tracer.Enabled() {
			// Per-stage child spans under whatever span is bound at
			// compress/decompress time. Pool.Put clears the hook on release,
			// so a recycled engine never fires into a dead transport.
			if h, ok := t.eng.(codec.StageHooker); ok {
				h.SetStageHook(t.stages.Hook)
			}
		}
	}
	return t, nil
}

// release returns the engine to its pool. Safe to call more than once.
func (t *transport) release() {
	if t.pool != nil && t.eng != nil {
		t.pool.Put(t.eng)
		t.eng = nil
		t.pool = nil
	}
}

// adaptiveHandle resolves the class handle for a method, caching per
// transport so steady-state frames pay one map lookup (alloc-free: Go map
// reads with a string([]byte) key do not copy). Like eng, the cache is
// touched only by the transport's owning goroutine.
func (t *transport) adaptiveHandle(method []byte) (*adaptive.Handle, error) {
	if h, ok := t.ahnd[string(method)]; ok {
		return h, nil
	}
	h, err := t.actrl.Handle(adaptiveClassPrefix + string(method))
	if err != nil {
		return nil, err
	}
	t.ahnd[string(method)] = h
	return h, nil
}

// frameSum hashes what the checksum covers: the trace field when present,
// then method bytes, then the exact bytes that ride the wire as payload. A
// frame without a trace field hashes identically to the pre-trace format.
func frameSum(trc, method, wire []byte) uint64 {
	var d xxhash.Digest
	d.Reset()
	d.Write(trc)
	d.Write(method)
	d.Write(wire)
	return d.Sum64()
}

// writeFrame sends flags, method and payload, compressing when worthwhile
// and not shedding, and stamps the frame checksum. When a trace context is
// staged (t.wsc), the frame carries it and flags it; the context is
// consumed so response frames never echo it back.
func (t *transport) writeFrame(flags byte, method, payload []byte) error {
	wire := payload
	if (t.eng != nil || t.actrl != nil) && len(payload) >= t.min {
		if t.shed != nil && t.shed() {
			tmShed.Inc()
			t.cur.Event("rpc.shed")
		} else {
			sp := t.cur.Child("rpc.compress") // zero handle when untraced
			t.stages.Bind(sp)
			t0 := time.Now()
			var out []byte
			var err error
			if t.actrl != nil {
				var h *adaptive.Handle
				if h, err = t.adaptiveHandle(method); err == nil {
					out, err = h.Compress(t.buf[:0], payload)
				}
			} else {
				out, err = t.eng.Compress(t.buf[:0], payload)
			}
			ns := time.Since(t0).Nanoseconds()
			t.stats.compressNS.Add(ns)
			tmCompNS.Add(ns)
			t.stages.Finish()
			if err != nil {
				sp.End()
				return err
			}
			t.buf = out
			if len(out) < len(payload) {
				wire = out
				flags |= flagCompressed
			}
			sp.SetInt("raw", int64(len(payload))).SetInt("wire", int64(len(wire))).End()
		}
	}
	var trc []byte
	if t.wsc.Valid() {
		trc = trace.AppendWire(t.tbuf[:0], t.wsc)
		flags |= flagTrace
		t.wsc = trace.SpanContext{}
	}
	hdr := t.whdr[:]
	if err := t.w.WriteByte(flags); err != nil {
		return err
	}
	if _, err := t.w.Write(trc); err != nil {
		return err
	}
	if _, err := t.w.Write(hdr[:binary.PutUvarint(hdr, uint64(len(method)))]); err != nil {
		return err
	}
	if _, err := t.w.Write(method); err != nil {
		return err
	}
	if _, err := t.w.Write(hdr[:binary.PutUvarint(hdr, uint64(len(wire)))]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(t.wsum[:], frameSum(trc, method, wire))
	if _, err := t.w.Write(t.wsum[:]); err != nil {
		return err
	}
	if _, err := t.w.Write(wire); err != nil {
		return err
	}
	t.stats.rawBytes.Add(int64(len(payload)))
	t.stats.wireBytes.Add(int64(len(wire)))
	tmRawBytes.Add(int64(len(payload)))
	tmWireBytes.Add(int64(len(wire)))
	tmFrameBytes.Observe(int64(len(wire)))
	return t.w.Flush()
}

// corruptFrame counts and returns a frame-integrity failure.
func corruptFrame(err error) error {
	tmCorrupt.Inc()
	return err
}

// midFrame maps an I/O error that happened inside a frame: EOF at that
// point is truncation, which is corruption, not a clean close.
func midFrame(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return corruptFrame(errTruncated)
	}
	return err
}

// readHeaderUvarint reads a length field. Any decode failure that is not
// plain I/O — e.g. a varint overflowing 64 bits — means the header bytes
// themselves are garbage, which is corruption.
func (t *transport) readHeaderUvarint() (uint64, error) {
	n, err := binary.ReadUvarint(t.r)
	if err == nil {
		return n, nil
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return 0, corruptFrame(errTruncated)
	}
	var ne net.Error
	if errors.As(err, &ne) || errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) {
		return 0, err // connection-level failure, not frame corruption
	}
	return 0, corruptFrame(errHeader)
}

// readFrame receives one message, verifying the frame checksum and
// decompressing as flagged. On an owned transport, method and payload alias
// scratch buffers valid until the next readFrame; otherwise the payload is
// freshly allocated for the caller.
func (t *transport) readFrame() (flags byte, method, payload []byte, err error) {
	t.rsc = trace.SpanContext{}
	flags, err = t.r.ReadByte()
	if err != nil {
		return 0, nil, nil, err // clean EOF between frames is a close
	}
	if flags&^flagsKnown != 0 {
		return 0, nil, nil, corruptFrame(errUnknownFlags)
	}
	var trc []byte
	if flags&flagTrace != 0 {
		trc = t.tbuf[:]
		if _, err := io.ReadFull(t.r, trc); err != nil {
			return 0, nil, nil, midFrame(err)
		}
		sc, _, err := trace.ParseWire(trc)
		if err != nil {
			// The rest of the frame is unread, so no aligned marker: the
			// connection is abandoned rather than resynchronized.
			return 0, nil, nil, corruptFrame(fmt.Errorf("%w: %v", ErrCorrupt, err))
		}
		t.rsc = sc
	}
	mlen, err := t.readHeaderUvarint()
	if err != nil {
		return 0, nil, nil, err
	}
	if mlen > maxMethod {
		return 0, nil, nil, corruptFrame(errMethodLen)
	}
	if uint64(cap(t.mbuf)) < mlen {
		t.mbuf = make([]byte, mlen)
	}
	mbuf := t.mbuf[:mlen]
	if _, err := io.ReadFull(t.r, mbuf); err != nil {
		return 0, nil, nil, midFrame(err)
	}
	plen, err := t.readHeaderUvarint()
	if err != nil {
		return 0, nil, nil, err
	}
	if plen > maxFrame {
		return 0, nil, nil, corruptFrame(errFrameLen)
	}
	sum := t.rsum[:]
	if _, err := io.ReadFull(t.r, sum); err != nil {
		return 0, nil, nil, midFrame(err)
	}
	compressed := flags&flagCompressed != 0
	var pbuf []byte
	if t.owned || compressed {
		// Wire bytes are scratch: either the frame is consumed in place
		// (owned) or decompression copies out of them below.
		if uint64(cap(t.rbuf)) < plen {
			t.rbuf = make([]byte, plen)
		}
		pbuf = t.rbuf[:plen]
	} else {
		pbuf = make([]byte, plen)
	}
	if _, err := io.ReadFull(t.r, pbuf); err != nil {
		return 0, nil, nil, midFrame(err)
	}
	if frameSum(trc, mbuf, pbuf) != binary.LittleEndian.Uint64(sum) {
		// The whole frame was consumed before verification failed, so the
		// stream is still aligned.
		return 0, nil, nil, aligned(corruptFrame(errSumMismatch))
	}
	t.stats.wireBytes.Add(int64(len(pbuf)))
	tmWireBytes.Add(int64(len(pbuf)))
	if compressed {
		if t.eng == nil && t.actrl == nil {
			return 0, nil, nil, aligned(corruptFrame(fmt.Errorf("%w: compressed frame on uncompressed transport", ErrCorrupt)))
		}
		dst := []byte(nil)
		if t.owned {
			dst = t.dbuf[:0]
		}
		sp := t.cur.Child("rpc.decompress") // zero handle when untraced
		t.stages.Bind(sp)
		t0 := time.Now()
		var out []byte
		var err error
		if t.actrl != nil {
			var h *adaptive.Handle
			if h, err = t.adaptiveHandle(mbuf); err == nil {
				out, err = h.Decompress(dst, pbuf)
			}
		} else {
			out, err = t.eng.Decompress(dst, pbuf)
		}
		ns := time.Since(t0).Nanoseconds()
		t.stats.decompressNS.Add(ns)
		tmDecompNS.Add(ns)
		t.stages.Finish()
		if err != nil {
			sp.End()
			// codec decode errors wrap codec.ErrCorrupt; the frame itself
			// was consumed, so the connection stays aligned.
			return 0, nil, nil, aligned(corruptFrame(err))
		}
		sp.SetInt("wire", int64(len(pbuf))).SetInt("raw", int64(len(out))).End()
		if t.owned {
			t.dbuf = out
		}
		pbuf = out
	}
	t.stats.rawBytes.Add(int64(len(pbuf)))
	tmRawBytes.Add(int64(len(pbuf)))
	return flags, mbuf, pbuf, nil
}

// EncodeFrame renders one uncompressed frame to bytes — the writer half of
// the wire format, exposed for fuzzing and tests.
func EncodeFrame(flags byte, method string, payload []byte) []byte {
	tm()
	var buf bytes.Buffer
	t := &transport{w: bufio.NewWriter(&buf), min: int(^uint(0) >> 1)}
	if err := t.writeFrame(flags, []byte(method), payload); err != nil {
		// A bytes.Buffer write cannot fail; a failure here is a programming
		// error in the frame writer itself.
		panic(err)
	}
	return buf.Bytes()
}

// EncodeFrameWithTrace renders one uncompressed frame carrying a wire trace
// context — the flagTrace variant of EncodeFrame, exposed for fuzz seeding
// and frame-format tests. An invalid sc encodes a plain frame.
func EncodeFrameWithTrace(flags byte, method string, payload []byte, sc trace.SpanContext) []byte {
	tm()
	var buf bytes.Buffer
	t := &transport{w: bufio.NewWriter(&buf), min: int(^uint(0) >> 1)}
	t.wsc = sc
	if err := t.writeFrame(flags, []byte(method), payload); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// ParseFrame decodes one frame from data with no codec configured — the
// parser half of the wire format, exposed for fuzzing and tests. Arbitrary
// input must yield an error, never a panic.
func ParseFrame(data []byte) (flags byte, method, payload []byte, err error) {
	flags, method, payload, _, err = ParseFrameTrace(data)
	return flags, method, payload, err
}

// ParseFrameTrace is ParseFrame plus the frame's wire trace context (the
// zero SpanContext when the frame carried none).
func ParseFrameTrace(data []byte) (flags byte, method, payload []byte, sc trace.SpanContext, err error) {
	tm()
	t := &transport{r: bufio.NewReader(bytes.NewReader(data))}
	flags, method, payload, err = t.readFrame()
	return flags, method, payload, t.rsc, err
}
