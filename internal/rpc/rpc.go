// Package rpc is a service-to-service RPC transport with transparent
// per-message compression — the setting of the paper's introduction, where
// datacenter services exchange objects over RPC and compression trades CPU
// cycles for network bytes.
//
// Messages are length-delimited binary frames carrying an XXH64 integrity
// checksum over method and payload; payloads of at least MinSize bytes are
// compressed with the configured codec and flagged, so the
// peer decompresses only what was actually compressed (small messages skip
// the codec entirely, as fleet services do). The serving path is hardened
// for production failure modes: corrupt frames surface as ErrCorrupt (never
// a panic or a silently wrong payload), Client.Call takes a context whose
// deadline propagates into the connection, and a client whose stream lost
// frame alignment refuses further calls with ErrBroken, so its caller dials
// a fresh connection. Recovery beyond that is the caller's: the cluster
// answers a failed replica call with quorum and a fresh client.
//
// Both ends account raw vs wire bytes and codec time in the shared
// telemetry registry; a client also keeps its own share. Transports draw
// engines from a codec.Pool keyed by configuration, so connection churn
// does not pay engine construction.
package rpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/telemetry"
	"github.com/datacomp/datacomp/internal/trace"
	"github.com/datacomp/datacomp/internal/xxhash"
	"github.com/datacomp/datacomp/internal/zstd"
)

// Compression configures the transport's codec.
type Compression struct {
	// Codec names a registered codec; empty disables compression.
	Codec string
	// Level is the codec level (0 = codec default).
	Level int
	// Checksum additionally frames codec payloads with a content checksum
	// (codec.WithChecksum), verifying decompressed bytes end to end on top
	// of the always-on wire-frame checksum.
	Checksum bool
}

// MinSize is the smallest payload a compressed link codes; smaller ones
// travel raw, as fleet services skip the codec for small messages.
const MinSize = 256

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
	errDictFlags    = fmt.Errorf("%w: dictionary flag on a method that takes none, or with another coding", ErrCorrupt)
	errDictFrame    = fmt.Errorf("%w: dictionary-coded payload names no dictionary", ErrCorrupt)
)

// UnknownDictError fails a call coded against a dictionary one end does not
// hold: its reply, against one the client's resolver (WithDictResolver)
// lacks, or, with Request set, its request, against one the server's
// (Server.RegisterCodedDict) lacks. Either frame was read and verified
// whole, so the connection stays usable: a caller that obtains the
// dictionary, or gives it to the server, can call again.
type UnknownDictError struct {
	ID      uint32
	Request bool
}

func (e *UnknownDictError) Error() string {
	if e.Request {
		return fmt.Sprintf("rpc: request coded against dictionary %08x, which the server does not hold", e.ID)
	}
	return fmt.Sprintf("rpc: reply coded against unknown dictionary %08x", e.ID)
}

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
	DictFrames     int64 // frames coded against a dictionary (flagDict), sent or received
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
	dictFrames   atomic.Int64
	compressNS   atomic.Int64
	decompressNS atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Calls:          c.calls.Load(),
		RawBytes:       c.rawBytes.Load(),
		WireBytes:      c.wireBytes.Load(),
		DictFrames:     c.dictFrames.Load(),
		CompressTime:   time.Duration(c.compressNS.Load()),
		DecompressTime: time.Duration(c.decompressNS.Load()),
	}
}

// Package-level telemetry on the shared registry, registered at package
// initialisation. Both ends of every link in the process count here; a
// Client's Stats keep its own share as well.
var (
	tmCalls      = telemetry.Default.Counter("rpc_calls_total", "completed RPC calls")
	tmRawBytes   = telemetry.Default.Counter("rpc_raw_bytes_total", "payload bytes before compression")
	tmWireBytes  = telemetry.Default.Counter("rpc_wire_bytes_total", "payload bytes on the wire")
	tmCompNS     = telemetry.Default.Counter("rpc_compress_ns_total", "time compressing RPC payloads")
	tmDecompNS   = telemetry.Default.Counter("rpc_decompress_ns_total", "time decompressing RPC payloads")
	tmDictFrames = telemetry.Default.Counter("rpc_dict_frames_total", "frames coded against a dictionary, counted at both ends")
	tmFrameBytes = telemetry.Default.Histogram("rpc_wire_frame_bytes", "wire payload size per frame", "bytes")
	tmCallNS     = func() *telemetry.Histogram {
		h := telemetry.Default.Histogram("rpc_call_ns", "client call latency end to end", "ns")
		// Exemplars link a tail-latency bucket to the trace that landed there.
		h.EnableExemplars()
		return h
	}()
	tmCorrupt  = telemetry.Default.Counter("rpc_corrupt_frames_total", "frames failing integrity verification")
	tmDeadline = telemetry.Default.Counter("rpc_deadline_exceeded_total", "calls failed by context deadline or cancellation")
)

// Frame layout (v2, with the v2.1 trace extension):
//
//	flags   1 byte   (flagCompressed | flagError | flagTrace | flagDict;
//	                  anything else is corrupt)
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
//
// flagDict marks a payload that is a checksum-wrapped zstd frame
// (codec.WithChecksum) coded against the dictionary its header names. On a
// reply that is the server's own, which the client resolves by ID
// (Server.RegisterAppendDict, WithDictResolver); on a request, one the
// caller gave the server, which resolves it by ID for the methods
// registered with a resolver (Server.RegisterCodedDict, Coder.CodeDict) —
// on a request for any other method it is corrupt. It never rides with
// flagCompressed. A reply flagged flagError|flagDict says the server does
// not hold the request's dictionary: its payload is that dictionary's ID,
// 4 bytes little-endian, uncoded, and the client returns it as an
// UnknownDictError with Request set.
const (
	flagCompressed = 1 << 0
	flagError      = 1 << 1
	flagTrace      = 1 << 2
	flagDict       = 1 << 3

	flagsKnown = flagCompressed | flagError | flagTrace | flagDict
)

const (
	maxFrame    = 64 << 20
	maxMethod   = 4096
	frameSumLen = 8
)

// readStep is the most a frame's payload read allocates ahead of the bytes
// that have arrived: a header may claim up to maxFrame, and nothing is
// allocated on its word alone.
const readStep = 64 << 10

// transport frames and (de)compresses messages on one connection. Its Coder
// (engine, compression scratch) is single-goroutine (Client/Server
// serialize frame I/O). Only a client's transport keeps stats, which the
// Client reports and which are safe to read concurrently; a server's counts
// only into the process-wide counters.
//
// readFrame appends the payload to a buffer its caller owns — the server's
// request scratch, or the dst of Client.AppendCall — so the transport itself
// keeps only the method and compressed-wire scratch, and steady-state
// framing allocates nothing once those buffers are warm.
type transport struct {
	Coder
	// replies says this end reads replies (a client's). dicts says which
	// dictionaries a flagDict frame of a method may be coded against: ok
	// false makes such a frame corrupt, and resolve maps a dictionary ID to
	// its bytes (nil: unknown). A client's accepts every reply; a server's,
	// the requests of the methods registered with a resolver.
	replies bool
	dicts   func(method []byte) (resolve func(id uint32) []byte, ok bool)

	r       *bufio.Reader
	w       *bufio.Writer
	stats   *counters // nil on a server's transport
	mbuf    []byte    // method scratch (read side)
	rbuf    []byte    // compressed-payload scratch (read side)
	wmethod []byte    // method scratch (write side, avoids string→[]byte churn)

	// Tracing state. cur is the span the owner (a Client call or the
	// server request loop) is inside of; the frame codecs hang their
	// compress/decompress spans off it. wsc is the span context the next
	// outbound frame should carry; rsc is what the last inbound frame
	// carried. All single-goroutine, like the engine.
	cur  trace.SpanHandle
	wsc  trace.SpanContext
	rsc  trace.SpanContext
	tbuf [trace.WireLen]byte // wire trace-field scratch (both sides)

	// Header scratch: on the stack these would escape into the bufio calls
	// and cost a heap allocation per frame.
	whdr [binary.MaxVarintLen64]byte // length fields (write side)
	wsum [frameSumLen]byte           // frame checksum (write side)
	rsum [frameSumLen]byte           // frame checksum (read side)
}

func newTransport(conn io.ReadWriter, comp Compression) (*transport, error) {
	t := &transport{
		r: bufio.NewReader(conn),
		w: bufio.NewWriter(conn),
	}
	if err := t.init(comp); err != nil {
		return nil, err
	}
	return t, nil
}

// release returns the engine to its pool. Safe to call more than once.
func (t *transport) release() { t.Close() }

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

// writeBody is the one frame writer: flags, method and the body's wire
// bytes, stamped with the frame checksum and counted raw and wire. When a
// trace context is staged (t.wsc), the frame carries it and flags it; the
// context is consumed so response frames never echo it back.
func (t *transport) writeBody(flags byte, method []byte, b *Body) error {
	flags |= b.flags
	wire := b.wire
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
	if t.stats != nil { // a client's
		t.stats.rawBytes.Add(int64(b.raw))
		t.stats.wireBytes.Add(int64(len(wire)))
		if b.flags&flagDict != 0 {
			t.stats.dictFrames.Add(1)
		}
	}
	if b.flags&flagDict != 0 {
		tmDictFrames.Inc()
	}
	tmRawBytes.Add(int64(b.raw))
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

// readPayload appends the next n stream bytes to dst. It grows dst only as
// bytes arrive — by at most readStep ahead of them at first, then at most
// doubling — so a frame that claims more than it carries costs what it
// carried.
func (t *transport) readPayload(dst []byte, n int) ([]byte, error) {
	for end := len(dst) + n; len(dst) < end; {
		if len(dst) == cap(dst) {
			grown := make([]byte, len(dst), len(dst)+min(end-len(dst), max(cap(dst), readStep)))
			copy(grown, dst)
			dst = grown
		}
		k, err := io.ReadFull(t.r, dst[len(dst):min(end, cap(dst))])
		dst = dst[:len(dst)+k]
		if err != nil {
			return dst, midFrame(err)
		}
	}
	return dst, nil
}

// readFrame receives one message, verifying the frame checksum and
// decompressing as flagged, and appends its payload to dst: an uncompressed
// payload is read straight into dst's tail, a coded one is read into the
// transport's scratch and decoded onto dst. A frame coded against a
// dictionary this end cannot resolve fails with UnknownDictError, marked
// aligned like every error found after the whole frame was read. payload is dst
// extended; method aliases scratch valid until the next readFrame, and so
// does coding, a coded payload's verified wire bytes (nil for an
// uncompressed one). Stats count only the appended bytes.
func (t *transport) readFrame(dst []byte) (flags byte, method, payload, coding []byte, err error) {
	t.rsc = trace.SpanContext{}
	flags, err = t.r.ReadByte()
	if err != nil {
		return 0, nil, nil, nil, err // clean EOF between frames is a close
	}
	if flags&^flagsKnown != 0 {
		return 0, nil, nil, nil, corruptFrame(errUnknownFlags)
	}
	dictCoded := flags&flagDict != 0
	// A reply saying the server lacks the request's dictionary carries its
	// ID uncoded.
	dictRefused := dictCoded && flags&flagError != 0
	if dictCoded && (flags&flagCompressed != 0 || dictRefused && !t.replies) {
		return 0, nil, nil, nil, corruptFrame(errDictFlags)
	}
	if dictRefused {
		dictCoded = false
	}
	var trc []byte
	if flags&flagTrace != 0 {
		trc = t.tbuf[:]
		if _, err := io.ReadFull(t.r, trc); err != nil {
			return 0, nil, nil, nil, midFrame(err)
		}
		sc, _, err := trace.ParseWire(trc)
		if err != nil {
			// The rest of the frame is unread, so no aligned marker: the
			// connection is abandoned rather than resynchronized.
			return 0, nil, nil, nil, corruptFrame(fmt.Errorf("%w: %v", ErrCorrupt, err))
		}
		t.rsc = sc
	}
	mlen, err := t.readHeaderUvarint()
	if err != nil {
		return 0, nil, nil, nil, err
	}
	if mlen > maxMethod {
		return 0, nil, nil, nil, corruptFrame(errMethodLen)
	}
	if uint64(cap(t.mbuf)) < mlen {
		t.mbuf = make([]byte, mlen)
	}
	mbuf := t.mbuf[:mlen]
	if _, err := io.ReadFull(t.r, mbuf); err != nil {
		return 0, nil, nil, nil, midFrame(err)
	}
	plen, err := t.readHeaderUvarint()
	if err != nil {
		return 0, nil, nil, nil, err
	}
	if plen > maxFrame || dictRefused && plen != 4 {
		return 0, nil, nil, nil, corruptFrame(errFrameLen)
	}
	var resolve func(id uint32) []byte
	if dictCoded {
		ok := false
		if t.dicts != nil {
			resolve, ok = t.dicts(mbuf)
		}
		if !ok {
			return 0, nil, nil, nil, corruptFrame(errDictFlags)
		}
	}
	sum := t.rsum[:]
	if _, err := io.ReadFull(t.r, sum); err != nil {
		return 0, nil, nil, nil, midFrame(err)
	}
	compressed := flags&flagCompressed != 0
	base := len(dst)
	var wire []byte
	if compressed || dictCoded {
		wire, err = t.readPayload(t.rbuf[:0], int(plen))
		if cap(wire) <= maxKeptBuffer {
			t.rbuf = wire
		}
	} else {
		dst, err = t.readPayload(dst, int(plen))
		wire = dst[base:]
	}
	if err != nil {
		return 0, nil, nil, nil, err
	}
	if frameSum(trc, mbuf, wire) != binary.LittleEndian.Uint64(sum) {
		// The whole frame was consumed before verification failed, so the
		// stream is still aligned.
		return 0, nil, nil, nil, aligned(corruptFrame(errSumMismatch))
	}
	if t.stats != nil {
		t.stats.wireBytes.Add(int64(len(wire)))
	}
	tmWireBytes.Add(int64(len(wire)))
	if compressed || dictCoded {
		if compressed && t.eng == nil {
			return 0, nil, nil, nil, aligned(corruptFrame(fmt.Errorf("%w: compressed frame on uncompressed transport", ErrCorrupt)))
		}
		sp := t.cur.Child("rpc.decompress") // zero handle when untraced
		t0 := time.Now()
		var out []byte
		var err error
		if dictCoded {
			out, err = t.decompressDict(dst, wire, resolve)
		} else {
			out, err = t.eng.Decompress(dst, wire)
		}
		ns := time.Since(t0).Nanoseconds()
		if t.stats != nil {
			t.stats.decompressNS.Add(ns)
		}
		tmDecompNS.Add(ns)
		if err != nil {
			sp.End()
			// The frame itself was consumed, so the connection stays
			// aligned; codec decode errors wrap codec.ErrCorrupt.
			if _, unknown := err.(*UnknownDictError); !unknown {
				err = corruptFrame(err)
			}
			return 0, nil, nil, nil, aligned(err)
		}
		sp.SetInt("wire", int64(len(wire))).SetInt("raw", int64(len(out)-base)).End()
		dst = out
		if dictCoded {
			if t.stats != nil {
				t.stats.dictFrames.Add(1)
			}
			tmDictFrames.Inc()
		}
		coding = wire
	}
	if t.stats != nil {
		t.stats.rawBytes.Add(int64(len(dst) - base))
	}
	tmRawBytes.Add(int64(len(dst) - base))
	return flags, mbuf, dst, coding, nil
}

// decompressDict decodes a flagDict payload onto dst with an engine for the
// dictionary its zstd header names: the one the transport last decoded
// with, or else the one resolve returns, whose ID must match.
func (t *transport) decompressDict(dst, wire []byte, resolve func(id uint32) []byte) ([]byte, error) {
	inner, err := codec.ChecksumPayload(wire)
	if err != nil {
		return nil, err
	}
	id, named, err := zstd.FrameDictID(inner)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if !named {
		return nil, errDictFrame
	}
	if t.dec.eng == nil || t.dec.id != id {
		var d []byte
		if resolve != nil {
			d = resolve(id)
		}
		if d == nil || zstd.DictID(d) != id {
			return nil, &UnknownDictError{ID: id, Request: !t.replies}
		}
		if err := t.dec.use(Dict{Bytes: d, ID: id}); err != nil {
			return nil, err
		}
	}
	return t.dec.eng.Decompress(dst, wire)
}

// coded is a frame's coding, as readFrame returned it with its flags, as a
// handler may keep it (Coded): a flagDict payload is a zstd frame in a
// checksum frame whatever the link's Compression.
func (t *transport) coded(flags byte, coding []byte) Coded {
	switch {
	case coding == nil:
		return Coded{}
	case flags&flagDict != 0:
		return Coded{Codec: "zstd", Data: codec.StripChecksum(coding)}
	case t.comp.Checksum:
		coding = codec.StripChecksum(coding)
	}
	return Coded{Codec: t.comp.Codec, Data: coding}
}

// EncodeFrame renders one uncompressed frame to bytes — the writer half of
// the wire format, exposed for fuzzing and tests.
func EncodeFrame(flags byte, method string, payload []byte) []byte {
	return EncodeFrameWithTrace(flags, method, payload, trace.SpanContext{})
}

// EncodeFrameWithTrace renders one uncompressed frame carrying a wire trace
// context — the flagTrace variant of EncodeFrame, exposed for fuzz seeding
// and frame-format tests. An invalid sc encodes a plain frame.
func EncodeFrameWithTrace(flags byte, method string, payload []byte, sc trace.SpanContext) []byte {
	var buf bytes.Buffer
	t := &transport{w: bufio.NewWriter(&buf)}
	t.wsc = sc
	if err := t.writeBody(flags, []byte(method), &Body{raw: len(payload), wire: payload}); err != nil {
		// A bytes.Buffer write cannot fail; a failure here is a programming
		// error in the frame writer itself.
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

// ParseReplyFrame decodes one frame as a client reads a reply, with no link
// codec and dictionaries resolved by resolve — the parser half of the
// flagDict format, exposed for fuzzing and tests.
func ParseReplyFrame(data []byte, resolve func(id uint32) []byte) (flags byte, method, payload []byte, err error) {
	t := &transport{r: bufio.NewReader(bytes.NewReader(data)), replies: true, dicts: acceptAll(resolve)}
	flags, method, payload, _, err = t.readFrame(nil)
	return flags, method, payload, err
}

// ParseRequestFrame decodes one frame as a server reads a request, with no
// link codec and the dictionaries of every method resolved by resolve — the
// parser half of flagDict requests, exposed for fuzzing and tests. An error
// a server answers in place of the call (an UnknownDictError) comes back as
// it is.
func ParseRequestFrame(data []byte, resolve func(id uint32) []byte) (flags byte, method, payload []byte, err error) {
	t := &transport{r: bufio.NewReader(bytes.NewReader(data)), dicts: acceptAll(resolve)}
	flags, method, payload, _, err = t.readFrame(nil)
	return flags, method, payload, err
}

// acceptAll is a transport's dicts that takes flagDict frames of every
// method, resolved by resolve.
func acceptAll(resolve func(id uint32) []byte) func([]byte) (func(uint32) []byte, bool) {
	return func([]byte) (func(uint32) []byte, bool) { return resolve, true }
}

// ParseFrameTrace is ParseFrame plus the frame's wire trace context (the
// zero SpanContext when the frame carried none).
func ParseFrameTrace(data []byte) (flags byte, method, payload []byte, sc trace.SpanContext, err error) {
	t := &transport{r: bufio.NewReader(bytes.NewReader(data))}
	flags, method, payload, _, err = t.readFrame(nil)
	return flags, method, payload, t.rsc, err
}
