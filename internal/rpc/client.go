package rpc

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"github.com/datacomp/datacomp/internal/trace"
)

// RemoteError is a handler-side failure relayed to the caller. It proves
// the transport worked end to end: the connection stays usable.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return e.Msg }

// ErrBroken is returned by a call on a client whose connection lost frame
// alignment: an earlier call failed mid-frame, so where the next frame
// starts is unknown. The client sends nothing more; close it and dial
// again.
var ErrBroken = errors.New("rpc: connection desynchronized")

// ErrClientClosed is returned by Call after Close.
var ErrClientClosed = errors.New("rpc: client closed")

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithTracer enables request tracing: sampled calls get an "rpc.call" span
// (a child of the context's active span, or a new root), and the frame
// carries the span context so the server's half stitches under it. A nil
// tracer is a no-op.
func WithTracer(tr *trace.Tracer) ClientOption {
	return func(c *Client) { c.tracer = tr }
}

// WithDictResolver gives the client the dictionaries its replies may be
// coded against (Server.RegisterAppendDict): resolve returns the bytes of
// the dictionary with a zstd.DictID, or nil when it holds none, and the
// call then fails with UnknownDictError. The client asks once per
// dictionary it switches to; resolve must be safe for concurrent use when
// it serves several clients.
func WithDictResolver(resolve func(id uint32) []byte) ClientOption {
	return func(c *Client) { c.resolve = resolve }
}

// Client issues calls over one connection, one request/response exchange
// per call. Safe for concurrent use; calls are serialized.
type Client struct {
	tracer  *trace.Tracer
	resolve func(id uint32) []byte
	conn    io.ReadWriter
	nc      net.Conn // conn when it is a net.Conn, whose deadlines a call arms; asserted once, not per call
	t       *transport

	mu     sync.Mutex
	closed bool
	broken bool // stream desynced: later calls fail with ErrBroken

	// The cancellation watch: one context.AfterFunc per distinct Done
	// channel, kept until Close or until a call arrives on another channel.
	// wmu orders the callback against call entry and exit; it is never held
	// across I/O, so the callback does not wait behind a call holding mu.
	wmu      sync.Mutex
	wdone    <-chan struct{} // Done channel the watch is registered for
	wstop    func() bool     // unregisters it
	inflight <-chan struct{} // Done channel of the call in flight on conn, nil when none
	watches  int             // registrations made, for tests
}

// NewClient wraps an established connection. Both ends must use the same
// Compression configuration.
func NewClient(conn io.ReadWriter, comp Compression, opts ...ClientOption) (*Client, error) {
	c := &Client{conn: conn}
	c.nc, _ = conn.(net.Conn)
	for _, o := range opts {
		o(c)
	}
	t, err := newTransport(conn, comp)
	if err != nil {
		return nil, err
	}
	t.replies, t.dicts = true, acceptAll(c.resolve)
	t.stats = new(counters)
	t.Coder.stats = t.stats
	c.t = t
	return c, nil
}

// Close releases the client's pooled engine. The underlying connection is
// the caller's to close. Calls after Close fail with ErrClientClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	c.t.release()
	c.wmu.Lock()
	if c.wstop != nil {
		c.wstop()
		c.wstop, c.wdone = nil, nil
	}
	c.wmu.Unlock()
	return nil
}

// Stats returns the client's traffic counters. Safe to call concurrently
// with in-flight Calls.
func (c *Client) Stats() Stats { return c.t.stats.snapshot() }

// Call sends a request and waits for its response, returned in a fresh
// slice: AppendCall(ctx, nil, method, req).
func (c *Client) Call(ctx context.Context, method string, req []byte) ([]byte, error) {
	return c.AppendCall(ctx, nil, method, req)
}

// AppendCall sends a request, waits for its response and appends it to dst:
// a compressed response is decompressed onto dst, an uncompressed one read
// straight into its tail, so a caller that reuses dst pays no allocation
// per call once it is large enough. dst's spare capacity is overwritten, so
// it must not hold req. On error it returns dst unchanged. The context's
// deadline and cancellation propagate into the connection I/O when the
// connection is a net.Conn. A failure that leaves the stream position
// unknown breaks the client: later calls fail with ErrBroken.
func (c *Client) AppendCall(ctx context.Context, dst []byte, method string, req []byte) ([]byte, error) {
	return c.appendCall(ctx, dst, method, req, nil)
}

// AppendCallBody is AppendCall for a request already coded by a Coder with
// this client's Compression: the frame carries the Body's bytes as they
// are, so a request sent to several peers is coded once. It fails without
// sending when the Body was coded for another Compression.
func (c *Client) AppendCallBody(ctx context.Context, dst []byte, b *Body) ([]byte, error) {
	if b.comp != c.t.comp {
		return dst, errBodyCompression
	}
	return c.appendCall(ctx, dst, b.method, nil, b)
}

// appendCall sends body, or req coded by the client's own transport when
// body is nil.
func (c *Client) appendCall(ctx context.Context, dst []byte, method string, req []byte, body *Body) ([]byte, error) {
	if method == "" {
		return dst, errors.New("rpc: empty method")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return dst, ErrClientClosed
	}
	ctx, span := c.traceCall(ctx, method)
	t0 := time.Now()
	resp, err := c.callLocked(ctx, dst, method, req, body, span)
	tmCallNS.ObserveTraced(time.Since(t0).Nanoseconds(), uint64(span.TraceID()))
	if span.Valid() {
		if err != nil {
			span.SetStr("error", err.Error())
		}
		span.End()
	}
	if err != nil {
		return dst, err
	}
	return resp, nil
}

// traceCall opens the call's span: a child of the context's active span
// when the caller is already traced, else a fresh root if this client's
// tracer samples the call. Untraced calls get a zero handle and zero cost.
func (c *Client) traceCall(ctx context.Context, method string) (context.Context, trace.SpanHandle) {
	parent := trace.FromContext(ctx)
	var span trace.SpanHandle
	if parent.Valid() {
		span = parent.Child("rpc.call")
	} else if c.tracer.Enabled() {
		ctx, span = c.tracer.StartRoot(ctx, "rpc.call")
	}
	if !span.Valid() {
		return ctx, span
	}
	span.SetStr("method", method)
	return trace.ContextWith(ctx, span), span
}

// callLocked codes req when no body is given and runs the one exchange
// under c.mu.
func (c *Client) callLocked(ctx context.Context, dst []byte, method string, req []byte, body *Body, span trace.SpanHandle) ([]byte, error) {
	if c.broken {
		return nil, ErrBroken
	}
	if err := ctx.Err(); err != nil {
		tmDeadline.Inc()
		return nil, err
	}
	c.t.wmethod = append(c.t.wmethod[:0], method...)
	if body == nil {
		b, err := c.t.code(req, span)
		if err != nil {
			return nil, err
		}
		body = &b
	}
	return c.exchange(ctx, dst, body, span)
}

// exchange writes the request frame for the method in c.t.wmethod and reads
// the reply with ctx's deadline armed on the connection, and marks the
// client broken when the error leaves the stream position unknown. A traced
// call stages the span context onto the request frame and parents the
// transport's codec spans.
func (c *Client) exchange(ctx context.Context, dst []byte, body *Body, span trace.SpanHandle) ([]byte, error) {
	if nc := c.nc; nc != nil {
		c.enter(ctx, nc)
		defer c.exit(nc)
	}
	if span.Valid() {
		c.t.cur = span
		c.t.wsc = span.Context()
		defer func() { c.t.cur, c.t.wsc = trace.SpanHandle{}, trace.SpanContext{} }()
	}
	if err := c.t.writeBody(0, c.t.wmethod, body); err != nil {
		c.broken = true
		return nil, c.ctxErr(ctx, err)
	}
	flags, _, resp, _, err := c.t.readFrame(dst)
	if err != nil {
		if !isAligned(err) {
			c.broken = true
		}
		return nil, c.ctxErr(ctx, err)
	}
	c.t.stats.calls.Add(1)
	tmCalls.Inc()
	if flags&flagError != 0 {
		if flags&flagDict != 0 { // readFrame checked the payload is an ID
			return nil, &UnknownDictError{ID: binary.LittleEndian.Uint32(resp[len(dst):]), Request: true}
		}
		return nil, &RemoteError{Msg: string(resp[len(dst):])}
	}
	return resp, nil
}

// ctxErr prefers the context's verdict over the raw I/O error: a deadline
// firing surfaces as a net timeout on the connection, but the caller asked
// in context terms and gets the answer in context terms.
func (c *Client) ctxErr(ctx context.Context, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		tmDeadline.Inc()
		return ctxErr
	}
	// A connection timeout can fire a beat before the context's own timer:
	// the conn deadline was armed from ctx, so the timeout IS the deadline.
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		if _, ok := ctx.Deadline(); ok {
			tmDeadline.Inc()
			return context.DeadlineExceeded
		}
	}
	return err
}

// pastDeadline is the deadline that fails a blocked read or write at once.
var pastDeadline = time.Unix(1, 0)

// enter projects ctx onto nc for one call: the deadline is set up front,
// and the call is marked in flight on ctx's Done channel so that channel's
// watch can force a past deadline if ctx ends mid-call. The watch is
// registered only when the channel differs from the last call's, so a
// caller reusing one context pays for it once. Non-net connections (pipes,
// buffers) get no projection — callers there rely on ctx checks between
// operations.
func (c *Client) enter(ctx context.Context, nc net.Conn) {
	done := ctx.Done()
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if d, ok := ctx.Deadline(); ok {
		nc.SetDeadline(d)
	}
	if done == nil {
		return
	}
	if done != c.wdone {
		if c.wstop != nil {
			c.wstop()
		}
		c.wdone, c.wstop = done, context.AfterFunc(ctx, func() { c.cancelled(done) })
		c.watches++
	}
	c.inflight = done
	// A watch that fired while no call was in flight did nothing, and will
	// not fire again: a context already over sets the past deadline here.
	if ctx.Err() != nil {
		nc.SetDeadline(pastDeadline)
	}
}

// exit ends the call's projection. Clearing the deadline under wmu, with
// the call no longer in flight, means a watch callback either ran before the
// clear or finds nothing to do: a late callback never poisons the next call.
func (c *Client) exit(nc net.Conn) {
	c.wmu.Lock()
	c.inflight = nil
	nc.SetDeadline(time.Time{})
	c.wmu.Unlock()
}

// cancelled is the watch callback for done: it wakes the call in flight,
// if that call is on done.
func (c *Client) cancelled(done <-chan struct{}) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.inflight == done {
		c.nc.SetDeadline(pastDeadline)
	}
}
