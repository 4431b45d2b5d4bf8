package rpc

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"github.com/datacomp/datacomp/internal/trace"
)

// RemoteError is a handler-side failure relayed to the caller. It proves
// the transport worked end to end, so it never trips the circuit breaker
// and is never retried.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return e.Msg }

// ErrCircuitOpen is returned by Call when the per-connection circuit
// breaker is open: recent calls failed at the transport layer, and the
// cooldown has not elapsed.
var ErrCircuitOpen = errors.New("rpc: circuit breaker open")

// ErrClientClosed is returned by Call after Close.
var ErrClientClosed = errors.New("rpc: client closed")

// RetryPolicy configures automatic retries of failed calls. Only transport
// failures retry (RemoteError means the request was executed); only
// methods the Idempotent predicate approves retry, because a transport
// error leaves it unknown whether the server ran the request.
type RetryPolicy struct {
	// Max is the number of retries after the initial attempt.
	Max int
	// Backoff is the delay before the first retry, doubling each retry
	// (default 10ms).
	Backoff time.Duration
	// MaxBackoff caps the doubling (default 1s).
	MaxBackoff time.Duration
	// Idempotent reports whether a method is safe to re-execute. Nil
	// disables retries entirely.
	Idempotent func(method string) bool
}

func (p *RetryPolicy) fill() {
	if p.Backoff <= 0 {
		p.Backoff = 10 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = time.Second
	}
}

// delay returns the backoff before retry number n (1-based), deterministic
// exponential growth capped at MaxBackoff.
func (p *RetryPolicy) delay(n int) time.Duration {
	d := p.Backoff
	for i := 1; i < n; i++ {
		d *= 2
		if d >= p.MaxBackoff {
			return p.MaxBackoff
		}
	}
	if d > p.MaxBackoff {
		return p.MaxBackoff
	}
	return d
}

// BreakerPolicy configures the per-connection circuit breaker: after
// Threshold consecutive transport failures the breaker opens and calls
// fail fast with ErrCircuitOpen until Cooldown elapses, after which a
// single probe call is let through (half-open).
type BreakerPolicy struct {
	// Threshold is the consecutive-failure count that opens the breaker;
	// 0 disables it.
	Threshold int
	// Cooldown is how long the breaker stays open (default 1s).
	Cooldown time.Duration
}

func (p *BreakerPolicy) fill() {
	if p.Cooldown <= 0 {
		p.Cooldown = time.Second
	}
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithRetry enables automatic retries per policy.
func WithRetry(p RetryPolicy) ClientOption {
	return func(c *Client) { p.fill(); c.retry = p }
}

// WithBreaker enables the per-connection circuit breaker.
func WithBreaker(p BreakerPolicy) ClientOption {
	return func(c *Client) { p.fill(); c.breaker = p }
}

// WithRedial installs a dialer used to replace the connection after a
// transport failure desynchronizes it. Without one, a desynced client
// fails all subsequent calls.
func WithRedial(dial func(ctx context.Context) (io.ReadWriter, error)) ClientOption {
	return func(c *Client) { c.redial = dial }
}

// WithTracer enables request tracing: sampled calls get an "rpc.call" span
// (a child of the context's active span, or a new root), the frame carries
// the span context so the server's half stitches under it, and retries and
// breaker rejections surface as span events. A nil tracer is a no-op.
func WithTracer(tr *trace.Tracer) ClientOption {
	return func(c *Client) { c.tracer = tr }
}

// Client issues calls over one connection. Safe for concurrent use; calls
// are serialized.
type Client struct {
	comp    Compression
	retry   RetryPolicy
	breaker BreakerPolicy
	redial  func(ctx context.Context) (io.ReadWriter, error)
	tracer  *trace.Tracer
	now     func() time.Time // injectable for breaker tests

	mu     sync.Mutex
	t      *transport
	conn   io.ReadWriter
	closed bool
	broken bool // stream desynced; conn unusable until redial
	folded counters

	fails     int // consecutive transport failures (breaker input)
	openUntil time.Time

	// The cancellation watch: one context.AfterFunc per distinct Done
	// channel, kept until Close or until a call arrives on another channel.
	// wmu orders the callback against call entry and exit, and against a
	// redial swapping conn; it is never held across I/O, so the callback
	// does not wait behind a call holding mu.
	wmu      sync.Mutex
	wdone    <-chan struct{} // Done channel the watch is registered for
	wstop    func() bool     // unregisters it
	inflight <-chan struct{} // Done channel of the call in flight on conn, nil when none
	watches  int             // registrations made, for tests
}

// NewClient wraps an established connection. Both ends must use the same
// Compression configuration.
func NewClient(conn io.ReadWriter, comp Compression, opts ...ClientOption) (*Client, error) {
	comp.fill()
	c := &Client{comp: comp, conn: conn, now: time.Now}
	for _, o := range opts {
		o(c)
	}
	t, err := newTransport(conn, comp)
	if err != nil {
		return nil, err
	}
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

// Stats returns the client's traffic counters, including traffic on
// connections since replaced by redials. Safe to call concurrently with
// in-flight Calls.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	var agg counters
	c.folded.foldInto(&agg)
	c.t.stats.foldInto(&agg)
	c.mu.Unlock()
	return agg.snapshot()
}

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
// connection is a net.Conn; transport failures on idempotent methods retry
// with exponential backoff per the client's RetryPolicy. The request is
// coded once, whatever the retries.
func (c *Client) AppendCall(ctx context.Context, dst []byte, method string, req []byte) ([]byte, error) {
	return c.appendCall(ctx, dst, method, req, nil)
}

// AppendCallBody is AppendCall for a request already coded by a Coder with
// this client's Compression: the frame carries the Body's bytes as they
// are, so a request sent to several peers is coded once. It fails without
// sending when the Body was coded for another Compression.
func (c *Client) AppendCallBody(ctx context.Context, dst []byte, b *Body) ([]byte, error) {
	if b.comp != c.comp {
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

// callLocked runs the breaker gate, codes req when no body is given, and
// runs the retry loop under c.mu. Every attempt sends the one body and
// appends to dst afresh.
func (c *Client) callLocked(ctx context.Context, dst []byte, method string, req []byte, body *Body, span trace.SpanHandle) ([]byte, error) {
	if err := c.gate(); err != nil {
		span.Event("rpc.breaker_fastfail")
		return nil, err
	}
	if body == nil {
		c.t.wmethod = append(c.t.wmethod[:0], method...)
		b, err := c.t.code(c.t.wmethod, req, span)
		if err != nil {
			return nil, err
		}
		body = &b
	}

	retryable := c.retry.Max > 0 && c.retry.Idempotent != nil && c.retry.Idempotent(method)
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			tmDeadline.Inc()
			return nil, err
		}
		if attempt > 0 {
			tmRetries.Inc()
			span.Event("rpc.retry").SetInt("attempt", int64(attempt))
			if err := sleepCtx(ctx, c.retry.delay(attempt)); err != nil {
				tmDeadline.Inc()
				return nil, err
			}
		}
		if c.broken {
			if err := c.redialLocked(ctx); err != nil {
				lastErr = err
				c.recordFailure()
				if !retryable || attempt >= c.retry.Max {
					return nil, lastErr
				}
				continue
			}
		}
		resp, err := c.attempt(ctx, dst, method, body, span)
		if err == nil {
			c.recordSuccess()
			return resp, nil
		}
		var re *RemoteError
		if errors.As(err, &re) {
			// The transport delivered both frames; only the handler failed.
			c.recordSuccess()
			return nil, err
		}
		c.recordFailure()
		if c.fails == c.breaker.Threshold && c.breaker.Threshold > 0 {
			span.Event("rpc.breaker_open")
		}
		lastErr = err
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, lastErr
		}
		if !retryable || attempt >= c.retry.Max {
			return nil, lastErr
		}
		if c.broken && c.redial == nil {
			return nil, lastErr // nothing left to retry on
		}
	}
}

// gate enforces the circuit breaker at call entry: open → fast fail;
// cooldown elapsed → allow one half-open probe.
func (c *Client) gate() error {
	if c.breaker.Threshold <= 0 || c.fails < c.breaker.Threshold {
		return nil
	}
	if c.now().Before(c.openUntil) {
		tmBreakerFastFail.Inc()
		return ErrCircuitOpen
	}
	return nil // half-open probe
}

func (c *Client) recordSuccess() { c.fails = 0 }

func (c *Client) recordFailure() {
	c.fails++
	if c.breaker.Threshold > 0 && c.fails >= c.breaker.Threshold {
		if c.fails == c.breaker.Threshold {
			tmBreakerOpen.Inc()
		}
		c.openUntil = c.now().Add(c.breaker.Cooldown)
	}
}

// redialLocked replaces a desynced connection via the configured dialer,
// folding the dead transport's stats into the client total.
func (c *Client) redialLocked(ctx context.Context) error {
	if c.redial == nil {
		return errors.New("rpc: connection desynchronized and no redialer configured")
	}
	conn, err := c.redial(ctx)
	if err != nil {
		return err
	}
	t, err := newTransport(conn, c.comp)
	if err != nil {
		return err
	}
	c.t.stats.foldInto(&c.folded)
	c.t.release()
	c.t = t
	c.wmu.Lock() // the watch callback reads conn
	c.conn = conn
	c.wmu.Unlock()
	c.broken = false
	return nil
}

// attempt performs one request/response exchange with ctx deadlines armed
// on the connection, and marks the client broken when the error leaves the
// stream position unknown. A traced attempt stages the span context onto
// the request frame and parents the transport's codec spans.
func (c *Client) attempt(ctx context.Context, dst []byte, method string, body *Body, span trace.SpanHandle) ([]byte, error) {
	if nc, ok := c.conn.(net.Conn); ok {
		c.enter(ctx, nc)
		defer c.exit(nc)
	}
	if span.Valid() {
		c.t.cur = span
		c.t.wsc = span.Context()
	}
	resp, err := c.exchange(ctx, dst, method, body)
	c.t.cur = trace.SpanHandle{}
	c.t.wsc = trace.SpanContext{}
	return resp, err
}

func (c *Client) exchange(ctx context.Context, dst []byte, method string, body *Body) ([]byte, error) {
	c.t.wmethod = append(c.t.wmethod[:0], method...)
	if err := c.t.writeBody(0, c.t.wmethod, body); err != nil {
		c.broken = true
		return nil, c.ctxErr(ctx, err)
	}
	flags, _, resp, err := c.t.readFrame(dst)
	if err != nil {
		if !isAligned(err) {
			c.broken = true
		}
		return nil, c.ctxErr(ctx, err)
	}
	c.t.stats.calls.Add(1)
	tmCalls.Inc()
	if flags&flagError != 0 {
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

// enter projects ctx onto nc for one attempt: the deadline is set up front,
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

// exit ends the attempt's projection. Clearing the deadline under wmu, with
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
		c.conn.(net.Conn).SetDeadline(pastDeadline)
	}
}

// sleepCtx sleeps for d or until ctx is done, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
