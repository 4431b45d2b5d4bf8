package rpc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/datacomp/datacomp/internal/trace"
)

// HandlerFunc serves one method: it receives the request's context and
// payload and returns the response payload. When the inbound frame carried
// a sampled trace context and the server has a tracer, ctx carries the
// request's server-half span, so everything the handler calls through
// context-aware codec paths lands in the trace. Handlers that ignore the
// context can wrap a plain func with Func.
type HandlerFunc func(ctx context.Context, req []byte) ([]byte, error)

// Func adapts a context-free function to a HandlerFunc, for handlers whose
// work has no cancelable or traceable substeps.
func Func(h func(req []byte) ([]byte, error)) HandlerFunc {
	return func(_ context.Context, req []byte) ([]byte, error) { return h(req) }
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithShedThreshold enables load shedding: while more than n requests are
// in flight across the server's connections, responses skip compression
// and go out as raw payloads. Compression is the serving path's main CPU
// cost, so shedding it converts an overloaded server into a
// more-bytes-but-alive one instead of a queue collapse. 0 disables.
func WithShedThreshold(n int) ServerOption {
	return func(s *Server) { s.shedAt = int64(n) }
}

// WithServerTracer enables server-side tracing: requests whose frame
// carries a sampled trace context get an "rpc.serve" span recorded as the
// local half of the caller's trace (stitched by trace ID at export). A nil
// tracer is a no-op.
func WithServerTracer(tr *trace.Tracer) ServerOption {
	return func(s *Server) { s.tracer = tr }
}

// Server dispatches method handlers over any number of connections.
type Server struct {
	comp     Compression
	shedAt   int64 // inflight threshold; 0 = never shed
	tracer   *trace.Tracer
	inflight atomic.Int64

	mu       sync.RWMutex
	handlers map[string]HandlerFunc
	live     map[*transport]struct{}
	closed   counters
}

// NewServer builds a server with the given transport compression.
func NewServer(comp Compression, opts ...ServerOption) *Server {
	s := &Server{
		comp:     comp,
		handlers: make(map[string]HandlerFunc),
		live:     make(map[*transport]struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Register installs the handler for method. Every handler is ctx-first;
// wrap context-free functions with Func.
func (s *Server) Register(method string, h HandlerFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = h
}

// shedding reports whether response compression should be skipped right
// now. Called by the transport on every response write.
func (s *Server) shedding() bool {
	return s.shedAt > 0 && s.inflight.Load() > s.shedAt
}

// Serve accepts connections until the listener closes. Each connection is
// served under ctx; when ctx ends, in-flight connections unblock.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go func() {
			_ = s.ServeConn(ctx, conn)
			conn.Close()
		}()
	}
}

// ServeConn handles one connection until EOF, a transport error, or ctx
// ending. A corrupt inbound frame terminates the connection with an error
// wrapping ErrCorrupt — the server never acts on unverified bytes.
func (s *Server) ServeConn(ctx context.Context, conn io.ReadWriter) error {
	if ctx == nil {
		ctx = context.Background()
	}
	t, err := newTransport(conn, s.comp, s.tracer)
	if err != nil {
		return err
	}
	t.owned = true // frames are consumed within the loop iteration
	t.shed = s.shedding
	s.mu.Lock()
	s.live[t] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.live, t)
		s.mu.Unlock()
		t.stats.foldInto(&s.closed)
		t.release()
	}()
	if ctx.Done() != nil {
		// Unblock the serve loop when ctx ends: force past read AND write
		// deadlines on net conns (a response flush can be mid-write into a
		// pipe whose client already gave up), or close anything closable.
		stop := context.AfterFunc(ctx, func() {
			if nc, ok := conn.(net.Conn); ok {
				nc.SetReadDeadline(time.Unix(1, 0))
				nc.SetWriteDeadline(time.Unix(1, 0))
			} else if cl, ok := conn.(io.Closer); ok {
				cl.Close()
			}
		})
		defer stop()
	}
	for {
		_, method, req, err := t.readFrame()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.inflight.Add(1)
		// A sampled inbound trace context opens this request's server-half
		// span; the handler sees it via ctx, and the response-compress span
		// nests under it through t.cur.
		hctx := ctx
		var serve trace.SpanHandle
		if t.rsc.Valid() {
			hctx, serve = s.tracer.StartRemote(ctx, "rpc.serve", t.rsc)
			serve.SetStr("method", string(method))
			t.cur = serve
		}
		s.mu.RLock()
		h, ok := s.handlers[string(method)] // map lookup does not allocate
		s.mu.RUnlock()
		var resp []byte
		flags := byte(0)
		if !ok {
			flags = flagError
			resp = []byte(fmt.Sprintf("rpc: unknown method %q", method))
		} else if resp, err = h(hctx, req); err != nil {
			flags = flagError
			resp = []byte(err.Error())
		}
		t.stats.calls.Add(1)
		tmCalls.Inc()
		err = t.writeFrame(flags, method, resp)
		if serve.Valid() {
			if flags&flagError != 0 {
				serve.SetStr("error", string(resp))
			}
			serve.End()
			t.cur = trace.SpanHandle{}
		}
		s.inflight.Add(-1)
		if err != nil {
			return err
		}
	}
}

// Stats returns aggregate server-side traffic, including connections still
// in flight — the live view a telemetry scrape needs.
func (s *Server) Stats() Stats {
	var agg counters
	s.closed.foldInto(&agg)
	s.mu.RLock()
	for t := range s.live {
		t.stats.foldInto(&agg)
	}
	s.mu.RUnlock()
	return agg.snapshot()
}
