package rpc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/datacomp/datacomp/internal/trace"
)

// AppendHandlerFunc serves one method by appending its response payload to
// dst, the connection's reply buffer, and returning the extended slice. The
// server keeps what it returns — dst grown, or a slice the handler
// allocated — as the next request's dst, so a handler must never return
// memory it keeps or shares, req included. req aliases the connection's
// read scratch and is valid only until the handler returns. When the
// inbound frame carried a sampled trace context and the server has a
// tracer, ctx carries the request's server-half span, so everything the
// handler calls through context-aware codec paths lands in the trace.
type AppendHandlerFunc func(ctx context.Context, dst, req []byte) ([]byte, error)

// HandlerFunc serves one method with a response it builds itself: the
// server writes it and keeps nothing of it, so it may return req or memory
// it shares. Handlers that ignore the context can wrap a plain func with
// Func.
type HandlerFunc func(ctx context.Context, req []byte) ([]byte, error)

// Func adapts a context-free function to a HandlerFunc, for handlers whose
// work has no cancelable or traceable substeps.
func Func(h func(req []byte) ([]byte, error)) HandlerFunc {
	return func(_ context.Context, req []byte) ([]byte, error) { return h(req) }
}

// CodedHandlerFunc is a HandlerFunc that also sees the coding its request
// arrived in, for a handler that keeps those bytes rather than coding the
// request again.
type CodedHandlerFunc func(ctx context.Context, req []byte, coded Coded) ([]byte, error)

// Coded is the coding a request arrived in: Data is the frame's verified
// codec payload, whose decoding is the request, as an engine of Codec built
// without a checksum frame codes it (a link's checksum header, already
// checked, is cut off). A request coded against a dictionary
// (RegisterCodedDict) names codec "zstd", and Data is a zstd frame that
// names its dictionary (zstd.FrameDictID). Data aliases the connection's read scratch and is
// valid only until the handler returns, like the request. The zero Coded
// means the request arrived uncoded: below MinSize, not smaller coded, or
// over an uncompressed link.
type Coded struct {
	Codec string
	Data  []byte
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithServerTracer enables server-side tracing: requests whose frame
// carries a sampled trace context get an "rpc.serve" span recorded as the
// local half of the caller's trace (stitched by trace ID at export). A nil
// tracer is a no-op.
func WithServerTracer(tr *trace.Tracer) ServerOption {
	return func(s *Server) { s.tracer = tr }
}

// Server dispatches method handlers over any number of connections.
type Server struct {
	comp   Compression
	tracer *trace.Tracer

	mu       sync.RWMutex
	handlers map[string]handler
}

// handler is a registered method: the one dispatch shape, and whether the
// server may keep what it returns as the connection's reply buffer.
type handler struct {
	serve   func(ctx context.Context, dst, req []byte, coded Coded) ([]byte, error)
	appends bool
	dict    func() Dict            // nil: replies are coded as the link codes them
	resolve func(id uint32) []byte // nil: a request coded against a dictionary is corrupt
}

// maxKeptBuffer bounds every buffer a connection keeps between frames: the
// reply buffer and the transport's compressed-payload scratch on both
// sides. A larger one serves its frame and is dropped.
const maxKeptBuffer = 64 << 10

// NewServer builds a server with the given transport compression.
func NewServer(comp Compression, opts ...ServerOption) *Server {
	s := &Server{
		comp:     comp,
		handlers: make(map[string]handler),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// RegisterAppend installs the append-form handler for method.
func (s *Server) RegisterAppend(method string, h AppendHandlerFunc) {
	s.register(method, handler{serve: func(ctx context.Context, dst, req []byte, _ Coded) ([]byte, error) { return h(ctx, dst, req) }, appends: true})
}

// RegisterAppendDict installs the append-form handler for method, with its
// replies of at least MinSize coded against the dictionary dict returns,
// asked for each such reply: on a compressed link the reply goes
// out as a flagDict frame (zstd at the Dict's level, in a checksum frame)
// when that is smaller, and its coding counts in rpc_compress_ns_total as
// the link's own does. A zero Dict or an
// uncompressed link codes the reply as the link does. The client
// resolves the dictionary by ID (WithDictResolver).
func (s *Server) RegisterAppendDict(method string, h AppendHandlerFunc, dict func() Dict) {
	s.register(method, handler{serve: func(ctx context.Context, dst, req []byte, _ Coded) ([]byte, error) { return h(ctx, dst, req) }, appends: true, dict: dict})
}

// Register installs the handler for method. It serves through the append
// form without copying: the handler's response is written as it returned
// it, and dst goes unused.
func (s *Server) Register(method string, h HandlerFunc) {
	s.register(method, handler{serve: func(ctx context.Context, _, req []byte, _ Coded) ([]byte, error) { return h(ctx, req) }})
}

// RegisterCoded installs the handler for method as Register does, passing
// it each request's coding too.
func (s *Server) RegisterCoded(method string, h CodedHandlerFunc) {
	s.register(method, handler{serve: func(ctx context.Context, _, req []byte, coded Coded) ([]byte, error) { return h(ctx, req, coded) }})
}

// RegisterCodedDict installs the handler for method as RegisterCoded does,
// and also takes its requests coded against a dictionary (flagDict,
// Coder.CodeDict): resolve returns the bytes of the dictionary with a
// zstd.DictID, or nil when the server holds none, and the call then fails
// at the caller with an UnknownDictError whose Request is set, the
// connection intact. resolve is asked once per dictionary a connection
// switches to, and must be safe for concurrent use.
func (s *Server) RegisterCodedDict(method string, h CodedHandlerFunc, resolve func(id uint32) []byte) {
	s.register(method, handler{serve: func(ctx context.Context, _, req []byte, coded Coded) ([]byte, error) { return h(ctx, req, coded) }, resolve: resolve})
}

// requestDicts is a server transport's dicts: the resolver method was
// registered with.
func (s *Server) requestDicts(method []byte) (func(id uint32) []byte, bool) {
	s.mu.RLock()
	h := s.handlers[string(method)]
	s.mu.RUnlock()
	return h.resolve, h.resolve != nil
}

func (s *Server) register(method string, h handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = h
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
	t, err := newTransport(conn, s.comp)
	if err != nil {
		return err
	}
	defer t.release()
	t.dicts = s.requestDicts
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
	// The connection's two payload buffers. Each request is read into reqBuf
	// and fully served before the next one overwrites it; reply is the dst
	// of append-form handlers and holds error messages.
	var reqBuf, reply []byte
	for {
		inFlags, method, req, coding, err := t.readFrame(reqBuf[:0])
		if err != nil {
			if id, ok := unknownRequestDict(err); ok {
				// The frame was read whole: answer in place of the call.
				if err = t.writeBody(flagError|flagDict, nil, &Body{raw: 4, wire: binary.LittleEndian.AppendUint32(reply[:0], id)}); err == nil {
					continue
				}
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		reqBuf = req
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
		kept := true // resp's backing array is this connection's to reuse
		if !ok {
			flags = flagError
			resp = fmt.Appendf(reply[:0], "rpc: unknown method %q", method)
		} else if resp, err = h.serve(hctx, reply[:0], req, t.coded(inFlags, coding)); err != nil {
			flags = flagError
			resp = append(reply[:0], err.Error()...)
		} else {
			kept = h.appends
		}
		tmCalls.Inc()
		var d Dict
		if flags == 0 && h.dict != nil && len(resp) >= MinSize {
			d = h.dict()
		}
		var b Body
		if b, err = t.codeDict(d, resp, t.cur); err == nil {
			err = t.writeBody(flags, method, &b)
		}
		if kept && resp != nil && cap(resp) <= maxKeptBuffer {
			reply = resp[:0]
		}
		if serve.Valid() {
			if flags&flagError != 0 {
				serve.SetStr("error", string(resp))
			}
			serve.End()
			t.cur = trace.SpanHandle{}
		}
		if err != nil {
			return err
		}
	}
}

// unknownRequestDict reports the dictionary a request named that the server
// does not hold. It is called on failed reads only: its target escapes.
func unknownRequestDict(err error) (uint32, bool) {
	var u *UnknownDictError
	if errors.As(err, &u) && u.Request {
		return u.ID, true
	}
	return 0, false
}
