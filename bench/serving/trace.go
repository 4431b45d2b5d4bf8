package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing from outside: the benchmark records a span around every public
// call it makes into the cluster, and — through cluster.WithDialWrapper — a
// span for every request/response exchange on a coordinator→node
// connection. Spans inside the program are a later issue (ROADMAP item 5).
// Recording is switched on and off in alternating windows of one run so the
// traced and untraced halves see the same store state; their difference is
// trace.overhead_frac.

// maxFileSpans caps the spans written to the span file; metrics use all.
const maxFileSpans = 50000

type opSpan struct {
	start, end int64 // ns since recorder start
	put        bool
	children   int // exchanges attributed so far
}

type rtSpan struct {
	start, end int64
	parent     *opSpan
}

type recorder struct {
	t0 time.Time
	on atomic.Bool

	mu    sync.Mutex
	conns []*tracedConn
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// wrapDial is the cluster.WithDialWrapper hook.
func (r *recorder) wrapDial(node string, dial func(context.Context) (io.ReadWriter, error)) func(context.Context) (io.ReadWriter, error) {
	return func(ctx context.Context) (io.ReadWriter, error) {
		rw, err := dial(ctx)
		if err != nil {
			return nil, err
		}
		nc, ok := rw.(net.Conn)
		if !ok {
			return rw, nil
		}
		tc := &tracedConn{Conn: nc, rec: r, node: node}
		r.mu.Lock()
		r.conns = append(r.conns, tc)
		r.mu.Unlock()
		return tc, nil
	}
}

// tracedConn times each exchange on one rpc client connection: from the
// first Write of a request to the last Read of its response. The rpc client
// serializes calls on a connection, so the fields need no lock. It stays a
// net.Conn so the client arms deadlines exactly as it does untraced.
type tracedConn struct {
	net.Conn
	rec   *recorder
	node  string
	spans []rtSpan

	start, last int64
	writing     bool
	live        bool // the current exchange is being recorded
}

func (c *tracedConn) Write(p []byte) (int, error) {
	if !c.writing {
		c.finish()
		c.writing = true
		if c.rec.on.Load() {
			c.live = true
			c.start = c.rec.now()
			c.last = 0
		}
	}
	return c.Conn.Write(p)
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.writing = false
	if c.live {
		c.last = c.rec.now()
	}
	return n, err
}

func (c *tracedConn) finish() {
	if c.live && c.last > 0 {
		c.spans = append(c.spans, rtSpan{start: c.start, end: c.last})
	}
	c.live = false
}

// traceTotals is what the span set says about the cluster layer.
type traceTotals struct {
	ops       [2]int64 // [get, put] recorded op spans
	opNS      [2]int64
	roundtrip int64 // exchanges attributed to a recorded op
	rtNS      int64
}

// resolve attributes every exchange to the op span that contains it. Each
// client goroutine has one op in flight at a time, so candidates are found
// by binary search per client; when two clients' ops both contain the
// exchange (they overlap in time and share a node) the op with fewer
// children so far takes it — an op makes one exchange per replica.
func (r *recorder) resolve(perClient [][]opSpan) traceTotals {
	var t traceTotals
	r.mu.Lock()
	conns := r.conns
	r.mu.Unlock()
	for _, c := range conns {
		c.finish()
		for i := range c.spans {
			s := &c.spans[i]
			for _, ops := range perClient {
				j := sort.Search(len(ops), func(j int) bool { return ops[j].end >= s.end })
				if j < len(ops) && ops[j].start <= s.start {
					if s.parent == nil || ops[j].children < s.parent.children {
						s.parent = &ops[j]
					}
				}
			}
			if s.parent == nil {
				continue // no recorded op around it: a window edge
			}
			s.parent.children++
			t.roundtrip++
			t.rtNS += s.end - s.start
		}
	}
	for _, ops := range perClient {
		for i := range ops {
			k := 0
			if ops[i].put {
				k = 1
			}
			t.ops[k]++
			t.opNS[k] += ops[i].end - ops[i].start
		}
	}
	return t
}

// writeSpans writes {id,parent,op,name,start,end,node} lines, one JSON
// object per span, ops first then their exchanges, capped at maxFileSpans.
func (r *recorder) writeSpans(path string, perClient [][]opSpan) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	ids := make(map[*opSpan]int)
	n := 0
	for _, ops := range perClient {
		for i := range ops {
			if n >= maxFileSpans/4 {
				break
			}
			n++
			ids[&ops[i]] = n
			name := "cluster.get"
			if ops[i].put {
				name = "cluster.put"
			}
			fmt.Fprintf(w, `{"id":%d,"parent":0,"op":%d,"name":%q,"start":%d,"end":%d}`+"\n",
				n, n, name, ops[i].start, ops[i].end)
		}
	}
	r.mu.Lock()
	conns := r.conns
	r.mu.Unlock()
	for _, c := range conns {
		for _, s := range c.spans {
			op, ok := ids[s.parent]
			if !ok || n >= maxFileSpans {
				continue
			}
			n++
			fmt.Fprintf(w, `{"id":%d,"parent":%d,"op":%d,"name":"rpc.exchange","start":%d,"end":%d,"node":%q}`+"\n",
				n, op, op, s.start, s.end, c.node)
		}
	}
	return w.Flush()
}
