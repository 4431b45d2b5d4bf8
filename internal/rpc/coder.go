package rpc

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/trace"
)

// Coder codes payloads exactly as a transport with its Compression does:
// with the shared-pool engine, when the payload is at least MinSize, keeping
// the coding only when it is smaller. Every transport owns one for its
// frames; a caller that sends one request to several peers codes it once
// with its own Coder and hands the same Body to each peer's client
// (Client.AppendCallBody). A Coder serves one goroutine at a time and must
// not be used after Close.
type Coder struct {
	comp  Compression
	eng   codec.Engine // nil = uncompressed link
	pool  *codec.Pool  // where eng came from, for Close
	buf   []byte       // coding scratch, which a compressed Body aliases
	stats *counters    // the owning client's; nil for a server's or a standalone Coder

	// The dictionary engines last coded with (enc) and decoded with (dec),
	// flagDict frames: a transport codes against one dictionary and decodes
	// against another (a server codes replies with its store's and decodes
	// requests with its cluster's), so each direction keeps its own and a
	// connection that serves both does not switch per frame.
	enc, dec dictEngine
}

// dictEngine is an engine for one dictionary, drawn from the shared pool
// its configuration keys.
type dictEngine struct {
	id   uint32
	eng  codec.Engine
	pool *codec.Pool
}

// use makes e an engine for d, zstd at d's level in the checksum frame
// flagDict payloads carry, unless it is one already.
func (e *dictEngine) use(d Dict) error {
	if e.eng != nil && e.id == d.ID {
		return nil
	}
	pool, err := codec.SharedPool("zstd", codec.Options{Level: d.Level, Dict: d.Bytes, Checksum: true})
	if err != nil {
		return err
	}
	e.release()
	e.id, e.eng, e.pool = d.ID, pool.Get(), pool
	return nil
}

// release returns e's engine to its pool.
func (e *dictEngine) release() {
	if e.eng != nil {
		e.pool.Put(e.eng)
	}
	*e = dictEngine{}
}

// Dict is a zstd dictionary a frame is coded against — a server's for a
// method's replies, a caller's for its requests — and the level it codes
// them at. ID is zstd.DictID(Bytes); the zero Dict codes nothing.
type Dict struct {
	Bytes []byte
	ID    uint32
	Level int
}

// Body is a request as a Coder coded it: the bytes its frame carries — the
// payload itself, or the payload's coding — with the method and the
// Compression they were coded for. A compressed Body aliases its Coder's
// scratch until that Coder's next Code; a raw one aliases the payload.
type Body struct {
	comp   Compression
	method string
	raw    int    // payload length, for the raw-bytes counters
	wire   []byte // what the frame carries
	flags  byte   // flagCompressed when wire is the coding
}

// errBodyCompression fails a call whose Body was coded for another link.
var errBodyCompression = errors.New("rpc: body coded for a different compression")

// NewCoder returns a Coder for comp.
func NewCoder(comp Compression) (*Coder, error) {
	c := new(Coder)
	if err := c.init(comp); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *Coder) init(comp Compression) error {
	c.comp = comp
	if comp.Codec == "" {
		return nil
	}
	cd, ok := codec.Lookup(comp.Codec)
	if !ok {
		return fmt.Errorf("rpc: unknown codec %q", comp.Codec)
	}
	level := comp.Level
	if level == 0 {
		_, _, level = cd.Levels()
	}
	pool, err := codec.SharedPool(comp.Codec, codec.Options{Level: level, Checksum: comp.Checksum})
	if err != nil {
		return err
	}
	c.pool = pool
	c.eng = pool.Get()
	return nil
}

// Close returns the Coder's engines to their pools. Safe to call more than
// once.
func (c *Coder) Close() {
	if c.pool != nil && c.eng != nil {
		c.pool.Put(c.eng)
		c.eng = nil
		c.pool = nil
	}
	c.enc.release()
	c.dec.release()
}

// Code codes payload for method. The coding's time counts once, in
// rpc_compress_ns_total and an "rpc.compress" span under ctx's, however many
// clients then send the Body.
func (c *Coder) Code(ctx context.Context, method string, payload []byte) (Body, error) {
	return c.CodeDict(ctx, method, payload, Dict{})
}

// CodeDict is Code with payload coded against d instead, as a flagDict
// frame (zstd at d's level, in a checksum frame), when that is smaller: a
// request the peer registered a dictionary resolver for
// (Server.RegisterCodedDict), and which must then hold d. A zero Dict codes
// as Code does; an uncompressed link codes nothing.
func (c *Coder) CodeDict(ctx context.Context, method string, payload []byte, d Dict) (Body, error) {
	b, err := c.codeDict(d, payload, trace.FromContext(ctx))
	b.method = method
	return b, err
}

// code is the package's one coding step: payload as a frame carries it,
// timed into rpc_compress_ns_total and the owning client's stats, with an
// "rpc.compress" span under parent.
func (c *Coder) code(payload []byte, parent trace.SpanHandle) (Body, error) {
	return c.codeDict(Dict{}, payload, parent)
}

// codeDict is code with payload coded against d instead, as a flagDict
// frame, when d is a dictionary; an uncompressed link codes nothing.
func (c *Coder) codeDict(d Dict, payload []byte, parent trace.SpanHandle) (Body, error) {
	b := Body{comp: c.comp, raw: len(payload), wire: payload}
	if c.eng == nil || len(payload) < MinSize {
		return b, nil
	}
	eng, flag := c.eng, byte(flagCompressed)
	if d.Bytes != nil {
		if err := c.enc.use(d); err != nil {
			return Body{}, err
		}
		eng, flag = c.enc.eng, flagDict
	}
	sp := parent.Child("rpc.compress") // zero handle when untraced
	t0 := time.Now()
	out, err := eng.Compress(c.buf[:0], payload)
	ns := time.Since(t0).Nanoseconds()
	tmCompNS.Add(ns)
	if c.stats != nil {
		c.stats.compressNS.Add(ns)
	}
	if err != nil {
		sp.End()
		return Body{}, err
	}
	if cap(out) <= maxKeptBuffer {
		c.buf = out
	}
	if len(out) < len(payload) {
		b.wire, b.flags = out, flag
	}
	sp.SetInt("raw", int64(len(payload))).SetInt("wire", int64(len(b.wire))).End()
	return b, nil
}
