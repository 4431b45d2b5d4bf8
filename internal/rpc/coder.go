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
	stats *counters    // the owning transport's; nil for a standalone Coder

	// dict is the dictionary engine last coded or decoded with (flagDict
	// frames): built once per dictionary, not pooled.
	dict struct {
		id  uint32
		eng codec.Engine
	}
}

// Dict is a zstd dictionary a server codes a method's replies against, and
// the level it codes them at. ID is zstd.DictID(Bytes); the zero Dict codes
// nothing.
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

// Close returns the Coder's engine to its pool and drops its dictionary
// engine. Safe to call more than once.
func (c *Coder) Close() {
	if c.pool != nil && c.eng != nil {
		c.pool.Put(c.eng)
		c.eng = nil
		c.pool = nil
	}
	c.dict.id, c.dict.eng = 0, nil
}

// useDict builds the engine for d: zstd at d's level, in the checksum
// frame flagDict payloads carry.
func (c *Coder) useDict(d Dict) error {
	eng, err := codec.NewEngine("zstd", codec.WithLevel(d.Level), codec.WithDict(d.Bytes), codec.WithChecksum(true))
	if err != nil {
		return err
	}
	c.dict.id, c.dict.eng = d.ID, eng
	return nil
}

// Code codes payload for method. The coding's time counts once, in
// rpc_compress_ns_total and an "rpc.compress" span under ctx's, however many
// clients then send the Body.
func (c *Coder) Code(ctx context.Context, method string, payload []byte) (Body, error) {
	b, err := c.code(payload, trace.FromContext(ctx))
	b.method = method
	return b, err
}

// code is the package's one coding step: payload as a frame carries it,
// timed into rpc_compress_ns_total and the owning transport's stats, with an
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
		if c.dict.eng == nil || c.dict.id != d.ID {
			if err := c.useDict(d); err != nil {
				return Body{}, err
			}
		}
		eng, flag = c.dict.eng, flagDict
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
