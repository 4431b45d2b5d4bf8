package rpc

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"testing"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/corpus"
	"github.com/datacomp/datacomp/internal/dict"
	"github.com/datacomp/datacomp/internal/zstd"
)

// trainedDict trains a 2 KiB dictionary on records, as a store trains its
// own.
func trainedDict(t testing.TB, seed int64) Dict {
	t.Helper()
	var samples [][]byte
	for i := 0; i < 64; i++ {
		samples = append(samples, corpus.Records(seed+int64(i), 1<<10))
	}
	d, err := dict.TrainZstd(1, 2<<10, samples, samples)
	if err != nil {
		t.Fatal(err)
	}
	return Dict{Bytes: d, ID: zstd.DictID(d), Level: 1}
}

// resolver is a concurrency-safe WithDictResolver backing.
type resolver struct {
	mu sync.Mutex
	m  map[uint32][]byte
}

func (r *resolver) add(d Dict) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.m == nil {
		r.m = make(map[uint32][]byte)
	}
	r.m[d.ID] = d.Bytes
}

func (r *resolver) lookup(id uint32) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m[id]
}

// dictServer serves "get", which replies with the record its request
// names, coded against *d.
func dictServer(comp Compression, d *Dict) (*Server, [][]byte) {
	var recs [][]byte
	for i := 0; i < 16; i++ {
		recs = append(recs, corpus.Records(int64(500+i), 1<<10))
	}
	s := NewServer(comp)
	s.RegisterAppendDict("get", func(_ context.Context, dst, req []byte) ([]byte, error) {
		if req[0] == 0xff {
			return append(dst, "small"...), nil
		}
		return append(dst, recs[int(req[0])%len(recs)]...), nil
	}, func() Dict { return *d })
	return s, recs
}

func dictClient(t *testing.T, s *Server, comp Compression, r *resolver) *Client {
	t.Helper()
	cc, sc := net.Pipe()
	go func() {
		_ = s.ServeConn(context.Background(), sc)
		sc.Close()
	}()
	c, err := NewClient(cc, comp, WithDictResolver(r.lookup))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cc.Close() })
	return c
}

// TestDictReplyRoundTrip: a reply of at least MinSize travels coded against
// the server's dictionary, smaller than the link's lz4 codes it, and counts
// raw, wire and compress time as a link-coded frame does; a small reply and
// a server without a dictionary send no flagDict frame.
func TestDictReplyRoundTrip(t *testing.T) {
	comp := Compression{Codec: "lz4", Level: 1, Checksum: true}
	ctx := context.Background()
	d := trainedDict(t, 1)
	var r resolver
	r.add(d)
	wire := map[string]int64{}
	for _, name := range []string{"dict", "none"} {
		served := d
		if name == "none" {
			served = Dict{}
		}
		s, recs := dictServer(comp, &served)
		c := dictClient(t, s, comp, &r)
		before := counted()
		for i := range recs {
			got, err := c.Call(ctx, "get", []byte{byte(i)})
			if err != nil {
				t.Fatalf("%s: call %d: %v", name, i, err)
			}
			if !bytes.Equal(got, recs[i]) {
				t.Fatalf("%s: reply %d differs", name, i)
			}
		}
		if got, err := c.Call(ctx, "get", []byte{0xff}); err != nil || string(got) != "small" {
			t.Fatalf("%s: small reply %q, %v", name, got, err)
		}
		cs, ss := c.Stats(), serverSince(before, c)
		wantDict := int64(0)
		if name == "dict" {
			wantDict = int64(len(recs))
		}
		if cs.DictFrames != wantDict || ss.DictFrames != wantDict {
			t.Fatalf("%s: client %d, server %d dictionary frames, want %d", name, cs.DictFrames, ss.DictFrames, wantDict)
		}
		if ss.CompressTime <= 0 || cs.DecompressTime <= 0 {
			t.Fatalf("%s: coding time not counted: server %+v client %+v", name, ss, cs)
		}
		if cs.RawBytes != ss.RawBytes || cs.WireBytes != ss.WireBytes {
			t.Fatalf("%s: ends disagree: server %+v client %+v", name, ss, cs)
		}
		wire[name] = cs.WireBytes
	}
	if wire["dict"] >= wire["none"]*3/4 {
		t.Fatalf("dictionary-coded replies took %d wire bytes, lz4 %d: want a quarter saved", wire["dict"], wire["none"])
	}
}

// TestDictReplyUnknownKeepsClient: a reply naming a dictionary the resolver
// lacks, or one it answers with other bytes, fails that call alone with
// UnknownDictError, not ErrCorrupt, and the same client succeeds once the
// resolver holds the dictionary.
func TestDictReplyUnknownKeepsClient(t *testing.T) {
	comp := Compression{Codec: "lz4", Level: 1, Checksum: true}
	ctx := context.Background()
	d := trainedDict(t, 1)
	s, recs := dictServer(comp, &d)
	var r resolver
	c := dictClient(t, s, comp, &r)
	other := trainedDict(t, 900)
	for _, step := range []string{"unknown", "wrong bytes"} {
		if step == "wrong bytes" {
			r.mu.Lock()
			r.m = map[uint32][]byte{d.ID: other.Bytes}
			r.mu.Unlock()
		}
		_, err := c.Call(ctx, "get", []byte{3})
		var u *UnknownDictError
		if !errors.As(err, &u) || u.ID != d.ID || errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: %v, want UnknownDictError for %08x", step, err, d.ID)
		}
	}
	r.add(d)
	got, err := c.Call(ctx, "get", []byte{3})
	if err != nil || !bytes.Equal(got, recs[3]) {
		t.Fatalf("after resolving: %v", err)
	}
}

// TestDictFlagOnlyOnReplies: flagDict on a request for a method registered
// without a dictionary resolver, or together with flagCompressed, is
// corruption, and the server drops the connection.
func TestDictFlagOnlyOnReplies(t *testing.T) {
	for _, flags := range []byte{flagDict, flagDict | flagCompressed} {
		frame := EncodeFrame(flags, "get", []byte("whatever"))
		if _, _, _, err := ParseFrame(frame); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flags %#x as a request: %v, want ErrCorrupt", flags, err)
		}
		if flags&flagCompressed != 0 {
			if _, _, _, err := ParseReplyFrame(frame, nil); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flags %#x as a reply: %v, want ErrCorrupt", flags, err)
			}
		}
	}
	d := trainedDict(t, 1)
	s, _ := dictServer(Compression{Codec: "lz4", Level: 1, Checksum: true}, &d)
	cc, sc := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- s.ServeConn(context.Background(), sc) }()
	go cc.Write(EncodeFrame(flagDict, "get", []byte{1}))
	if err := <-done; !errors.Is(err, ErrCorrupt) {
		t.Fatalf("server on a dictionary-flagged request: %v, want ErrCorrupt", err)
	}
	cc.Close()
}

// TestDictReplyNeedsStaticCodec: an uncompressed link codes nothing,
// dictionary or not.
func TestDictReplyNeedsStaticCodec(t *testing.T) {
	ctx := context.Background()
	d := trainedDict(t, 1)
	var r resolver
	r.add(d)
	comp := Compression{}
	s, recs := dictServer(comp, &d)
	c := dictClient(t, s, comp, &r)
	before := counted()
	for i := range recs {
		got, err := c.Call(ctx, "get", []byte{byte(i)})
		if err != nil || !bytes.Equal(got, recs[i]) {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if n := serverSince(before, c).DictFrames; n != 0 {
		t.Fatalf("%d dictionary frames, want 0", n)
	}
}

// putServer serves "put", registered with a dictionary resolver, which
// records each request and the coding it arrived in.
type putServer struct {
	mu    sync.Mutex
	reqs  [][]byte
	coded []Coded
}

func (p *putServer) serve(comp Compression, r *resolver) *Server {
	s := NewServer(comp)
	s.RegisterCodedDict("put", func(_ context.Context, req []byte, coded Coded) ([]byte, error) {
		p.mu.Lock()
		defer p.mu.Unlock()
		p.reqs = append(p.reqs, bytes.Clone(req))
		p.coded = append(p.coded, Coded{Codec: coded.Codec, Data: bytes.Clone(coded.Data)})
		return nil, nil
	}, r.lookup)
	return s
}

// TestDictRequestRoundTrip: a request CodeDict codes against a dictionary
// travels as a flagDict frame, smaller than the link's lz4 codes it, to a
// method registered with a resolver that holds the dictionary; the handler
// gets the request and its coding, a zstd frame naming the dictionary that
// a plain zstd engine with it decodes to the request. Each end counts the
// frame once.
func TestDictRequestRoundTrip(t *testing.T) {
	comp := Compression{Codec: "lz4", Level: 1, Checksum: true}
	ctx := context.Background()
	d := trainedDict(t, 1)
	d.Level = -3
	var r resolver
	r.add(d)
	var ps putServer
	c := dictClient(t, ps.serve(comp, &r), comp, &resolver{})
	cd, err := NewCoder(comp)
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Close()
	plain, err := codec.NewEngine("zstd", codec.WithDict(d.Bytes))
	if err != nil {
		t.Fatal(err)
	}
	before := counted()
	var dictWire, lz4Wire int64
	for i := 0; i < 8; i++ {
		req := corpus.Records(int64(700+i), 1<<10)
		for _, dd := range []Dict{d, {}} {
			body, err := cd.CodeDict(ctx, "put", req, dd)
			if err != nil {
				t.Fatal(err)
			}
			w := c.Stats().WireBytes
			if _, err := c.AppendCallBody(ctx, nil, &body); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
			if dd.Bytes != nil {
				dictWire += c.Stats().WireBytes - w
			} else {
				lz4Wire += c.Stats().WireBytes - w
			}
		}
		got, coded := ps.reqs[2*i], ps.coded[2*i]
		if !bytes.Equal(got, req) || coded.Codec != "zstd" {
			t.Fatalf("put %d: request differs or arrived as %q", i, coded.Codec)
		}
		if id, named, err := zstd.FrameDictID(coded.Data); err != nil || !named || id != d.ID {
			t.Fatalf("put %d: coding names %08x (%v, %v), want %08x", i, id, named, err, d.ID)
		}
		if dec, err := plain.Decompress(nil, coded.Data); err != nil || !bytes.Equal(dec, req) {
			t.Fatalf("put %d: the kept coding does not decode to the request: %v", i, err)
		}
		if ps.coded[2*i+1].Codec != "lz4" {
			t.Fatalf("put %d without a dictionary arrived as %q", i, ps.coded[2*i+1].Codec)
		}
	}
	if cs, ss := c.Stats(), serverSince(before, c); cs.DictFrames != 8 || ss.DictFrames != 8 {
		t.Fatalf("client %d, server %d dictionary frames, want 8 each", cs.DictFrames, ss.DictFrames)
	}
	if dictWire >= lz4Wire*3/4 {
		t.Fatalf("dictionary-coded requests took %d wire bytes, lz4 %d: want a quarter saved", dictWire, lz4Wire)
	}
}

// TestDictRequestUnknownKeepsClient: a request coded against a dictionary
// the server's resolver lacks fails that call alone with an
// UnknownDictError whose Request is set, not ErrCorrupt, and the same
// client succeeds once the server holds the dictionary. A method
// registered without a resolver still refuses such a frame as corrupt.
func TestDictRequestUnknownKeepsClient(t *testing.T) {
	comp := Compression{Codec: "lz4", Level: 1, Checksum: true}
	ctx := context.Background()
	d := trainedDict(t, 1)
	var r resolver
	var ps putServer
	c := dictClient(t, ps.serve(comp, &r), comp, &resolver{})
	cd, err := NewCoder(comp)
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Close()
	req := corpus.Records(77, 1<<10)
	body, err := cd.CodeDict(ctx, "put", req, d)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.AppendCallBody(ctx, nil, &body)
	var u *UnknownDictError
	if !errors.As(err, &u) || u.ID != d.ID || !u.Request || errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown request dictionary: %v, want UnknownDictError{%08x, Request}", err, d.ID)
	}
	r.add(d)
	if _, err := c.AppendCallBody(ctx, nil, &body); err != nil || len(ps.reqs) != 1 || !bytes.Equal(ps.reqs[0], req) {
		t.Fatalf("after the server holds the dictionary: %v", err)
	}

	frame := encodeBody(t, "put", &body)
	if _, _, _, err := ParseRequestFrame(frame, func(uint32) []byte { return nil }); !errors.As(err, &u) || !u.Request {
		t.Fatalf("parsing a request naming an unknown dictionary: %v", err)
	}
	if _, _, got, err := ParseRequestFrame(frame, func(uint32) []byte { return d.Bytes }); err != nil || !bytes.Equal(got, req) {
		t.Fatalf("parsing a dictionary-coded request: %v", err)
	}
	// A refusal is a reply only, and carries a 4-byte ID.
	refusal := EncodeFrame(flagError|flagDict, "", []byte{1, 2, 3, 4})
	if _, _, _, err := ParseRequestFrame(refusal, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a refusal as a request: %v, want ErrCorrupt", err)
	}
	if _, _, _, err := ParseReplyFrame(EncodeFrame(flagError|flagDict, "", []byte{1, 2, 3}), nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a refusal of 3 bytes: %v, want ErrCorrupt", err)
	}
	if flags, _, got, err := ParseReplyFrame(refusal, nil); err != nil || flags != flagError|flagDict || !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatalf("a refusal as a reply: %#x %v %v", flags, got, err)
	}
}

// encodeBody renders the request frame a client writes for b.
func encodeBody(t *testing.T, method string, b *Body) []byte {
	t.Helper()
	var buf bytes.Buffer
	tr := &transport{w: bufio.NewWriter(&buf)}
	if err := tr.writeBody(0, []byte(method), b); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
