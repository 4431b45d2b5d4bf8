package rpc

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"testing"

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
		cs, ss := c.Stats(), s.Stats()
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

// TestDictFlagOnlyOnReplies: flagDict on a request, or together with
// flagCompressed, is corruption, and the server drops the connection.
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
	for i := range recs {
		got, err := c.Call(ctx, "get", []byte{byte(i)})
		if err != nil || !bytes.Equal(got, recs[i]) {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if n := s.Stats().DictFrames; n != 0 {
		t.Fatalf("%d dictionary frames, want 0", n)
	}
}
