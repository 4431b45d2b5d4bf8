package rpc

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"testing"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/corpus"
	"github.com/datacomp/datacomp/internal/telemetry"
)

// recConn records every byte a client writes: its request frames.
type recConn struct {
	net.Conn
	mu  sync.Mutex
	out bytes.Buffer
}

func (c *recConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.out.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// take returns and clears what the client wrote since the last take.
func (c *recConn) take() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := bytes.Clone(c.out.Bytes())
	c.out.Reset()
	return b
}

// TestCodedBodyFramesIdentical codes one body and sends it over three
// clients, as a replicated write does: every wire carries the frame that an
// AppendCall of the raw payload writes, every server decodes the payload,
// the raw and wire bytes count per frame and the coding's time once. A body
// below MinSize travels raw, and a body coded for another link is refused.
func TestCodedBodyFramesIdentical(t *testing.T) {
	tctx := context.Background()
	compNS := telemetry.Default.Counter("rpc_compress_ns_total", "time compressing RPC payloads")
	for _, comp := range []Compression{
		{Codec: "lz4", Level: 1, Checksum: true},
	} {
		t.Run(comp.Codec, func(t *testing.T) {
			var mu sync.Mutex
			var got [][]byte
			srv := NewServer(comp)
			srv.Register("kv.put", Func(func(req []byte) ([]byte, error) {
				mu.Lock()
				got = append(got, bytes.Clone(req))
				mu.Unlock()
				return nil, nil
			}))
			dial := func() (*Client, *recConn) {
				cc, sc := net.Pipe()
				go func() {
					_ = srv.ServeConn(context.Background(), sc)
					sc.Close()
				}()
				rc := &recConn{Conn: cc}
				cl, err := NewClient(rc, comp)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { cl.Close(); cc.Close() })
				return cl, rc
			}
			ref, refConn := dial()
			var clients [3]*Client
			var conns [3]*recConn
			for i := range clients {
				clients[i], conns[i] = dial()
			}
			cd, err := NewCoder(comp)
			if err != nil {
				t.Fatal(err)
			}
			defer cd.Close()

			for _, payload := range [][]byte{corpus.Records(7, 4<<10), []byte("below MinSize")} {
				if _, err := ref.AppendCall(tctx, nil, "kv.put", payload); err != nil {
					t.Fatal(err)
				}
				want := refConn.take()
				mu.Lock()
				got = got[:0]
				mu.Unlock()

				ns0 := compNS.Value()
				body, err := cd.Code(tctx, "kv.put", payload)
				if err != nil {
					t.Fatal(err)
				}
				coded := compNS.Value() - ns0
				if raw := len(payload) < MinSize; raw != (body.flags == 0) || raw != bytes.Equal(body.wire, payload) {
					t.Fatalf("%d B payload: body flags %#x, %d wire bytes; want raw exactly below MinSize", len(payload), body.flags, len(body.wire))
				}
				ns0 = compNS.Value()
				for i, cl := range clients {
					before := cl.Stats()
					if _, err := cl.AppendCallBody(tctx, nil, &body); err != nil {
						t.Fatalf("client %d: %v", i, err)
					}
					if frame := conns[i].take(); !bytes.Equal(frame, want) {
						t.Fatalf("%d B payload, client %d: wrote a %d-byte frame, AppendCall writes %d bytes", len(payload), i, len(frame), len(want))
					}
					st := cl.Stats()
					if d := st.RawBytes - before.RawBytes; d != int64(len(payload)) {
						t.Fatalf("client %d counted %d raw bytes for a %d-byte payload", i, d, len(payload))
					}
					if d := st.WireBytes - before.WireBytes; d != int64(len(body.wire)) {
						t.Fatalf("client %d counted %d wire bytes for a %d-byte body", i, d, len(body.wire))
					}
					if st.CompressTime != before.CompressTime {
						t.Fatalf("client %d counted compress time for a body coded before the call", i)
					}
				}
				if d := compNS.Value() - ns0; d != 0 {
					t.Fatalf("sending the coded body three times added %d ns to rpc_compress_ns_total; the coding added %d", d, coded)
				}
				if body.flags != 0 && coded == 0 {
					t.Fatal("the coding added nothing to rpc_compress_ns_total")
				}
				mu.Lock()
				n := len(got)
				for i, req := range got {
					if !bytes.Equal(req, payload) {
						t.Fatalf("server decoded request %d as %d bytes, want the %d-byte payload", i, len(req), len(payload))
					}
				}
				mu.Unlock()
				if n != len(clients) {
					t.Fatalf("server decoded %d requests, want %d", n, len(clients))
				}
			}

			other := comp
			other.Level++
			cl, _ := dial()
			ocd, err := NewCoder(other)
			if err != nil {
				t.Fatal(err)
			}
			defer ocd.Close()
			obody, err := ocd.Code(tctx, "kv.put", []byte("x"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cl.AppendCallBody(tctx, nil, &obody); !errors.Is(err, errBodyCompression) {
				t.Fatalf("a body coded at level %d sent over a level %d link: err = %v, want %v", other.Level, comp.Level, err, errBodyCompression)
			}
			if st := cl.Stats(); st.RawBytes != 0 || st.WireBytes != 0 {
				t.Fatalf("a refused body reached the wire: %+v", st)
			}
		})
	}
}

// TestCodedHandlerSeesCoding: a coded handler gets the coding its request
// arrived in, as an engine of the link's codec without a checksum frame
// codes the request, and the zero Coded when the request came uncoded.
func TestCodedHandlerSeesCoding(t *testing.T) {
	tctx := context.Background()
	incompressible := make([]byte, 4<<10)
	rngFill(incompressible)
	for _, comp := range []Compression{
		{Codec: "lz4", Level: 1, Checksum: true},
		{Codec: "lz4", Level: 1},
		{Codec: "zstd", Level: 3, Checksum: true},
		{},
	} {
		var req []byte
		var got Coded
		srv := NewServer(comp)
		srv.RegisterCoded("kv.put", func(_ context.Context, r []byte, coded Coded) ([]byte, error) {
			req = bytes.Clone(r)
			got = Coded{Codec: coded.Codec, Data: bytes.Clone(coded.Data)}
			return nil, nil
		})
		cl := pipePair(t, srv, comp)
		for _, c := range []struct {
			payload []byte
			shrinks bool // coded smaller, at or above MinSize
		}{{corpus.Records(3, 4<<10), true}, {[]byte("below MinSize"), false}, {incompressible, false}} {
			payload := c.payload
			if _, err := cl.Call(tctx, "kv.put", payload); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(req, payload) {
				t.Fatalf("%+v: handler saw a %d-byte request, want the %d-byte payload", comp, len(req), len(payload))
			}
			if !c.shrinks || comp.Codec == "" {
				if got.Codec != "" || got.Data != nil {
					t.Fatalf("%+v, %d B payload: handler saw a %s coding of %d bytes, want none", comp, len(payload), got.Codec, len(got.Data))
				}
				continue
			}
			if got.Codec != comp.Codec {
				t.Fatalf("%+v: coding named %q", comp, got.Codec)
			}
			eng, err := codec.NewEngine(comp.Codec, codec.WithLevel(comp.Level))
			if err != nil {
				t.Fatal(err)
			}
			if plain, err := eng.Decompress(nil, got.Data); err != nil || !bytes.Equal(plain, payload) {
				t.Fatalf("%+v: the coding does not decode to the request without a checksum frame: %v", comp, err)
			}
			cd, err := NewCoder(comp)
			if err != nil {
				t.Fatal(err)
			}
			body, err := cd.Code(tctx, "kv.put", payload)
			if err != nil {
				t.Fatal(err)
			}
			if want := body.wire; comp.Checksum && !bytes.Equal(codec.StripChecksum(want), got.Data) || !comp.Checksum && !bytes.Equal(want, got.Data) {
				t.Fatalf("%+v: the handler's coding is not the frame's", comp)
			}
			cd.Close()
		}
	}
}
