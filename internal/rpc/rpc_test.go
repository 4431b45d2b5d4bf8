package rpc

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/datacomp/datacomp/internal/corpus"
)

// pipePair wires a client to a served connection over net.Pipe.
func pipePair(t *testing.T, s *Server, comp Compression) *Client {
	t.Helper()
	cc, sc := net.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = s.ServeConn(context.Background(), sc)
		sc.Close()
	}()
	c, err := NewClient(cc, comp)
	if err != nil {
		t.Fatal(err)
	}
	// The server counts a reply after its last byte is read, so a call can
	// return before the count lands: wait for the server to finish, so a
	// test's counters never leak into the next one's.
	t.Cleanup(func() {
		cc.Close()
		<-served
	})
	return c
}

// counted reads the process-wide rpc counters, which both ends of every link
// in the process feed.
func counted() Stats {
	return Stats{
		Calls:          tmCalls.Value(),
		RawBytes:       tmRawBytes.Value(),
		WireBytes:      tmWireBytes.Value(),
		DictFrames:     tmDictFrames.Value(),
		CompressTime:   time.Duration(tmCompNS.Value()),
		DecompressTime: time.Duration(tmDecompNS.Value()),
	}
}

// serverSince is what the server end of c's link counted since before, a
// counted() read while c had made no call: the process-wide growth less
// c's own.
func serverSince(before Stats, c *Client) Stats {
	now, cs := counted(), c.Stats()
	return Stats{
		Calls:          now.Calls - before.Calls - cs.Calls,
		RawBytes:       now.RawBytes - before.RawBytes - cs.RawBytes,
		WireBytes:      now.WireBytes - before.WireBytes - cs.WireBytes,
		DictFrames:     now.DictFrames - before.DictFrames - cs.DictFrames,
		CompressTime:   now.CompressTime - before.CompressTime - cs.CompressTime,
		DecompressTime: now.DecompressTime - before.DecompressTime - cs.DecompressTime,
	}
}

func echoServer(comp Compression) *Server {
	s := NewServer(comp)
	s.Register("echo", Func(func(req []byte) ([]byte, error) {
		return req, nil
	}))
	s.Register("fail", Func(func(req []byte) ([]byte, error) {
		return nil, errors.New("handler exploded")
	}))
	return s
}

func TestCallUncompressed(t *testing.T) {
	comp := Compression{}
	c := pipePair(t, echoServer(comp), comp)
	payload := []byte("hello over the wire")
	resp, err := c.Call(context.Background(), "echo", payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, payload) {
		t.Fatal("echo mismatch")
	}
	st := c.Stats()
	if st.RawBytes != st.WireBytes {
		t.Fatalf("no compression configured but bytes differ: %+v", st)
	}
	if st.Calls != 1 {
		t.Fatalf("calls = %d", st.Calls)
	}
}

func TestCallCompressedSavesWireBytes(t *testing.T) {
	comp := Compression{Codec: "zstd", Level: 1}
	c := pipePair(t, echoServer(comp), comp)
	payload := corpus.LogLines(1, 64<<10)
	resp, err := c.Call(context.Background(), "echo", payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, payload) {
		t.Fatal("echo mismatch")
	}
	st := c.Stats()
	if st.WireBytes >= st.RawBytes {
		t.Fatalf("compression saved nothing: %+v", st)
	}
	if st.Saved() < 0.5 {
		t.Fatalf("logs should compress well on the wire: saved %.2f", st.Saved())
	}
	if st.CompressTime <= 0 || st.DecompressTime <= 0 {
		t.Fatalf("codec time not accounted: %+v", st)
	}
}

func TestSmallMessagesSkipCodec(t *testing.T) {
	comp := Compression{Codec: "zstd", Level: 1}
	c := pipePair(t, echoServer(comp), comp)
	payload := corpus.LogLines(4, MinSize-1)
	resp, err := c.Call(context.Background(), "echo", payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, payload) {
		t.Fatal("echo mismatch")
	}
	if st := c.Stats(); st.CompressTime != 0 || st.WireBytes != st.RawBytes {
		t.Fatalf("a payload below MinSize hit the codec: %+v", st)
	}
	if _, err := c.Call(context.Background(), "echo", corpus.LogLines(4, MinSize)); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.CompressTime == 0 {
		t.Fatalf("a payload of MinSize skipped the codec: %+v", st)
	}
}

func TestIncompressiblePayloadSentRaw(t *testing.T) {
	comp := Compression{Codec: "lz4", Level: 1}
	c := pipePair(t, echoServer(comp), comp)
	blob := make([]byte, 16<<10)
	for i := range blob {
		blob[i] = byte(i*7 + i>>3*131)
	}
	// Make truly random-ish.
	rngFill(blob)
	resp, err := c.Call(context.Background(), "echo", blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, blob) {
		t.Fatal("mismatch")
	}
	// Wire bytes should not exceed raw by more than framing noise.
	st := c.Stats()
	if st.WireBytes > st.RawBytes+64 {
		t.Fatalf("incompressible payload expanded on the wire: %+v", st)
	}
}

func rngFill(b []byte) {
	x := uint64(88172645463325252)
	for i := range b {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = byte(x)
	}
}

func TestRemoteError(t *testing.T) {
	comp := Compression{Codec: "zstd"}
	c := pipePair(t, echoServer(comp), comp)
	_, err := c.Call(context.Background(), "fail", []byte("boom"))
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "exploded") {
		t.Fatalf("want RemoteError, got %v", err)
	}
	// Connection remains usable after a handler error.
	if _, err := c.Call(context.Background(), "echo", []byte("still alive")); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownMethod(t *testing.T) {
	comp := Compression{}
	c := pipePair(t, echoServer(comp), comp)
	_, err := c.Call(context.Background(), "nope", nil)
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "unknown method") {
		t.Fatalf("got %v", err)
	}
	if _, err := c.Call(context.Background(), "", nil); err == nil {
		t.Fatal("empty method accepted")
	}
}

func TestBadCodecRejected(t *testing.T) {
	if _, err := NewClient(nil, Compression{Codec: "bogus"}); err == nil {
		t.Fatal("bogus codec accepted")
	}
	s := NewServer(Compression{Codec: "bogus"})
	cc, sc := net.Pipe()
	defer cc.Close()
	defer sc.Close()
	if err := s.ServeConn(context.Background(), sc); err == nil {
		t.Fatal("server accepted bogus codec")
	}
}

func TestOverTCP(t *testing.T) {
	comp := Compression{Codec: "zstd", Level: 1}
	s := echoServer(comp)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	defer ln.Close()
	go s.Serve(context.Background(), ln)

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c, err := NewClient(conn, comp)
	if err != nil {
		t.Fatal(err)
	}
	payload := corpus.LogLines(3, 32<<10)
	for i := 0; i < 5; i++ {
		resp, err := c.Call(context.Background(), "echo", payload)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp, payload) {
			t.Fatal("mismatch over TCP")
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	comp := Compression{Codec: "lz4", Level: 1}
	s := echoServer(comp)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := pipePair(t, s, comp)
			payload := corpus.LogLines(int64(g), 8<<10)
			for i := 0; i < 10; i++ {
				resp, err := c.Call(context.Background(), "echo", payload)
				if err != nil || !bytes.Equal(resp, payload) {
					t.Errorf("client %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestStatsConcurrentWithCalls(t *testing.T) {
	// Stats snapshots must be safe while calls are in flight on both ends
	// (the race detector enforces this).
	comp := Compression{Codec: "zstd", Level: 1}
	s := echoServer(comp)
	c := pipePair(t, s, comp)
	before := counted()
	payload := corpus.LogLines(5, 16<<10)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				_ = c.Stats()
				_ = counted()
			}
		}
	}()
	for i := 0; i < 50; i++ {
		resp, err := c.Call(context.Background(), "echo", payload)
		if err != nil || !bytes.Equal(resp, payload) {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	close(done)
	wg.Wait()

	st := c.Stats()
	if st.Calls != 50 {
		t.Fatalf("client calls = %d, want 50", st.Calls)
	}
	// The server end counts its calls while the connection is still live.
	if srv := serverSince(before, c); srv.Calls != 50 {
		t.Fatalf("server calls = %d, want 50", srv.Calls)
	}
}

func TestClientCloseReleasesEngine(t *testing.T) {
	comp := Compression{Codec: "zstd", Level: 1}
	c := pipePair(t, echoServer(comp), comp)
	payload := corpus.LogLines(9, 8<<10)
	if _, err := c.Call(context.Background(), "echo", payload); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	// Stats remain readable after Close.
	if st := c.Stats(); st.Calls != 1 {
		t.Fatalf("calls after close = %d", st.Calls)
	}
}

func TestServerStatsAggregation(t *testing.T) {
	comp := Compression{Codec: "zstd", Level: 1}
	s := echoServer(comp)
	cc, sc := net.Pipe()
	done := make(chan struct{})
	go func() {
		_ = s.ServeConn(context.Background(), sc)
		close(done)
	}()
	c, err := NewClient(cc, comp)
	if err != nil {
		t.Fatal(err)
	}
	before := counted()
	if _, err := c.Call(context.Background(), "echo", corpus.LogLines(1, 32<<10)); err != nil {
		t.Fatal(err)
	}
	cc.Close()
	sc.Close()
	<-done
	st := serverSince(before, c)
	if st.RawBytes == 0 || st.WireBytes == 0 {
		t.Fatalf("server stats empty: %+v", st)
	}
}
