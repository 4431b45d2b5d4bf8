package rpc

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"github.com/datacomp/datacomp/internal/corpus"
	"github.com/datacomp/datacomp/internal/faultinject"
)

// TestReadFrameRejectsMalformedInput walks every header-level failure mode
// of the frame parser: each must surface as ErrCorrupt, never a panic and
// never a silently wrong message.
func TestReadFrameRejectsMalformedInput(t *testing.T) {
	good := EncodeFrame(0, "echo", []byte("payload bytes here"))
	mutate := func(i int, bit byte) []byte {
		mut := append([]byte(nil), good...)
		mut[i] ^= bit
		return mut
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"unknown flags", mutate(0, 0x80)},
		{"short header", good[:1]},
		{"truncated method", good[:2]},
		{"truncated checksum", good[:len(good)-len("payload bytes here")-4]},
		{"truncated payload", good[:len(good)-3]},
		// 0xFF 0xFF ... varint promises an mlen far beyond maxMethod.
		{"oversized method length", []byte{0, 0xFF, 0xFF, 0xFF, 0x7F}},
		// Valid empty method, then plen > maxFrame.
		{"oversized payload length", []byte{0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}},
		{"flipped method byte", mutate(2, 0x01)},
		{"flipped checksum byte", mutate(len(good)-len("payload bytes here")-1, 0x20)},
		{"flipped payload byte", mutate(len(good)-1, 0x04)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, err := ParseFrame(tc.data)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}

	// Clean close between frames is EOF, not corruption.
	if _, _, _, err := ParseFrame(nil); err != io.EOF {
		t.Fatalf("empty input: %v, want io.EOF", err)
	}
	// And the unmutated frame parses back exactly.
	flags, method, payload, err := ParseFrame(good)
	if err != nil || flags != 0 || string(method) != "echo" || string(payload) != "payload bytes here" {
		t.Fatalf("good frame: %v %d %q %q", err, flags, method, payload)
	}
}

// TestServerRejectsCorruptStream feeds a server connection a frame with
// every byte bit-flipped: ServeConn must terminate with ErrCorrupt.
func TestServerRejectsCorruptStream(t *testing.T) {
	frame := EncodeFrame(0, "echo", corpus.LogLines(1, 4<<10))
	for seed := uint64(1); seed <= 8; seed++ {
		conn := faultinject.New(
			struct {
				io.Reader
				io.Writer
			}{bytes.NewReader(frame), io.Discard},
			faultinject.WithSeed(seed), faultinject.WithBitFlips(1),
		)
		s := echoServer(Compression{})
		err := s.ServeConn(context.Background(), conn)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("seed %d: ServeConn = %v, want ErrCorrupt", seed, err)
		}
	}
}

// TestChaosBitFlips runs calls through connections that randomly flip
// bits on the client's read side. Every call must either return the exact
// payload or fail with ErrCorrupt (or a connection-teardown error) — a
// silently wrong response is the one unacceptable outcome. A checksum
// mismatch leaves the stream aligned and the client keeps its connection;
// any other failure breaks it, and the caller closes it and dials again.
func TestChaosBitFlips(t *testing.T) {
	comp := Compression{Codec: "zstd", Level: 1, Checksum: true}
	s := echoServer(comp)
	seed := uint64(0)
	dial := func() *Client {
		cc, sc := net.Pipe()
		go func() {
			_ = s.ServeConn(context.Background(), sc)
			sc.Close()
		}()
		t.Cleanup(func() { cc.Close() })
		seed++
		c, err := NewClient(faultinject.New(cc,
			faultinject.WithSeed(seed), faultinject.WithBitFlips(0.0005)), comp)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c := dial()
	payload := corpus.LogLines(7, 8<<10)
	ctx := context.Background()
	ok, corruptErrs, redials := 0, 0, 0
	for i := 0; i < 60; i++ {
		resp, err := c.Call(ctx, "echo", payload)
		switch {
		case err == nil:
			if !bytes.Equal(resp, payload) {
				t.Fatalf("call %d: silently wrong payload", i)
			}
			ok++
		case errors.Is(err, ErrCorrupt):
			corruptErrs++
		case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF),
			errors.Is(err, io.ErrClosedPipe), errors.Is(err, net.ErrClosed):
			// Connection teardown after a desync is a legal failure shape.
		default:
			t.Fatalf("call %d: unexpected error class: %v", i, err)
		}
		if err != nil && !isAligned(err) {
			c.Close()
			c = dial()
			redials++
		}
	}
	c.Close()
	if ok == 0 {
		t.Fatal("no call survived the chaos run; flip rate too hot to test recovery")
	}
	if corruptErrs == 0 {
		t.Fatal("no corruption detected over 60 flipped calls; injection ineffective")
	}
	t.Logf("%d ok, %d corrupt, %d redials", ok, corruptErrs, redials)
}

// writeCounter counts the bytes written through it.
type writeCounter struct {
	io.ReadWriter
	n int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.n += len(p)
	return w.ReadWriter.Write(p)
}

// TestTruncationSurfacesAsCorrupt cuts the response stream mid-frame: the
// call fails with ErrCorrupt, and the client, no longer frame-aligned,
// refuses the next call with ErrBroken without writing to the connection.
func TestTruncationSurfacesAsCorrupt(t *testing.T) {
	comp := Compression{}
	s := echoServer(comp)
	cc, sc := net.Pipe()
	go func() {
		_ = s.ServeConn(context.Background(), sc)
		sc.Close()
	}()
	conn := &writeCounter{ReadWriter: faultinject.New(cc, faultinject.WithTruncate(10))}
	c, err := NewClient(conn, comp)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	_, err = c.Call(context.Background(), "echo", corpus.LogLines(2, 4<<10))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated response: %v, want ErrCorrupt", err)
	}
	written := conn.n
	if _, err := c.Call(context.Background(), "echo", []byte("next")); !errors.Is(err, ErrBroken) {
		t.Fatalf("call after a truncated reply: %v, want ErrBroken", err)
	}
	if conn.n != written {
		t.Fatalf("broken client wrote %d more bytes", conn.n-written)
	}
}

// TestRemoteErrorNotRetried: a handler failure proves the transport works.
// The call fails with the handler's error after one run, and the same
// connection serves the next call.
func TestRemoteErrorNotRetried(t *testing.T) {
	comp := Compression{}
	s := NewServer(comp)
	calls := 0
	s.Register("flaky", Func(func(req []byte) ([]byte, error) {
		calls++
		return nil, errors.New("handler failure")
	}))
	s.Register("echo", Func(func(req []byte) ([]byte, error) { return req, nil }))
	cc, sc := net.Pipe()
	go func() {
		_ = s.ServeConn(context.Background(), sc)
		sc.Close()
	}()
	defer cc.Close()
	c, err := NewClient(cc, comp)
	if err != nil {
		t.Fatal(err)
	}
	var re *RemoteError
	if _, err := c.Call(context.Background(), "flaky", nil); !errors.As(err, &re) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	if calls != 1 {
		t.Fatalf("handler ran %d times, want 1", calls)
	}
	if resp, err := c.Call(context.Background(), "echo", []byte("next")); err != nil || string(resp) != "next" {
		t.Fatalf("call after a remote error: %q, %v", resp, err)
	}
}

// TestDeadlinePropagates arms the context deadline on the connection: a
// slow handler must fail the call with DeadlineExceeded, promptly.
func TestDeadlinePropagates(t *testing.T) {
	comp := Compression{}
	s := NewServer(comp)
	s.Register("slow", Func(func(req []byte) ([]byte, error) {
		time.Sleep(2 * time.Second)
		return req, nil
	}))
	cc, sc := net.Pipe()
	go func() {
		_ = s.ServeConn(context.Background(), sc)
		sc.Close()
	}()
	defer cc.Close()
	c, err := NewClient(cc, comp)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err = c.Call(ctx, "slow", []byte("x"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(t0); elapsed > time.Second {
		t.Fatalf("deadline did not unblock the call: took %v", elapsed)
	}
}

// TestCancelPropagates unblocks an in-flight call on context cancellation.
func TestCancelPropagates(t *testing.T) {
	comp := Compression{}
	s := NewServer(comp)
	release := make(chan struct{})
	s.Register("hang", Func(func(req []byte) ([]byte, error) {
		<-release
		return req, nil
	}))
	defer close(release)
	cc, sc := net.Pipe()
	go func() {
		_ = s.ServeConn(context.Background(), sc)
		sc.Close()
	}()
	defer cc.Close()
	c, err := NewClient(cc, comp)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	t0 := time.Now()
	_, err = c.Call(ctx, "hang", []byte("x"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	if elapsed := time.Since(t0); elapsed > time.Second {
		t.Fatalf("cancel did not unblock the call: took %v", elapsed)
	}
}

// TestClosedClientFailsFast enforces the post-Close contract.
func TestClosedClientFailsFast(t *testing.T) {
	cc, sc := net.Pipe()
	defer cc.Close()
	defer sc.Close()
	c, err := NewClient(cc, Compression{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(context.Background(), "echo", nil); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("want ErrClientClosed, got %v", err)
	}
}

// TestChecksumMismatchKeepsConnectionAligned: a checksum failure is
// detected after the full frame is consumed, so the same connection keeps
// serving without a redial. So is a compressed frame on an uncompressed
// link, whose checksum holds but which no engine can decode.
func TestChecksumMismatchKeepsConnectionAligned(t *testing.T) {
	good := EncodeFrame(0, "m", []byte("payload"))
	flip := append([]byte(nil), good...)
	flip[len(flip)-1] ^= 0x01
	coded := EncodeFrame(flagCompressed, "m", []byte("payload"))
	stream := append(append(append([]byte(nil), flip...), coded...), good...)
	t2 := &transport{r: bufio.NewReader(bytes.NewReader(stream))}
	for _, name := range []string{"flipped frame", "compressed frame on an uncompressed link"} {
		if _, _, _, _, err := t2.readFrame(nil); !errors.Is(err, ErrCorrupt) || !isAligned(err) {
			t.Fatalf("%s: err = %v (aligned = %v)", name, err, isAligned(err))
		}
	}
	_, method, payload, _, err := t2.readFrame(nil)
	if err != nil || string(method) != "m" || string(payload) != "payload" {
		t.Fatalf("aligned stream did not recover: %v %q %q", err, method, payload)
	}
}
