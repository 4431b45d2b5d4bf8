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

// TestChaosBitFlips runs calls through a connection that randomly flips
// bits on the client's read side. Every call must either return the exact
// payload or fail with ErrCorrupt (or a connection-teardown error) — a
// silently wrong response is the one unacceptable outcome. The client
// redials desynced connections and keeps going.
func TestChaosBitFlips(t *testing.T) {
	comp := Compression{Codec: "zstd", Level: 1, Checksum: true}
	s := echoServer(comp)
	seed := uint64(0)
	dial := func(ctx context.Context) (io.ReadWriter, error) {
		cc, sc := net.Pipe()
		go func() {
			_ = s.ServeConn(context.Background(), sc)
			sc.Close()
		}()
		seed++
		return faultinject.New(cc,
			faultinject.WithSeed(seed), faultinject.WithBitFlips(0.0005)), nil
	}
	conn, _ := dial(context.Background())
	c, err := NewClient(conn, comp, WithRedial(dial))
	if err != nil {
		t.Fatal(err)
	}
	payload := corpus.LogLines(7, 8<<10)
	ctx := context.Background()
	ok, corruptErrs := 0, 0
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
	}
	if ok == 0 {
		t.Fatal("no call survived the chaos run; flip rate too hot to test recovery")
	}
	if corruptErrs == 0 {
		t.Fatal("no corruption detected over 60 flipped calls; injection ineffective")
	}
}

// TestTruncationSurfacesAsCorrupt cuts the response stream mid-frame.
func TestTruncationSurfacesAsCorrupt(t *testing.T) {
	comp := Compression{}
	s := echoServer(comp)
	cc, sc := net.Pipe()
	go func() {
		_ = s.ServeConn(context.Background(), sc)
		sc.Close()
	}()
	conn := faultinject.New(cc, faultinject.WithTruncate(10))
	c, err := NewClient(conn, comp)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	_, err = c.Call(context.Background(), "echo", corpus.LogLines(2, 4<<10))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated response: %v, want ErrCorrupt", err)
	}
}

// TestRetryRecoversIdempotentCall gives the client a dead first connection
// and a working redial: with a retry policy marking "echo" idempotent, the
// call must succeed on the second attempt.
func TestRetryRecoversIdempotentCall(t *testing.T) {
	comp := Compression{Codec: "lz4", Level: 1}
	s := echoServer(comp)
	dial := func(ctx context.Context) (io.ReadWriter, error) {
		cc, sc := net.Pipe()
		go func() {
			_ = s.ServeConn(context.Background(), sc)
			sc.Close()
		}()
		return cc, nil
	}
	// First connection: closed before use, so attempt 1 fails at the
	// transport layer.
	cc, sc := net.Pipe()
	cc.Close()
	sc.Close()
	c, err := NewClient(cc, comp,
		WithRedial(dial),
		WithRetry(RetryPolicy{
			Max:        2,
			Backoff:    time.Millisecond,
			Idempotent: func(method string) bool { return method == "echo" },
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	payload := corpus.LogLines(3, 8<<10)
	resp, err := c.Call(context.Background(), "echo", payload)
	if err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	if !bytes.Equal(resp, payload) {
		t.Fatal("payload mismatch after retry")
	}
}

// TestNonIdempotentNeverRetries: the same dead-first-connection setup must
// fail when the method is not marked idempotent — re-executing a request
// whose fate is unknown is the caller's call, not the transport's.
func TestNonIdempotentNeverRetries(t *testing.T) {
	comp := Compression{}
	cc, sc := net.Pipe()
	cc.Close()
	sc.Close()
	dialed := 0
	c, err := NewClient(cc, comp,
		WithRedial(func(ctx context.Context) (io.ReadWriter, error) {
			dialed++
			return nil, errors.New("dial refused")
		}),
		WithRetry(RetryPolicy{
			Max:        3,
			Backoff:    time.Millisecond,
			Idempotent: func(string) bool { return false },
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(context.Background(), "mutate", []byte("x")); err == nil {
		t.Fatal("call on dead connection succeeded")
	}
	if dialed != 0 {
		t.Fatalf("non-idempotent call redialed %d times", dialed)
	}
}

// TestRemoteErrorNotRetried: a handler failure proves the transport works;
// retrying would re-execute the request.
func TestRemoteErrorNotRetried(t *testing.T) {
	comp := Compression{}
	s := NewServer(comp)
	calls := 0
	s.Register("flaky", Func(func(req []byte) ([]byte, error) {
		calls++
		return nil, errors.New("handler failure")
	}))
	cc, sc := net.Pipe()
	go func() {
		_ = s.ServeConn(context.Background(), sc)
		sc.Close()
	}()
	defer cc.Close()
	c, err := NewClient(cc, comp, WithRetry(RetryPolicy{
		Max:        3,
		Backoff:    time.Millisecond,
		Idempotent: func(string) bool { return true },
	}))
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
}

// TestCircuitBreaker opens after consecutive transport failures, fast-fails
// while open, and closes again after a successful half-open probe.
func TestCircuitBreaker(t *testing.T) {
	comp := Compression{}
	cc, sc := net.Pipe()
	cc.Close()
	sc.Close()
	c, err := NewClient(cc, comp, WithBreaker(BreakerPolicy{Threshold: 2, Cooldown: time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Unix(1000, 0)
	c.now = func() time.Time { return clock }

	for i := 0; i < 2; i++ {
		if _, err := c.Call(context.Background(), "echo", nil); err == nil {
			t.Fatal("call on dead connection succeeded")
		}
	}
	// Threshold reached: the breaker is open and calls fail fast.
	if _, err := c.Call(context.Background(), "echo", nil); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("want ErrCircuitOpen, got %v", err)
	}

	// Cooldown elapses; the half-open probe goes through a working redial
	// and its success closes the breaker.
	s := echoServer(comp)
	c.redial = func(ctx context.Context) (io.ReadWriter, error) {
		cc, sc := net.Pipe()
		go func() {
			_ = s.ServeConn(context.Background(), sc)
			sc.Close()
		}()
		return cc, nil
	}
	clock = clock.Add(2 * time.Hour)
	if _, err := c.Call(context.Background(), "echo", []byte("probe")); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if c.fails != 0 {
		t.Fatalf("breaker did not close after probe: fails = %d", c.fails)
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

// TestServerShedsCompressionUnderLoad: past the inflight threshold the
// server answers uncompressed — more wire bytes, but no codec CPU spent.
func TestServerShedsCompressionUnderLoad(t *testing.T) {
	comp := Compression{Codec: "zstd", Level: 1}
	big := corpus.LogLines(9, 32<<10)
	run := func(overload bool) Stats {
		s := NewServer(comp, WithShedThreshold(4))
		s.Register("fetch", Func(func(req []byte) ([]byte, error) { return big, nil }))
		if overload {
			// Synthetic pressure: pretend other connections hold requests in
			// flight past the shed threshold.
			s.inflight.Add(10)
		}
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
		resp, err := c.Call(context.Background(), "fetch", []byte("k"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp, big) {
			t.Fatal("payload mismatch")
		}
		return s.Stats()
	}
	normal := run(false)
	if normal.WireBytes >= normal.RawBytes {
		t.Fatalf("control run did not compress: %+v", normal)
	}
	shed := run(true)
	if shed.WireBytes != shed.RawBytes {
		t.Fatalf("overloaded server still compressed: %+v", shed)
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
// serving without a redial.
func TestChecksumMismatchKeepsConnectionAligned(t *testing.T) {
	good := EncodeFrame(0, "m", []byte("payload"))
	flip := append([]byte(nil), good...)
	flip[len(flip)-1] ^= 0x01
	stream := append(append([]byte(nil), flip...), good...)
	t2 := &transport{r: bufio.NewReader(bytes.NewReader(stream))}
	if _, _, _, err := t2.readFrame(nil); !errors.Is(err, ErrCorrupt) || !isAligned(err) {
		t.Fatalf("flipped frame: err = %v (aligned = %v)", err, isAligned(err))
	}
	_, method, payload, err := t2.readFrame(nil)
	if err != nil || string(method) != "m" || string(payload) != "payload" {
		t.Fatalf("aligned stream did not recover: %v %q %q", err, method, payload)
	}
}
