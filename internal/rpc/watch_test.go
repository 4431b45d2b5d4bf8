package rpc

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// watchesOf reads the client's watch-registration count.
func watchesOf(c *Client) int {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.watches
}

// Cancelling the context of a call that already returned must never fail
// the next call, which runs on a fresh context while the old context's
// watch fires: the callback finds a different call in flight and does
// nothing.
func TestWatchLateCancelNeverPoisons(t *testing.T) {
	comp := Compression{}
	c := pipePair(t, echoServer(comp), comp)
	payload := []byte("the next call")
	prev := context.CancelFunc(func() {})
	var wg sync.WaitGroup
	for i := 0; i < 1000; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		wg.Add(1)
		go func(cancelPrev context.CancelFunc) {
			defer wg.Done()
			cancelPrev()
		}(prev)
		resp, err := c.Call(ctx, "echo", payload)
		if err != nil || !bytes.Equal(resp, payload) {
			t.Fatalf("call %d, racing the cancel of call %d's context: %q, %v", i, i-1, resp, err)
		}
		wg.Wait()
		prev = cancel
	}
	prev()
}

// A context that is over before the call starts fails the call with its
// own error and leaves the connection usable — whether the context is new
// to the client or its watch fired while no call was in flight.
func TestWatchPreCancelled(t *testing.T) {
	comp := Compression{}
	c := pipePair(t, echoServer(comp), comp)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Call(ctx, "echo", []byte("x")); !errors.Is(err, context.Canceled) {
		t.Fatalf("fresh cancelled context: %v, want context.Canceled", err)
	}

	watched, cancelWatched := context.WithCancel(context.Background())
	if _, err := c.Call(watched, "echo", []byte("x")); err != nil {
		t.Fatal(err)
	}
	cancelWatched()
	t0 := time.Now()
	if _, err := c.Call(watched, "echo", []byte("x")); !errors.Is(err, context.Canceled) {
		t.Fatalf("watched context cancelled between calls: %v, want context.Canceled", err)
	}
	if elapsed := time.Since(t0); elapsed > time.Second {
		t.Fatalf("cancelled call took %v", elapsed)
	}
	if resp, err := c.Call(context.Background(), "echo", []byte("after")); err != nil || string(resp) != "after" {
		t.Fatalf("call after the cancelled ones: %q, %v", resp, err)
	}
}

// Calls on one context register one watch, which still wakes a call that
// hangs long after it was registered. Contexts sharing a Done channel share
// the watch; a context without one needs none.
func TestWatchOnePerContext(t *testing.T) {
	comp := Compression{}
	s := echoServer(comp)
	release := make(chan struct{})
	defer close(release)
	s.Register("hang", Func(func(req []byte) ([]byte, error) {
		<-release
		return req, nil
	}))
	c := pipePair(t, s, comp)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 50; i++ {
		if _, err := c.Call(ctx, "echo", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	type key struct{}
	if _, err := c.Call(context.WithValue(ctx, key{}, 1), "echo", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(context.Background(), "echo", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if n := watchesOf(c); n != 1 {
		t.Fatalf("%d watches registered for one Done channel, want 1", n)
	}

	other, cancelOther := context.WithCancel(context.Background())
	for i := 0; i < 10; i++ {
		if _, err := c.Call(other, "echo", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if n := watchesOf(c); n != 2 {
		t.Fatalf("%d watches after a second context, want 2", n)
	}
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancelOther()
	}()
	t0 := time.Now()
	if _, err := c.Call(other, "hang", []byte("x")); !errors.Is(err, context.Canceled) {
		t.Fatalf("hanging call on a long-watched context: %v, want context.Canceled", err)
	}
	if elapsed := time.Since(t0); elapsed > time.Second {
		t.Fatalf("cancel did not unblock the call: took %v", elapsed)
	}
}

// pastDeadlineConn counts deadlines set in the past: what a cancellation
// watch does to wake a call.
type pastDeadlineConn struct {
	net.Conn
	past atomic.Int32
}

func (d *pastDeadlineConn) SetDeadline(t time.Time) error {
	if !t.IsZero() && t.Before(time.Now()) {
		d.past.Add(1)
	}
	return d.Conn.SetDeadline(t)
}

// Close unregisters the watch: cancelling the context afterwards sets no
// deadline on the connection.
func TestWatchStoppedByClose(t *testing.T) {
	comp := Compression{}
	s := echoServer(comp)
	cc, sc := net.Pipe()
	go func() {
		_ = s.ServeConn(context.Background(), sc)
		sc.Close()
	}()
	defer cc.Close()
	conn := &pastDeadlineConn{Conn: cc}
	c, err := NewClient(conn, comp)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := c.Call(ctx, "echo", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c.wmu.Lock()
	registered := c.wstop != nil
	c.wmu.Unlock()
	if registered {
		t.Fatal("watch still registered after Close")
	}
	cancel()
	// An absence has no event to wait on; a callback still registered would
	// run within this window.
	time.Sleep(20 * time.Millisecond)
	if n := conn.past.Load(); n != 0 {
		t.Fatalf("cancelling after Close set %d past deadlines on the connection", n)
	}
}
