package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/datacomp/datacomp/internal/corpus"
)

// payloadFor is call i's request: a distinct, partly compressible payload
// whose size walks across MinSize and past the server's reply-buffer cap.
func payloadFor(i int) []byte {
	sizes := []int{0, 7, 200, 300, 4 << 10, 70 << 10, 17, 100 << 10, 1 << 10}
	n := sizes[i%len(sizes)]
	b := make([]byte, n)
	for j := range b {
		b[j] = byte('a' + (i+j/16)%26)
	}
	if n >= 4 {
		binary.LittleEndian.PutUint32(b, uint32(i))
	}
	return b
}

// An echo handler that returns req — aliasing the connection's read
// scratch — and an append-form handler that writes into the connection's
// reply buffer alternate on one connection, compressed and not, above and
// below the kept-buffer cap. Every reply must be its own request's answer,
// whether read into a fresh slice (Call) or appended behind a prefix into a
// reused buffer (AppendCall), and replies already returned must never
// change underneath their callers.
func TestReplyBufferInterleavedHandlers(t *testing.T) {
	comp := Compression{Codec: "lz4", Level: 1, Checksum: true}
	s := NewServer(comp)
	s.Register("echo", Func(func(req []byte) ([]byte, error) { return req, nil }))
	s.RegisterAppend("rev", func(_ context.Context, dst, req []byte) ([]byte, error) {
		for i := len(req) - 1; i >= 0; i-- {
			dst = append(dst, req[i])
		}
		return dst, nil
	})
	c := pipePair(t, s, comp)

	const workers, calls = 3, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			prefix := []byte(fmt.Sprintf("worker-%d:", w))
			dst := append([]byte(nil), prefix...)
			var kept [][]byte
			var want [][]byte
			for i := 0; i < calls; i++ {
				req := payloadFor(w*calls + i)
				method, exp := "echo", req
				if i%2 == 1 {
					method, exp = "rev", slices.Clone(req)
					slices.Reverse(exp)
				}
				if i%3 == 0 {
					resp, err := c.Call(context.Background(), method, req)
					if err != nil || !bytes.Equal(resp, exp) {
						t.Errorf("worker %d call %d %s: %d bytes, err=%v; want %d bytes", w, i, method, len(resp), err, len(exp))
						return
					}
					kept, want = append(kept, resp), append(want, exp)
					continue
				}
				out, err := c.AppendCall(context.Background(), dst[:len(prefix)], method, req)
				if err != nil || !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], exp) {
					t.Errorf("worker %d append call %d %s: %d bytes, err=%v; want prefix + %d bytes", w, i, method, len(out), err, len(exp))
					return
				}
				dst = out
			}
			for i := range kept {
				if !bytes.Equal(kept[i], want[i]) {
					t.Errorf("worker %d: reply %d changed after later calls", w, i)
				}
			}
		}(w)
	}
	wg.Wait()
}

// A prefix already in dst is the caller's, not the reply's: a remote error
// carries only the handler's message, and the raw-byte counters (the
// client's Stats and rpc_raw_bytes_total, which both ends feed) count only
// payload bytes, compressed on the wire or not.
func TestReplyBufferPrefixNotCounted(t *testing.T) {
	for name, comp := range map[string]Compression{
		"plain": {},
		"lz4":   {Codec: "lz4", Level: 1, Checksum: true},
		"zstd":  {Codec: "zstd", Level: 1},
		"zlib":  {Codec: "zlib", Level: 1},
	} {
		t.Run(name, func(t *testing.T) {
			c := pipePair(t, echoServer(comp), comp)
			prefix := bytes.Repeat([]byte{'p'}, 1000)
			req := bytes.Repeat([]byte("compressible "), 100)
			raw0, stats0 := tmRawBytes.Value(), c.Stats()
			out, err := c.AppendCall(context.Background(), prefix, "echo", req)
			if err != nil || !bytes.Equal(out, append(append([]byte(nil), prefix...), req...)) {
				t.Fatalf("append call: %d bytes, err=%v", len(out), err)
			}
			// Request and reply, each counted once by its writer and once by
			// its reader.
			if got, want := tmRawBytes.Value()-raw0, int64(4*len(req)); got != want {
				t.Errorf("rpc_raw_bytes_total grew %d, want %d", got, want)
			}
			if got, want := c.Stats().RawBytes-stats0.RawBytes, int64(2*len(req)); got != want {
				t.Errorf("client RawBytes grew %d, want %d", got, want)
			}

			out, err = c.AppendCall(context.Background(), prefix, "fail", nil)
			var re *RemoteError
			if !errors.As(err, &re) || re.Msg != "handler exploded" {
				t.Fatalf("remote error = %v, want exactly the handler's message", err)
			}
			if !bytes.Equal(out, prefix) {
				t.Errorf("a failed call returned %d bytes, want dst unchanged", len(out))
			}
		})
	}
}

// A frame header may claim up to maxFrame of payload. Parsing a 28-byte
// frame that claims 64 MiB and carries 10 bytes allocates on what arrived,
// not on the claim.
func TestFrameClaimAllocatesWhatArrives(t *testing.T) {
	frame := append([]byte{0, 4}, "echo"...)
	frame = binary.AppendUvarint(frame, maxFrame)
	frame = append(frame, make([]byte, frameSumLen)...)
	frame = append(frame, "ten bytes!"...)
	if len(frame) != 28 {
		t.Fatalf("frame is %d bytes, want 28", len(frame))
	}
	ParseFrame(frame) // registers telemetry once, outside the measurement
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err := ParseFrame(frame)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want a truncated frame", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > readStep+16<<10 {
		t.Fatalf("parsing a 28-byte frame that claims %d bytes allocated %d bytes", maxFrame, n)
	}
}

// A compressed frame past maxKeptBuffer is coded through scratch that its
// transport drops afterwards: one 1 MiB call must not pin a megabyte on
// either end of the connection for its lifetime, and the next call still
// round-trips through the scratch the transports do keep.
func TestTransportScratchCapped(t *testing.T) {
	comp := Compression{Codec: "lz4", Level: 1, Checksum: true}
	s := echoServer(comp)
	c := pipePair(t, s, comp)
	for _, req := range [][]byte{corpus.LogLines(1, 1<<20), corpus.LogLines(2, 8<<10)} {
		resp, err := c.Call(context.Background(), "echo", req)
		if err != nil || !bytes.Equal(resp, req) {
			t.Fatalf("%d-byte call: %d bytes back, err=%v", len(req), len(resp), err)
		}
		c.mu.Lock()
		ends := []*transport{c.t}
		c.mu.Unlock()
		s.mu.RLock()
		for st := range s.live {
			ends = append(ends, st)
		}
		s.mu.RUnlock()
		if len(ends) != 2 {
			t.Fatalf("%d transports, want the client's and one server connection", len(ends))
		}
		for i, tr := range ends {
			if cap(tr.buf) > maxKeptBuffer || cap(tr.rbuf) > maxKeptBuffer {
				t.Fatalf("after a %d-byte call, end %d keeps buf %d and rbuf %d bytes; cap is %d",
					len(req), i, cap(tr.buf), cap(tr.rbuf), maxKeptBuffer)
			}
		}
	}
}
