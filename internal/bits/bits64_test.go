package bits

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestWriter64ReaderRoundtrip(t *testing.T) {
	var w Writer64
	w.ResetBuf(nil)
	vals := []struct {
		v uint64
		n uint
	}{
		{0x1, 1}, {0x0, 1}, {0x5, 3}, {0xff, 8}, {0x1234, 16},
		{0xdeadbeef, 32}, {0x3ffffffffffff, 50}, {0, 0}, {0x7, 3},
	}
	for _, x := range vals {
		w.WriteBits(x.v, x.n)
	}
	data := w.Flush()
	var r Reader64
	r.Init(data)
	for i, x := range vals {
		r.Refill()
		want := x.v & ((1 << x.n) - 1)
		if got := r.ReadBits(x.n); got != want {
			t.Fatalf("read %d: got %#x want %#x", i, got, want)
		}
	}
	if r.Overrun() {
		t.Fatal("in-bounds reads reported overrun")
	}
}

func TestWriter64MatchesWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var old oracle
		var w64 Writer64
		w64.ResetBuf(nil)
		nbits := uint(0)
		for i := 0; i < 200; i++ {
			n := uint(rng.Intn(24) + 1)
			v := rng.Uint64()
			old.write(v, n)
			if nbits+n > 64 {
				w64.Carry()
				nbits = uint(w64.BitsWritten()) & 7
			}
			w64.Add(v, n)
			nbits += n
		}
		if !bytes.Equal(old.buf, w64.Flush()) {
			t.Fatalf("trial %d: Writer64 stream differs from the bit-at-a-time oracle", trial)
		}
	}
}

// TestReader64TailRefill exercises a refill landing exactly at the final
// full window and reads that span the last partial word.
func TestReader64TailRefill(t *testing.T) {
	for size := 1; size <= 24; size++ {
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i + 1)
		}
		var r Reader64
		r.Init(data)
		for i, b := range data {
			r.Refill()
			if got := r.ReadBits(8); got != uint64(b) {
				t.Fatalf("size %d byte %d: got %#x want %#x", size, i, got, b)
			}
		}
		if r.Overrun() {
			t.Fatalf("size %d: spurious overrun", size)
		}
		// One read past the end: zero bits, then overrun reports.
		r.Refill()
		if got := r.ReadBits(4); got != 0 {
			t.Fatalf("size %d: read past end got %#x want 0", size, got)
		}
		if !r.Overrun() {
			t.Fatalf("size %d: overrun not reported", size)
		}
	}
}

// TestReader64AccumulatedPeeks verifies that up to 56 bits can be peeked
// and consumed between refills without losing alignment.
func TestReader64AccumulatedPeeks(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var vals []uint64
	var widths []uint
	var w Writer64
	w.ResetBuf(nil)
	total := uint(0)
	for total < 2000 {
		n := uint(rng.Intn(14) + 1)
		v := rng.Uint64() & (1<<n - 1)
		vals = append(vals, v)
		widths = append(widths, n)
		w.WriteBits(v, n)
		total += n
	}
	data := w.Flush()
	var r Reader64
	r.Init(data)
	pending := uint(0)
	for i := range vals {
		if pending+widths[i] > 56 {
			r.Refill()
			pending = uint(r.BitsConsumed()) & 7
		}
		if got := r.Peek(widths[i]); got != vals[i] {
			t.Fatalf("peek %d: got %#x want %#x", i, got, vals[i])
		}
		r.Consume(widths[i])
		pending += widths[i]
	}
	if r.Overrun() {
		t.Fatal("spurious overrun")
	}
}

func TestReader64Empty(t *testing.T) {
	var r Reader64
	r.Init(nil)
	r.Refill()
	if got := r.ReadBits(17); got != 0 {
		t.Fatalf("empty stream read got %#x want 0", got)
	}
	if !r.Overrun() {
		t.Fatal("empty stream: overrun not reported after read")
	}
}

func TestReverseReader64Errors(t *testing.T) {
	var r ReverseReader64
	if err := r.Init(nil); err == nil {
		t.Fatal("empty stream accepted")
	}
	if err := r.Init([]byte{0x12, 0x00}); err == nil {
		t.Fatal("missing end marker accepted")
	}
}

// TestReverseReader64MatchesReverseReader writes a marker-terminated
// stream and decodes it with ReverseReader64 and the bit-at-a-time oracle,
// including short (<8 byte) streams and reads that drain past the start.
func TestReverseReader64MatchesReverseReader(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		var vals []uint64
		var widths []uint
		var old oracle
		count := rng.Intn(40) + 1
		for i := 0; i < count; i++ {
			n := uint(rng.Intn(16) + 1)
			v := rng.Uint64() & (1<<n - 1)
			vals = append(vals, v)
			widths = append(widths, n)
			old.write(v, n)
		}
		pos := old.nbits // the oracle reads back from the end of the payload
		old.write(1, 1)
		data := old.buf

		var r64 ReverseReader64
		if err := r64.Init(data); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if pos != r64.BitsRemaining() {
			t.Fatalf("trial %d: BitsRemaining %d vs %d", trial, pos, r64.BitsRemaining())
		}
		// Reverse readers return values in reverse write order.
		for i := len(vals) - 1; i >= 0; i-- {
			r64.Refill()
			pos -= int(widths[i])
			want := old.read(pos, widths[i])
			if got := r64.ReadBits(widths[i]); got != want {
				t.Fatalf("trial %d field %d: got %#x want %#x (orig %#x)", trial, i, got, want, vals[i])
			}
		}
		if !r64.Finished() || r64.Overrun() {
			t.Fatalf("trial %d: Finished=%v Overrun=%v after exact drain", trial, r64.Finished(), r64.Overrun())
		}
		// Draining past the start zero-fills from the low side and flags
		// overrun.
		r64.Refill()
		if got, want := r64.ReadBits(13), old.read(pos-13, 13); got != want {
			t.Fatalf("trial %d: past-start read %#x vs %#x", trial, got, want)
		}
		if !r64.Overrun() {
			t.Fatalf("trial %d: overrun not reported", trial)
		}
	}
}

// TestReader64MatchesReader cross-checks Reader64 against the bit-at-a-time
// oracle on random streams, mixing widths so refills land at every byte
// phase.
func TestReader64MatchesReader(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 200; trial++ {
		var old oracle
		var widths []uint
		count := rng.Intn(60) + 1
		for i := 0; i < count; i++ {
			n := uint(rng.Intn(20) + 1)
			old.write(rng.Uint64(), n)
			widths = append(widths, n)
		}
		var r64 Reader64
		r64.Init(old.buf)
		pos := 0
		for i, n := range widths {
			r64.Refill()
			want := old.read(pos, n)
			pos += int(n)
			if got := r64.ReadBits(n); got != want {
				t.Fatalf("trial %d field %d: got %#x want %#x", trial, i, got, want)
			}
		}
		if r64.Overrun() {
			t.Fatalf("trial %d: spurious overrun", trial)
		}
	}
}
