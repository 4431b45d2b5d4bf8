package bits

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// oracle is the bit-at-a-time reference the register-based writer and
// readers are checked against: write appends one bit per step, LSB-first,
// to a zero-padded byte stream, and read takes one bit per step, reading
// bits outside the stream as zero.
type oracle struct {
	buf   []byte
	nbits int
}

func (o *oracle) write(v uint64, n uint) {
	for i := uint(0); i < n; i++ {
		if o.nbits&7 == 0 {
			o.buf = append(o.buf, 0)
		}
		o.buf[o.nbits>>3] |= byte(v>>i&1) << (o.nbits & 7)
		o.nbits++
	}
}

// read returns the n bits at bit offset pos, LSB first.
func (o *oracle) read(pos int, n uint) uint64 {
	var v uint64
	for i := 0; i < int(n); i++ {
		if p := pos + i; p >= 0 && p < len(o.buf)*8 {
			v |= uint64(o.buf[p>>3]>>(p&7)&1) << i
		}
	}
	return v
}

func TestReverseReaderRoundtrip(t *testing.T) {
	var w Writer64
	type wv struct {
		v uint64
		n uint
	}
	vals := []wv{{0x1, 2}, {0x15, 5}, {0xabc, 12}, {0x0, 7}, {0x1ffff, 17}, {1, 1}}
	for _, x := range vals {
		w.WriteBits(x.v, x.n)
	}
	var r ReverseReader64
	if err := r.Init(w.FlushMarker()); err != nil {
		t.Fatal(err)
	}
	// Reverse order of writes.
	for i := len(vals) - 1; i >= 0; i-- {
		r.Refill()
		got := r.ReadBits(vals[i].n)
		want := vals[i].v & ((1 << vals[i].n) - 1)
		if got != want {
			t.Fatalf("reverse read %d: got %#x want %#x", i, got, want)
		}
	}
	if !r.Finished() {
		t.Fatalf("stream not fully consumed: %d bits left, overrun=%v", r.BitsRemaining(), r.Overrun())
	}
}

func TestReverseReaderOverrun(t *testing.T) {
	var w Writer64
	w.WriteBits(0b101, 3)
	var r ReverseReader64
	if err := r.Init(w.FlushMarker()); err != nil {
		t.Fatal(err)
	}
	r.Refill()
	_ = r.ReadBits(3)
	if r.Overrun() {
		t.Fatal("unexpected overrun")
	}
	_ = r.ReadBits(5)
	if !r.Overrun() {
		t.Fatal("expected overrun after reading past start")
	}
}

func TestQuickForwardRoundtrip(t *testing.T) {
	f := func(seed int64, count uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(count%64) + 1
		type wv struct {
			v uint64
			n uint
		}
		vals := make([]wv, n)
		var w Writer64
		for i := range vals {
			width := uint(rng.Intn(56) + 1)
			vals[i] = wv{rng.Uint64() & ((1 << width) - 1), width}
			w.WriteBits(vals[i].v, vals[i].n)
		}
		var r Reader64
		r.Init(w.Flush())
		for _, x := range vals {
			r.Refill()
			if got := r.ReadBits(x.n); got != x.v {
				return false
			}
		}
		return !r.Overrun()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickReverseRoundtrip(t *testing.T) {
	f := func(seed int64, count uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(count%64) + 1
		type wv struct {
			v uint64
			n uint
		}
		vals := make([]wv, n)
		var w Writer64
		for i := range vals {
			width := uint(rng.Intn(56) + 1)
			vals[i] = wv{rng.Uint64() & ((1 << width) - 1), width}
			w.WriteBits(vals[i].v, vals[i].n)
		}
		var r ReverseReader64
		if err := r.Init(w.FlushMarker()); err != nil {
			return false
		}
		for i := n - 1; i >= 0; i-- {
			r.Refill()
			if got := r.ReadBits(vals[i].n); got != vals[i].v {
				return false
			}
		}
		return r.Finished()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWriterReset(t *testing.T) {
	var w Writer64
	w.WriteBits(0xff, 8)
	w.Reset()
	w.WriteBits(0x1, 1)
	out := w.Flush()
	if len(out) != 1 || out[0] != 0x1 {
		t.Fatalf("after reset got %v", out)
	}
}

func TestBitsWritten(t *testing.T) {
	var w Writer64
	if w.BitsWritten() != 0 {
		t.Fatal("fresh writer should report 0 bits")
	}
	w.WriteBits(0, 13)
	if got := w.BitsWritten(); got != 13 {
		t.Fatalf("got %d want 13", got)
	}
	w.Carry()
	if got := w.BitsWritten(); got != 13 {
		t.Fatalf("after carry got %d want 13", got)
	}
}

func BenchmarkWriteBits(b *testing.B) {
	var w Writer64
	w.ResetBuf(make([]byte, 0, 1<<16))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Reset()
		for j := 0; j < 4096; j++ {
			w.WriteBits(uint64(j), 11)
		}
		w.Flush()
	}
}

func BenchmarkReverseRead(b *testing.B) {
	var w Writer64
	for j := 0; j < 4096; j++ {
		w.WriteBits(uint64(j), 11)
	}
	data := w.FlushMarker()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var r ReverseReader64
		if err := r.Init(data); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 4096; j++ {
			r.Refill()
			r.ReadBits(11)
		}
	}
}

func TestReverseReaderBitsRemaining(t *testing.T) {
	var w Writer64
	w.WriteBits(0x3ff, 10)
	var r ReverseReader64
	if err := r.Init(w.FlushMarker()); err != nil {
		t.Fatal(err)
	}
	if got := r.BitsRemaining(); got != 10 {
		t.Fatalf("remaining = %d", got)
	}
	r.Refill()
	r.ReadBits(10)
	if got := r.BitsRemaining(); got != 0 {
		t.Fatalf("remaining after read = %d", got)
	}
}
