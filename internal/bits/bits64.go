// Package bits provides the bit-oriented I/O every entropy coder in this
// repository writes and reads its streams through.
//
// All streams are little-endian and LSB-first: the first bit written is the
// least-significant bit of the first byte. Two readers are provided:
//
//   - Reader64 consumes bits in the order they were written (the
//     DEFLATE-style codec, the Huffman streams, the FSE table headers and
//     zstd's sequence extra bits).
//   - ReverseReader64 consumes bits in the opposite order of writing (the
//     FSE streams, which tANS encodes back-to-front). Such a stream must be
//     terminated with Writer64.FlushMarker, which appends a single 1-bit so
//     the reader can locate the exact end of the payload in the final byte.
//
// The types follow the zstd BIT_DStream design: the reader keeps an 8-byte
// window of the stream in a register, a peek/consume split lets
// table-driven decoders look up symbols without per-bit branches, and a
// single Refill call per loop iteration reloads the window with one
// bounds-checked 8-byte load (scalar tail at the stream edges). Between two
// Refill calls a caller may consume at most 56 bits.
package bits

import (
	"encoding/binary"
	"errors"
	"math/bits"
)

// Writer64 accumulates bits LSB-first, buffering up to 64 bits in a
// register and dumping whole words with a single 8-byte store, so the
// encode inner loop carries no per-byte branches. The zero value is ready
// to use; ResetBuf lets the caller supply the output slice so streams can
// be emitted directly into a frame under construction.
type Writer64 struct {
	buf  []byte
	acc  uint64
	nacc uint // valid low bits in acc, < 8 after Carry
}

// ResetBuf discards all state and directs output to buf (appended to).
func (w *Writer64) ResetBuf(buf []byte) {
	w.buf = buf
	w.acc = 0
	w.nacc = 0
}

// Reset discards all state, keeping the buffer's capacity for reuse.
func (w *Writer64) Reset() {
	w.buf = w.buf[:0]
	w.acc = 0
	w.nacc = 0
}

// Add appends the n low bits of v without checking accumulator capacity.
// The caller must guarantee at most 64 bits accumulate between Carry
// calls; the hot encode loops Add a bounded group of codes (≤56 bits) and
// Carry once per group.
func (w *Writer64) Add(v uint64, n uint) {
	w.acc |= (v & (1<<n - 1)) << w.nacc
	w.nacc += n
}

// Carry stores the accumulator's complete bytes into the buffer with one
// 8-byte write, leaving at most 7 bits pending. With 8 bytes of spare
// capacity the word lands in it whole, so up to 7 bytes past the buffer's
// new length are overwritten: a writer's buffer is its own scratch.
func (w *Writer64) Carry() {
	nbytes := w.nacc >> 3
	if n := len(w.buf); cap(w.buf)-n >= 8 {
		// Store the whole word past the end and keep its complete bytes:
		// no append, no copy of a partial word.
		binary.LittleEndian.PutUint64(w.buf[n:n+8], w.acc)
		w.buf = w.buf[:n+int(nbytes)]
	} else {
		var word [8]byte
		binary.LittleEndian.PutUint64(word[:], w.acc)
		w.buf = append(w.buf, word[:nbytes]...)
	}
	w.acc >>= nbytes * 8
	w.nacc &= 7
}

// State returns the writer's buffer and the bits written but not yet
// carried into it, with their count, for an encode loop to hold in local
// variables, which the compiler keeps in registers: a Writer64 lives in
// memory, and every Add would store and reload it. The loop appends as Add
// and Carry do and hands all three back with SetState before the writer is
// used again. The bytes a writer ends with do not depend on when it
// carried, only on the bits written.
func (w *Writer64) State() (buf []byte, acc uint64, n uint) { return w.buf, w.acc, w.nacc }

// SetState makes buf, acc and n, which State returned and a loop appended
// to, the writer's state.
func (w *Writer64) SetState(buf []byte, acc uint64, n uint) { w.buf, w.acc, w.nacc = buf, acc, n }

// WriteBits appends the n low bits of v (n ≤ 56), carrying automatically.
// Slower than Add/Carry groups; used outside the innermost loops.
func (w *Writer64) WriteBits(v uint64, n uint) {
	if w.nacc+n > 64 {
		w.Carry()
	}
	w.Add(v, n)
}

// BitsWritten reports the total number of bits written so far.
func (w *Writer64) BitsWritten() int { return len(w.buf)*8 + int(w.nacc) }

// Flush pads the pending bits with zeros to a byte boundary and returns
// the buffer. Further writes start a new byte.
func (w *Writer64) Flush() []byte {
	w.Carry()
	if w.nacc > 0 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc = 0
		w.nacc = 0
	}
	return w.buf
}

// FlushMarker writes the terminating 1-bit required by reverse readers,
// pads to a byte boundary and returns the buffer.
func (w *Writer64) FlushMarker() []byte {
	w.WriteBits(1, 1)
	return w.Flush()
}

// Reader64 consumes an LSB-first bit stream in forward (write) order with
// the peek/consume split. Usage pattern:
//
//	r.Init(data)
//	for ... {
//		r.Refill()                    // one bounds-checked 8-byte load
//		e := table[r.Peek(tableLog)]  // no branch
//		r.Consume(bits)               // no branch
//		... up to 56 bits total between Refills
//	}
//	if r.Overrun() { corrupt }
//
// Peeking past the end of the stream yields zero bits; Overrun reports
// whether consumption went past the end.
type Reader64 struct {
	data     []byte
	ptr      int    // start of the 8-byte window loaded in acc
	limit    int    // len(data)-8: last valid window start (negative: short stream)
	acc      uint64 // little-endian load of data[ptr:ptr+8] (tail: zero-padded)
	consumed uint   // bits consumed from the low end of acc
}

// Init points the reader at data and loads the first window.
func (r *Reader64) Init(data []byte) {
	r.data = data
	r.ptr = 0
	r.limit = len(data) - 8
	r.consumed = 0
	if len(data) >= 8 {
		r.acc = binary.LittleEndian.Uint64(data)
		return
	}
	r.acc = 0
	for i, b := range data {
		r.acc |= uint64(b) << (8 * i)
	}
}

// Refill advances the window past consumed whole bytes and reloads it with
// a single 8-byte load, clamped to the final full window: at the end of
// the stream the remaining bits drain from the register and further peeks
// zero-extend. Small enough to inline into the decode loops.
func (r *Reader64) Refill() {
	if r.limit < 0 {
		return // whole stream already in acc
	}
	p := r.ptr + int(r.consumed>>3)
	if p > r.limit {
		p = r.limit
	}
	r.consumed -= uint(p-r.ptr) << 3
	r.ptr = p
	r.acc = binary.LittleEndian.Uint64(r.data[p:])
}

// Peek returns the next n bits without consuming them. Requires
// consumed+n ≤ 64 within the current window, which holds for any total of
// ≤ 56 bits peeked+consumed since the last Refill. Past the end of the
// stream the missing bits read as zero.
func (r *Reader64) Peek(n uint) uint64 {
	return (r.acc >> r.consumed) & (1<<n - 1)
}

// Consume advances over n bits previously observed via Peek.
func (r *Reader64) Consume(n uint) { r.consumed += n }

// ReadBits reads the next n bits (n ≤ 56 since the last Refill). Reads
// past the end return zero bits; check Overrun at a convenient boundary.
func (r *Reader64) ReadBits(n uint) uint64 {
	v := (r.acc >> r.consumed) & (1<<n - 1)
	r.consumed += n
	return v
}

// BitsConsumed reports the total number of bits consumed from the stream.
func (r *Reader64) BitsConsumed() int { return r.ptr*8 + int(r.consumed) }

// Overrun reports whether consumption went past the end of the stream.
func (r *Reader64) Overrun() bool { return r.BitsConsumed() > len(r.data)*8 }

// ReverseReader64 consumes a marker-terminated bit stream in the reverse
// order of writing (the tANS direction), holding the current 8-byte window
// in a register. The contract mirrors Reader64: one Refill per loop
// iteration, at most 56 bits read between Refills, reads past the start
// of the stream zero-fill from the low side, Overrun checked once at the
// end of decoding.
type ReverseReader64 struct {
	data     []byte
	ptr      int    // start of the 8-byte window loaded in acc
	acc      uint64 // window bytes; the stream's last byte sits at the top
	consumed uint   // bits consumed from the high end of acc
	bitsLeft int    // unread payload bits; negative once overrun
}

// Init points the reader at data, locating the marker bit in the final
// byte. It returns an error when the stream is empty or carries no marker.
func (r *ReverseReader64) Init(data []byte) error {
	if len(data) == 0 {
		return errors.New("bits: empty reverse stream")
	}
	last := data[len(data)-1]
	if last == 0 {
		return errors.New("bits: reverse stream missing end marker")
	}
	r.data = data
	if len(data) >= 8 {
		r.ptr = len(data) - 8
		r.acc = binary.LittleEndian.Uint64(data[r.ptr:])
	} else {
		// Whole stream fits in the register; a negative ptr keeps Refill
		// permanently on its drain path.
		r.ptr = -8
		r.acc = 0
		for i, b := range data {
			r.acc |= uint64(b) << (8 * (8 - len(data) + i))
		}
	}
	// Skip the zero padding and the marker bit itself.
	r.consumed = uint(8-bits.Len8(last)) + 1
	r.bitsLeft = (len(data)-1)*8 + bits.Len8(last) - 1
	return nil
}

// ReadBits reads the next n bits (n ≤ 56 since the last Refill) in
// reverse write order, with no per-read branches. Reading past the start
// of the stream yields zero bits on the low side; check Overrun once when
// decoding completes.
func (r *ReverseReader64) ReadBits(n uint) uint64 {
	v := (r.acc << r.consumed) >> (64 - n)
	r.consumed += n
	r.bitsLeft -= int(n)
	return v
}

// Refill slides the window down past consumed whole bytes and reloads it
// with a single 8-byte load, clamped to the start of the stream: once
// there the remaining bits drain from the register. Streams shorter than
// 8 bytes keep ptr negative (see Init) and never reload. Small enough to
// inline into the decode loops.
func (r *ReverseReader64) Refill() {
	if r.ptr < 0 {
		return // whole stream already in acc
	}
	p := r.ptr - int(r.consumed>>3)
	if p < 0 {
		p = 0
	}
	r.consumed -= uint(r.ptr-p) << 3
	r.ptr = p
	r.acc = binary.LittleEndian.Uint64(r.data[p:])
}

// Overrun reports whether any read went past the start of the stream.
func (r *ReverseReader64) Overrun() bool { return r.bitsLeft < 0 }

// Finished reports whether all payload bits have been consumed exactly.
func (r *ReverseReader64) Finished() bool { return r.bitsLeft == 0 }

// BitsRemaining reports the number of unread payload bits.
func (r *ReverseReader64) BitsRemaining() int { return r.bitsLeft }
