package container

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/trace"
	"github.com/datacomp/datacomp/internal/xxhash"
)

// Config parameterizes Encode and is recorded (codec, block size) in the
// container header.
type Config struct {
	// Codec names the registered compressor (default "zstd").
	Codec string
	// Level is the codec-specific compression level (0 = codec default).
	Level int
	// BlockSize is the uncompressed split granularity (default
	// DefaultBlockSize, max MaxBlockSize).
	BlockSize int
	// Workers bounds the compression worker pool (≤ 0 = GOMAXPROCS).
	Workers int
}

func (c *Config) fill() {
	if c.Codec == "" {
		c.Codec = "zstd"
	}
	if c.BlockSize <= 0 {
		c.BlockSize = DefaultBlockSize
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
}

// Stats summarizes one Encode run.
type Stats struct {
	// Blocks is the number of independent blocks written.
	Blocks int64
	// RawBytes and CompressedBytes count block content before and after
	// compression; WrittenBytes additionally includes header, per-block
	// framing, and the footer index.
	RawBytes        int64
	CompressedBytes int64
	WrittenBytes    int64
}

// encJob carries one block through the pipeline. done is closed once comp,
// info, and err are final.
type encJob struct {
	idx  int64 // block index in stream order, for trace attribution
	raw  []byte
	comp *[]byte
	info BlockInfo // CompLen, RawLen and Sum; the Builder places the block
	err  error
	done chan struct{}
}

// firstError keeps the first error observed across pipeline stages.
type firstError struct{ p atomic.Pointer[error] }

func (f *firstError) set(err error) {
	if err != nil {
		f.p.CompareAndSwap(nil, &err)
	}
}
func (f *firstError) get() error {
	if e := f.p.Load(); e != nil {
		return *e
	}
	return nil
}

// Encode splits src into cfg.BlockSize blocks, compresses them on a bounded
// worker pool, and writes the container to dst through a Builder with
// blocks in order, streaming: memory is bounded by O(Workers × BlockSize)
// regardless of input size, the first error (reader, worker, writer, or ctx
// cancellation) stops the pipeline, and the Builder's footer index makes
// the output seekable.
func Encode(ctx context.Context, dst io.Writer, src io.Reader, cfg Config) (Stats, error) {
	cfg.fill()
	var st Stats
	pool, err := codec.SharedPool(cfg.Codec, codec.Options{Level: defaultedLevel(cfg.Codec, cfg.Level)})
	if err != nil {
		return st, fmt.Errorf("container: %w", err)
	}
	// The Builder frames what the workers compress and never runs its
	// engine; borrowing one keeps Encode from constructing another.
	beng := pool.Get()
	defer pool.Put(beng)
	bld, err := NewBuilder(dst, cfg.Codec, beng, cfg.BlockSize)
	if err != nil {
		return st, err
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	workers := cfg.Workers
	jobs := make(chan *encJob, workers)
	ordered := make(chan *encJob, workers)
	var ferr firstError
	rawBufs := sync.Pool{New: func() any {
		b := make([]byte, cfg.BlockSize)
		return &b
	}}
	compBufs := sync.Pool{New: func() any {
		b := make([]byte, 0, cfg.BlockSize+cfg.BlockSize>>4+64)
		return &b
	}}

	// Reader: cut src into blocks, handing each to the workers and to the
	// in-order writer. ordered is filled before jobs so the writer always
	// sees blocks in stream order; both sends respect cancellation.
	go func() {
		defer close(ordered)
		defer close(jobs)
		for idx := int64(0); ctx.Err() == nil; idx++ {
			bp := rawBufs.Get().(*[]byte)
			n, err := io.ReadFull(src, (*bp)[:cfg.BlockSize])
			if n == 0 {
				rawBufs.Put(bp)
				if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
					ferr.set(err)
					cancel()
				}
				return
			}
			j := &encJob{idx: idx, raw: (*bp)[:n], done: make(chan struct{})}
			select {
			case ordered <- j:
			case <-ctx.Done():
				rawBufs.Put(bp)
				return
			}
			select {
			case jobs <- j:
			case <-ctx.Done():
				// Already promised to the writer: resolve it as cancelled so
				// the writer never blocks on done.
				j.err = ctx.Err()
				close(j.done)
				return
			}
			if err != nil { // EOF after a short final block
				if err != io.EOF && err != io.ErrUnexpectedEOF {
					ferr.set(err)
					cancel()
				}
				return
			}
		}
	}()

	// A traced caller gets a "container.block" span per block, attributed
	// to the worker that compressed it — the straggler block that holds up
	// the in-order writer is visible in the trace.
	parent := trace.FromContext(ctx)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			eng := pool.Get()
			defer pool.Put(eng)
			for j := range jobs {
				if ctx.Err() != nil {
					j.err = ctx.Err()
					close(j.done)
					continue
				}
				tmEncInflight.Add(1)
				var sp trace.SpanHandle
				if parent.Valid() {
					sp = parent.Child("container.block").
						SetInt("block", j.idx).SetInt("worker", int64(w))
				}
				bp := compBufs.Get().(*[]byte)
				out, err := eng.Compress((*bp)[:0], j.raw)
				*bp = out
				j.comp = bp
				j.err = err
				if err == nil {
					j.info = BlockInfo{CompLen: len(out), RawLen: len(j.raw), Sum: xxhash.Sum64(out)}
					tmBlocksEnc.Inc()
					sp.SetInt("raw", int64(len(j.raw))).SetInt("comp", int64(len(out)))
				} else {
					ferr.set(err)
					cancel()
				}
				sp.End()
				tmEncInflight.Add(-1)
				close(j.done)
			}
		}(w)
	}

	// In-order writer: this goroutine. Every job placed in ordered is
	// awaited and its buffers recycled, error or not, so the pipeline
	// drains cleanly on failure.
	for j := range ordered {
		<-j.done
		if j.err != nil {
			ferr.set(j.err)
		} else if ferr.get() == nil {
			if err := bld.AppendFrame(*j.comp, j.info); err != nil {
				ferr.set(err)
				cancel()
			} else {
				st.Blocks++
				st.RawBytes += int64(j.info.RawLen)
				st.CompressedBytes += int64(j.info.CompLen)
			}
		}
		rb := j.raw[:cap(j.raw)]
		rawBufs.Put(&rb)
		if j.comp != nil {
			compBufs.Put(j.comp)
		}
	}
	wg.Wait()
	if err := ferr.get(); err != nil {
		return st, err
	}
	if err := ctx.Err(); err != nil {
		return st, err
	}
	if err := bld.Close(); err != nil {
		return st, err
	}
	st.WrittenBytes = bld.Offset()
	return st, nil
}
