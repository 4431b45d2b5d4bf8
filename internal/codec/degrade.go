package codec

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/datacomp/datacomp/internal/trace"
)

// Rung is one step of a degradation ladder: a (codec, level) pair. The
// zero Rung (empty codec name) means passthrough — store content verbatim
// and spend no compression cycles.
type Rung struct {
	Codec string
	Level int
}

// String renders the rung for logs and telemetry labels.
func (r Rung) String() string {
	if r.Codec == "" {
		return "passthrough"
	}
	return fmt.Sprintf("%s-%d", r.Codec, r.Level)
}

// DefaultLadder is the degradation sequence the paper's serving tiers
// motivate: ratio-heavy zstd first, sliding through cheaper zstd levels to
// lz4, and finally passthrough when compression itself is the bottleneck.
func DefaultLadder() []Rung {
	return []Rung{{"zstd", 9}, {"zstd", 3}, {"zstd", 1}, {"lz4", 1}, {}}
}

// DegraderObserver receives rung transitions. to > from is a downshift
// (toward cheaper codecs under pressure); to < from is a recovery upshift.
// The telemetry package provides an implementation that publishes
// transition counters (telemetry.DegraderMetrics).
type DegraderObserver interface {
	RungChanged(from, to int, rung Rung)
}

// DegraderConfig tunes a Degrader.
type DegraderConfig struct {
	// Ladder is the ordered rung sequence, most expensive first.
	// Empty means DefaultLadder().
	Ladder []Rung
	// High is the per-operation compress latency above which pressure
	// accrues. Required.
	High time.Duration
	// Low is the latency below which headroom accrues (default High/4).
	Low time.Duration
	// Window is the count of consecutive over-High operations that
	// triggers a downshift (default 4).
	Window int
	// Recover is the count of consecutive under-Low operations that
	// triggers an upshift (default 4×Window, so recovery is deliberately
	// slower than degradation).
	Recover int
	// Checksum frames every rung's payloads with content checksums.
	Checksum bool
	// Observer, when set, receives every rung transition.
	Observer DegraderObserver
	// Now overrides the clock, for tests and simulation (default time.Now).
	Now func() time.Time
}

// Degrader is an Engine wrapper that trades compression ratio for CPU
// headroom under pressure: it times every Compress and walks down its
// ladder (e.g. zstd-9 → zstd-3 → zstd-1 → lz4 → passthrough) when recent
// latency stays above the high watermark, walking back up when latency
// stays below the low watermark. Payloads carry a one-byte rung tag, so
// Decompress handles frames produced at any rung — a peer keeps decoding
// across shifts.
//
// Like every Engine, a Degrader is single-goroutine.
type Degrader struct {
	cfg     DegraderConfig
	ladder  []Rung
	engines []Engine
	cur     int
	hot     int              // consecutive ops over High
	cold    int              // consecutive ops under Low
	span    trace.SpanHandle // active request span during CompressCtx
}

// Static corrupt errors for the tagged-frame decode path.
var (
	errRungTagMissing = &corruptError{err: errors.New("codec: degrader payload missing rung tag")}
	errRungTagRange   = &corruptError{err: errors.New("codec: degrader rung tag out of range")}
)

// NewDegrader validates cfg and builds one engine per rung.
func NewDegrader(cfg DegraderConfig) (*Degrader, error) {
	if len(cfg.Ladder) == 0 {
		cfg.Ladder = DefaultLadder()
	}
	if len(cfg.Ladder) > 256 {
		return nil, errors.New("codec: degrader ladder exceeds 256 rungs")
	}
	if cfg.High <= 0 {
		return nil, errors.New("codec: DegraderConfig.High must be positive")
	}
	if cfg.Low <= 0 {
		cfg.Low = cfg.High / 4
	}
	if cfg.Low >= cfg.High {
		return nil, errors.New("codec: DegraderConfig.Low must be below High")
	}
	if cfg.Window <= 0 {
		cfg.Window = 4
	}
	if cfg.Recover <= 0 {
		cfg.Recover = 4 * cfg.Window
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	engines := make([]Engine, len(cfg.Ladder))
	for i, r := range cfg.Ladder {
		if r.Codec == "" {
			var e Engine = passthrough{}
			if cfg.Checksum {
				e = &checksummed{eng: e}
			}
			engines[i] = e
			continue
		}
		c, ok := Lookup(r.Codec)
		if !ok {
			return nil, fmt.Errorf("codec: degrader rung %d: unknown codec %q", i, r.Codec)
		}
		e, err := buildEngine(c, Options{Level: r.Level, Checksum: cfg.Checksum})
		if err != nil {
			return nil, fmt.Errorf("codec: degrader rung %d (%s): %w", i, r, err)
		}
		engines[i] = e
	}
	return &Degrader{cfg: cfg, ladder: cfg.Ladder, engines: engines}, nil
}

// Rung returns the index of the active rung (0 = configured level).
func (d *Degrader) Rung() int { return d.cur }

// Current returns the active rung.
func (d *Degrader) Current() Rung { return d.ladder[d.cur] }

// Compress encodes src at the active rung, prefixing the one-byte rung
// tag, and feeds the operation's latency into the pressure tracker.
func (d *Degrader) Compress(dst, src []byte) ([]byte, error) {
	dst = append(dst, byte(d.cur))
	t0 := d.cfg.Now()
	out, err := d.engines[d.cur].Compress(dst, src)
	dt := d.cfg.Now().Sub(t0)
	if err != nil {
		return nil, err
	}
	d.observe(dt)
	return out, nil
}

// CompressCtx is Compress under a traced request: a rung shift triggered by
// this operation lands as a "degrader.rung" event on the context's active
// span, attributing the quality degradation to the request that tipped it.
// Untraced contexts behave exactly like Compress.
func (d *Degrader) CompressCtx(ctx context.Context, dst, src []byte) ([]byte, error) {
	d.span = trace.FromContext(ctx)
	out, err := d.Compress(dst, src)
	d.span = trace.SpanHandle{}
	return out, err
}

// Decompress decodes a payload produced at any rung of this ladder,
// dispatching on the rung tag.
func (d *Degrader) Decompress(dst, src []byte) ([]byte, error) {
	if len(src) < 1 {
		return nil, errRungTagMissing
	}
	tag := int(src[0])
	if tag >= len(d.engines) {
		return nil, errRungTagRange
	}
	return d.engines[tag].Decompress(dst, src[1:])
}

// observe updates the pressure counters with one compress latency and
// shifts rungs when a watermark streak completes.
func (d *Degrader) observe(dt time.Duration) {
	switch {
	case dt > d.cfg.High:
		d.hot++
		d.cold = 0
		if d.hot >= d.cfg.Window && d.cur < len(d.ladder)-1 {
			d.shift(d.cur + 1)
		}
	case dt < d.cfg.Low:
		d.cold++
		d.hot = 0
		if d.cold >= d.cfg.Recover && d.cur > 0 {
			d.shift(d.cur - 1)
		}
	default:
		d.hot, d.cold = 0, 0
	}
}

func (d *Degrader) shift(to int) {
	from := d.cur
	d.cur = to
	d.hot, d.cold = 0, 0
	if d.span.Valid() {
		d.span.Event("degrader.rung").
			SetInt("from", int64(from)).
			SetInt("to", int64(to)).
			SetStr("rung", d.ladder[to].String())
	}
	if d.cfg.Observer != nil {
		d.cfg.Observer.RungChanged(from, to, d.ladder[to])
	}
}
