// Package stage defines the canonical compressor-stage identifiers shared
// by the codec implementations (internal/zstd, internal/lz4, internal/zlibx)
// and the telemetry subsystem. The paper's fleet profiler attributes CPU
// cycles to codec *functions*, not just codec calls (Figs 3, 4, 7): the
// match-finding stage and the entropy-coding stage behave very differently
// across levels, so observability has to keep them apart. Codec packages
// cannot import internal/codec (it imports them), so the stage vocabulary
// lives in this leaf package.
package stage

import "time"

// ID identifies one compressor stage.
type ID uint8

// The stage taxonomy. App means "not inside a codec stage" (frame headers,
// buffer management, application code). Serialize is LZ4's byte-aligned
// token emission — the paper's point that LZ4 has no entropy stage is
// preserved by keeping it distinct from Entropy.
const (
	App ID = iota
	MatchFind
	Entropy
	Serialize
	numStages
)

// Count is the number of defined stages, for array sizing.
const Count = int(numStages)

// String returns the stage's telemetry label.
func (id ID) String() string {
	switch id {
	case App:
		return "app"
	case MatchFind:
		return "matchfind"
	case Entropy:
		return "entropy"
	case Serialize:
		return "serialize"
	default:
		return "unknown"
	}
}

// Hook observes stage transitions inside an encoder. Implementations must
// be cheap: hooks fire once or twice per block on the compression hot path.
type Hook func(ID)

// Clock times stages from a Hook's transitions: Enter charges the time
// since the previous transition to the stage being left. It is the one
// stage clock; codecs keep none of their own. A Clock is not safe for
// concurrent use.
type Clock struct {
	// Nanos is the time charged to each stage since Start.
	Nanos [Count]int64
	cur   ID
	mark  time.Time
}

// Start clears Nanos and starts charging App from now.
func (c *Clock) Start(now time.Time) {
	c.Nanos = [Count]int64{}
	c.cur = App
	c.mark = now
}

// Enter charges the time since the last transition to the current stage
// and switches to s.
func (c *Clock) Enter(s ID) {
	c.Stop(time.Now())
	c.cur = s
}

// Stop charges the time up to now to the current stage; a later Enter or
// Stop charges from now.
func (c *Clock) Stop(now time.Time) {
	c.Nanos[c.cur] += now.Sub(c.mark).Nanoseconds()
	c.mark = now
}
