package codec

import (
	"errors"

	"github.com/datacomp/datacomp/internal/graph"
)

// graphCodec adapts internal/graph: typed-transform graph compression
// with self-describing frames. The level is the graph search effort
// (1 = structural probes only, 9 = full-payload trials), not an entropy
// level — the graph picks its own entropy terminals.
type graphCodec struct{}

func (graphCodec) Name() string                { return "graph" }
func (graphCodec) Levels() (min, max, def int) { return 1, 9, graph.DefaultLevel }
func (graphCodec) SupportsWindow() bool        { return false }

type graphEngine struct{ e *graph.Engine }

func (graphCodec) New(opts Options) (Engine, error) {
	if len(opts.Dict) > 0 {
		return nil, errors.New("codec: graph does not support dictionaries")
	}
	if opts.WindowLog != 0 {
		return nil, errors.New("codec: graph does not support window override")
	}
	level := opts.Level
	if level == 0 {
		level = graph.DefaultLevel
	}
	e, err := graph.NewEngine(graph.WithLevel(level))
	if err != nil {
		return nil, err
	}
	return &graphEngine{e: e}, nil
}

func (g *graphEngine) Compress(dst, src []byte) ([]byte, error) { return g.e.Compress(dst, src) }
func (g *graphEngine) Decompress(dst, src []byte) ([]byte, error) {
	out, err := g.e.Decompress(dst, src)
	if err != nil {
		return nil, corrupt(err)
	}
	return out, nil
}

// SetHint forwards a payload-type hint to the graph search (see
// graph.Hint). Callers that know the column type reach it via the
// graph.Hinter interface.
func (g *graphEngine) SetHint(h graph.Hint) { g.e.SetHint(h) }

func init() {
	Register(graphCodec{})
}
