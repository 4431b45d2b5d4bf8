// Package graph implements OpenZL-style graph compression for typed
// payloads: a payload is pushed through a DAG of composable typed
// transforms — struct field split, byte transpose, delta, zigzag, varint,
// bitpack, float sign/exponent/mantissa plane split — whose leaf streams
// terminate in the repository's generic entropy stages (zstd, FSE,
// Huffman, or stored). The graph that encoded a frame is serialized into
// the frame header, so decoding is fully self-describing: no out-of-band
// schema, and frames written by a newer encoder with node kinds this
// decoder does not know are rejected with a typed error instead of being
// mis-decoded.
//
// Graphs are chosen per corpus (or per payload) by a bounded greedy/beam
// search over the transform grammar: structural skeletons (splits and
// strides) found by cheap probes form the beam, and each resulting stream
// picks its transform chain and entropy terminal greedily by measured
// size. See DESIGN.md §13.
package graph

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Op identifies one transform node kind in the serialized graph. IDs are
// frozen once released: decoders reject unknown IDs (forward
// compatibility), so a released ID can never be reused for a different
// transform.
type Op byte

const (
	opInvalid Op = 0x00

	// Leaves: entropy terminals. Each consumes one byte stream and stores
	// it in the frame (raw, or through an entropy coder with a stored
	// fallback for incompressible streams).
	OpRaw  Op = 0x01 // stored verbatim
	OpZstd Op = 0x02 // zstd at the level carried in Arg
	OpHuff Op = 0x03 // single-table Huffman
	OpFSE  Op = 0x04 // finite-state-entropy (tANS)

	// Interior transforms. Each consumes one byte stream and produces one
	// or more child streams.
	OpSplitAt     Op = 0x10 // cut at byte offset Arg; 2 children
	OpStructSplit Op = 0x11 // split Arg-field records into per-field streams; len(Widths) children
	OpTranspose   Op = 0x12 // byte-plane transpose at stride Arg; 1 child
	OpDelta       Op = 0x13 // elementwise delta of Arg-byte LE ints; 1 child
	OpZigzag      Op = 0x14 // zigzag-map Arg-byte LE signed ints; 1 child
	OpVarint      Op = 0x15 // re-encode Arg-byte LE uints as uvarints; 1 child
	OpBitpack     Op = 0x16 // bit-pack Arg-byte LE uints per 512-value block; 1 child
	OpFloatPlane  Op = 0x17 // split Arg-byte floats into sign/exponent/mantissa planes; 3 children
	OpXorDelta    Op = 0x18 // elementwise XOR-delta of Arg-byte LE words; 1 child
	OpDecimal     Op = 0x19 // rescale Arg-byte floats to Arg-byte ints via x10^Scale; 1 child
)

func (o Op) String() string {
	switch o {
	case OpRaw:
		return "raw"
	case OpZstd:
		return "zstd"
	case OpHuff:
		return "huff"
	case OpFSE:
		return "fse"
	case OpSplitAt:
		return "splitat"
	case OpStructSplit:
		return "structsplit"
	case OpTranspose:
		return "transpose"
	case OpDelta:
		return "delta"
	case OpZigzag:
		return "zigzag"
	case OpVarint:
		return "varint"
	case OpBitpack:
		return "bitpack"
	case OpFloatPlane:
		return "floatplane"
	case OpXorDelta:
		return "xordelta"
	case OpDecimal:
		return "decimal"
	}
	return fmt.Sprintf("op(0x%02x)", byte(o))
}

// leaf reports whether the op terminates a stream in the frame.
func (o Op) leaf() bool { return o >= OpRaw && o <= OpFSE }

// Node is one transform in a graph.
type Node struct {
	Op Op
	// Arg is the op parameter: element width for the typed transforms,
	// stride for OpTranspose, zstd level for OpZstd, byte offset for
	// OpSplitAt.
	Arg int
	// Widths are OpStructSplit's per-field byte widths.
	Widths []int
	// Scale is OpDecimal's decimal exponent: values are multiplied by
	// 10^Scale on encode and divided back on decode.
	Scale int
	// Children receive the op's output streams, in op-defined order.
	Children []*Node
}

// Graph is a compression plan: a tree of transforms whose leaves are
// entropy terminals. (The grammar serializes the DAG as its spanning
// tree, one node per consumed stream.)
type Graph struct{ Root *Node }

// Structural limits on serialized graphs. Generous for any plan the
// search emits, tight enough that hostile frames cannot make the decoder
// build unbounded plans.
const (
	maxGraphBytes = 4096
	maxNodes      = 128
	maxDepth      = 16
	maxFields     = 16
	maxFieldWidth = 64
	// maxDecimalScale keeps 10^Scale exactly representable in float64
	// (any power of ten up to 10^22 is) and inside int64.
	maxDecimalScale = 18
	// maxStreamLen bounds any single decoded stream (and therefore the
	// decoded payload) a frame may declare.
	maxStreamLen = 1 << 30
)

// ErrCorrupt reports a frame that failed structural validation or could
// not be decoded. Every decode failure surfaced by this package wraps it.
var ErrCorrupt = errors.New("graph: corrupt frame")

// ErrUnknownNode reports a frame whose serialized graph names a node kind
// this decoder does not implement — a frame from a future encoder. It
// wraps ErrCorrupt so serving-path callers branching on the sentinel
// still reject it.
var ErrUnknownNode = fmt.Errorf("%w: unknown node kind", ErrCorrupt)

// corruptf builds an ErrCorrupt-wrapping error with context.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// errShape reports that a payload does not satisfy a transform's
// structural precondition (e.g. length not a multiple of the element
// width). It is an encode-side signal — the engine falls back to a
// generic graph — and never escapes the package.
var errShape = errors.New("graph: payload shape mismatch")

// Validate checks the graph against the grammar: op-consistent child
// counts, legal widths, and the structural limits.
func (g *Graph) Validate() error {
	if g == nil || g.Root == nil {
		return errors.New("graph: empty graph")
	}
	n := 0
	return validateNode(g.Root, 0, &n)
}

func validateNode(nd *Node, depth int, count *int) error {
	if depth > maxDepth {
		return errors.New("graph: graph too deep")
	}
	*count++
	if *count > maxNodes {
		return errors.New("graph: too many nodes")
	}
	wantChildren := 0
	switch nd.Op {
	case OpRaw, OpHuff, OpFSE:
	case OpZstd:
		if nd.Arg < 1 || nd.Arg > 9 {
			return fmt.Errorf("graph: zstd level %d out of range", nd.Arg)
		}
	case OpSplitAt:
		if nd.Arg < 0 || nd.Arg > maxStreamLen {
			return fmt.Errorf("graph: split offset %d out of range", nd.Arg)
		}
		wantChildren = 2
	case OpStructSplit:
		if len(nd.Widths) < 2 || len(nd.Widths) > maxFields {
			return fmt.Errorf("graph: struct split with %d fields", len(nd.Widths))
		}
		for _, w := range nd.Widths {
			if w < 1 || w > maxFieldWidth {
				return fmt.Errorf("graph: struct field width %d out of range", w)
			}
		}
		wantChildren = len(nd.Widths)
	case OpTranspose:
		if nd.Arg < 2 || nd.Arg > maxFieldWidth {
			return fmt.Errorf("graph: transpose stride %d out of range", nd.Arg)
		}
		wantChildren = 1
	case OpDelta, OpZigzag, OpVarint, OpBitpack, OpXorDelta:
		if nd.Arg != 1 && nd.Arg != 2 && nd.Arg != 4 && nd.Arg != 8 {
			return fmt.Errorf("graph: %s width %d out of range", nd.Op, nd.Arg)
		}
		wantChildren = 1
	case OpFloatPlane:
		if nd.Arg != 4 && nd.Arg != 8 {
			return fmt.Errorf("graph: float plane width %d out of range", nd.Arg)
		}
		wantChildren = 3
	case OpDecimal:
		if nd.Arg != 4 && nd.Arg != 8 {
			return fmt.Errorf("graph: decimal width %d out of range", nd.Arg)
		}
		if nd.Scale < 1 || nd.Scale > maxDecimalScale {
			return fmt.Errorf("graph: decimal scale %d out of range", nd.Scale)
		}
		wantChildren = 1
	default:
		return fmt.Errorf("graph: unknown op 0x%02x", byte(nd.Op))
	}
	if len(nd.Children) != wantChildren {
		return fmt.Errorf("graph: %s wants %d children, has %d", nd.Op, wantChildren, len(nd.Children))
	}
	for _, c := range nd.Children {
		if err := validateNode(c, depth+1, count); err != nil {
			return err
		}
	}
	return nil
}

// appendGraph serializes the graph preorder: op byte, op params, then
// children. Child counts are implied by the op, so the encoding needs no
// explicit tree shape bytes.
func appendGraph(dst []byte, nd *Node) []byte {
	dst = append(dst, byte(nd.Op))
	switch nd.Op {
	case OpZstd, OpTranspose, OpDelta, OpZigzag, OpVarint, OpBitpack, OpFloatPlane, OpXorDelta:
		dst = append(dst, byte(nd.Arg))
	case OpSplitAt:
		dst = binary.AppendUvarint(dst, uint64(nd.Arg))
	case OpDecimal:
		dst = append(dst, byte(nd.Arg), byte(nd.Scale))
	case OpStructSplit:
		dst = append(dst, byte(len(nd.Widths)))
		for _, w := range nd.Widths {
			dst = append(dst, byte(w))
		}
	}
	for _, c := range nd.Children {
		dst = appendGraph(dst, c)
	}
	return dst
}

// parseGraph reads one serialized node (and its subtree) from src,
// returning the node and the bytes consumed. Unknown ops yield
// ErrUnknownNode; malformed structures yield ErrCorrupt.
func parseGraph(src []byte, depth int, count *int) (*Node, int, error) {
	if depth > maxDepth {
		return nil, 0, corruptf("graph too deep")
	}
	*count++
	if *count > maxNodes {
		return nil, 0, corruptf("too many nodes")
	}
	if len(src) < 1 {
		return nil, 0, corruptf("truncated graph")
	}
	nd := &Node{Op: Op(src[0])}
	pos := 1
	children := 0
	switch nd.Op {
	case OpRaw, OpHuff, OpFSE:
	case OpZstd:
		if len(src) < 2 {
			return nil, 0, corruptf("truncated zstd level")
		}
		nd.Arg = int(src[1])
		pos = 2
	case OpSplitAt:
		off, k := binary.Uvarint(src[pos:])
		if k <= 0 || off > maxStreamLen {
			return nil, 0, corruptf("split offset")
		}
		nd.Arg = int(off)
		pos += k
		children = 2
	case OpStructSplit:
		if len(src) < 2 {
			return nil, 0, corruptf("truncated struct split")
		}
		k := int(src[1])
		pos = 2
		if k < 2 || k > maxFields || len(src) < pos+k {
			return nil, 0, corruptf("struct split fields")
		}
		nd.Widths = make([]int, k)
		for i := 0; i < k; i++ {
			nd.Widths[i] = int(src[pos+i])
		}
		pos += k
		children = k
	case OpTranspose:
		if len(src) < 2 {
			return nil, 0, corruptf("truncated transpose stride")
		}
		nd.Arg = int(src[1])
		pos = 2
		children = 1
	case OpDelta, OpZigzag, OpVarint, OpBitpack, OpXorDelta:
		if len(src) < 2 {
			return nil, 0, corruptf("truncated %s width", nd.Op)
		}
		nd.Arg = int(src[1])
		pos = 2
		children = 1
	case OpFloatPlane:
		if len(src) < 2 {
			return nil, 0, corruptf("truncated float plane width")
		}
		nd.Arg = int(src[1])
		pos = 2
		children = 3
	case OpDecimal:
		if len(src) < 3 {
			return nil, 0, corruptf("truncated decimal params")
		}
		nd.Arg = int(src[1])
		nd.Scale = int(src[2])
		pos = 3
		children = 1
	default:
		return nil, 0, fmt.Errorf("%w 0x%02x", ErrUnknownNode, byte(nd.Op))
	}
	for i := 0; i < children; i++ {
		c, used, err := parseGraph(src[pos:], depth+1, count)
		if err != nil {
			return nil, 0, err
		}
		nd.Children = append(nd.Children, c)
		pos += used
	}
	return nd, pos, nil
}

// String renders the graph as a readable expression, e.g.
// "delta8(zigzag8(varint8(zstd3)))".
func (g *Graph) String() string {
	if g == nil || g.Root == nil {
		return "<nil>"
	}
	return nodeString(g.Root)
}

func nodeString(nd *Node) string {
	label := nd.Op.String()
	switch nd.Op {
	case OpZstd, OpSplitAt, OpTranspose, OpDelta, OpZigzag, OpVarint, OpBitpack, OpFloatPlane, OpXorDelta:
		label = fmt.Sprintf("%s%d", label, nd.Arg)
	case OpStructSplit:
		label = fmt.Sprintf("%s%v", label, nd.Widths)
	case OpDecimal:
		label = fmt.Sprintf("%s%de%d", label, nd.Arg, nd.Scale)
	}
	if len(nd.Children) == 0 {
		return label
	}
	s := label + "("
	for i, c := range nd.Children {
		if i > 0 {
			s += ", "
		}
		s += nodeString(c)
	}
	return s + ")"
}
