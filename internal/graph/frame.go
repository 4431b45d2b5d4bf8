package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/datacomp/datacomp/internal/fse"
	"github.com/datacomp/datacomp/internal/huffman"
	"github.com/datacomp/datacomp/internal/zstd"
)

// Frame layout:
//
//	'Z' 'G' 0x01                      magic + format version
//	uvarint graphLen | graph bytes    the serialized transform graph
//	per leaf, in graph preorder:
//	  uvarint rawLen                  stream length before the terminal
//	  byte mode                      0 = stored, 1 = entropy-coded
//	  uvarint compLen | compLen bytes
//
// The graph travels in every frame (a few dozen bytes), which is what
// makes decode self-describing: a reader reconstructs the exact inverse
// pipeline with no out-of-band schema, and frames using node kinds it
// does not implement fail with ErrUnknownNode instead of mis-decoding.
const (
	frameMagic0  = 'Z'
	frameMagic1  = 'G'
	frameVersion = 0x01
	headerLen    = 3
)

// leaf stream modes.
const (
	modeStored = 0
	modeCoded  = 1
)

// coders owns the entropy-stage scratch state shared by one engine.
// Not safe for concurrent use, like the engines it backs.
type coders struct {
	zencs map[int]*zstd.Encoder
	zdec  *zstd.Decoder
	fse   fse.Scratch
	huff  huffman.Scratch
	stage []byte // staging buffer for trial encodes
	gbuf  []byte // graph serialization scratch
	// Single-entry parsed-graph cache: a steady stream of frames from
	// one writer repeats one graph, so decode skips re-parsing (and
	// re-validating) it. Keyed by the serialized bytes.
	lastGB   []byte
	lastRoot *Node
	// Per-depth transform scratch. An interior node at depth d
	// materializes its child streams into row d's buffers; descendants
	// only ever touch deeper rows and siblings run sequentially, so the
	// buffers grow to the corpus's steady shape and pinned engines
	// transform without allocating.
	rows [][][]byte
}

// row returns depth d's scratch row with at least n buffer slots. Callers
// truncate each slot to zero length before use and store grown buffers
// back, so capacity survives across frames.
func (c *coders) row(d, n int) [][]byte {
	for len(c.rows) <= d {
		c.rows = append(c.rows, nil)
	}
	r := c.rows[d]
	for len(r) < n {
		r = append(r, nil)
	}
	c.rows[d] = r
	return r[:n]
}

func (c *coders) zstdEnc(level int) (*zstd.Encoder, error) {
	if c.zencs == nil {
		c.zencs = make(map[int]*zstd.Encoder, 2)
	}
	if e, ok := c.zencs[level]; ok {
		return e, nil
	}
	e, err := zstd.NewEncoder(zstd.Options{Level: level})
	if err != nil {
		return nil, err
	}
	c.zencs[level] = e
	return e, nil
}

func (c *coders) zstdDec() *zstd.Decoder {
	if c.zdec == nil {
		c.zdec, _ = zstd.NewDecoder(nil) // no dictionary: nothing to parse, no error
	}
	return c.zdec
}

// encodeLeaf appends one leaf stream (rawLen, mode, compLen, payload) to
// dst. Entropy terminals keep whichever of coded/stored is smaller, so a
// pinned graph never inflates pathological streams beyond the few header
// bytes.
func (c *coders) encodeLeaf(dst []byte, nd *Node, stream []byte) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(stream)))
	coded := c.stage[:0]
	var err error
	switch nd.Op {
	case OpRaw:
		coded = nil
	case OpZstd:
		var enc *zstd.Encoder
		if enc, err = c.zstdEnc(nd.Arg); err != nil {
			return nil, err
		}
		if coded, err = enc.Compress(coded, stream); err != nil {
			return nil, err
		}
	case OpHuff:
		if coded, err = c.huff.Compress(coded, stream); err != nil {
			if !errors.Is(err, huffman.ErrIncompressible) {
				return nil, err
			}
			coded = nil
		}
	case OpFSE:
		if coded, err = c.fse.Compress(coded, stream, 12); err != nil {
			if !errors.Is(err, fse.ErrIncompressible) {
				return nil, err
			}
			coded = nil
		}
	default:
		return nil, fmt.Errorf("graph: %s is not a leaf", nd.Op)
	}
	if coded != nil {
		c.stage = coded[:0:cap(coded)]
	}
	if coded == nil || len(coded) >= len(stream) {
		dst = append(dst, modeStored)
		dst = binary.AppendUvarint(dst, uint64(len(stream)))
		return append(dst, stream...), nil
	}
	dst = append(dst, modeCoded)
	dst = binary.AppendUvarint(dst, uint64(len(coded)))
	return append(dst, coded...), nil
}

// decodeLeaf reads one leaf stream from src[pos:], appends the decoded
// bytes to dst and returns the new position.
func (c *coders) decodeLeaf(dst []byte, nd *Node, src []byte, pos int) ([]byte, int, error) {
	rawLen64, k := binary.Uvarint(src[pos:])
	if k <= 0 || rawLen64 > maxStreamLen {
		return nil, 0, corruptf("leaf raw length")
	}
	pos += k
	if pos >= len(src) {
		return nil, 0, corruptf("truncated leaf mode")
	}
	mode := src[pos]
	pos++
	compLen64, k := binary.Uvarint(src[pos:])
	if k <= 0 || compLen64 > uint64(len(src)-pos-k) {
		return nil, 0, corruptf("leaf payload length")
	}
	pos += k
	payload := src[pos : pos+int(compLen64)]
	pos += int(compLen64)
	rawLen := int(rawLen64)
	base := len(dst)
	var err error
	switch mode {
	case modeStored:
		if len(payload) != rawLen {
			return nil, 0, corruptf("stored leaf length %d, want %d", len(payload), rawLen)
		}
		dst = append(dst, payload...)
	case modeCoded:
		switch nd.Op {
		case OpZstd:
			if dst, err = c.zstdDec().Decompress(dst, payload); err != nil {
				return nil, 0, corruptf("zstd leaf: %v", err)
			}
		case OpHuff:
			if dst, err = c.huff.Decompress(dst, payload, rawLen); err != nil {
				return nil, 0, corruptf("huffman leaf: %v", err)
			}
		case OpFSE:
			if dst, err = c.fse.Decompress(dst, payload, rawLen); err != nil {
				return nil, 0, corruptf("fse leaf: %v", err)
			}
		case OpRaw:
			return nil, 0, corruptf("coded raw leaf")
		default:
			return nil, 0, corruptf("%s is not a leaf", nd.Op)
		}
	default:
		return nil, 0, corruptf("leaf mode 0x%02x", mode)
	}
	if len(dst)-base != rawLen {
		return nil, 0, corruptf("leaf decoded %d bytes, want %d", len(dst)-base, rawLen)
	}
	return dst, pos, nil
}

// encodeFrame runs src through the graph and appends the complete frame
// to dst. Structural mismatches (errShape) abort cleanly so the caller
// can fall back to a generic graph.
func encodeFrame(dst []byte, g *Graph, src []byte, c *coders) ([]byte, error) {
	base := len(dst)
	dst = append(dst, frameMagic0, frameMagic1, frameVersion)
	gb := appendGraph(c.gbuf[:0], g.Root)
	c.gbuf = gb[:0:cap(gb)]
	if len(gb) > maxGraphBytes {
		return nil, errors.New("graph: serialized graph too large")
	}
	dst = binary.AppendUvarint(dst, uint64(len(gb)))
	dst = append(dst, gb...)
	dst, err := encodeNode(dst, g.Root, src, c, 0)
	if err != nil {
		return dst[:base], err
	}
	return dst, nil
}

// encodeNode transforms one stream and appends its subtree's leaf
// streams to dst. depth indexes the scratch arena row this node's
// materialized child streams live in.
func encodeNode(dst []byte, nd *Node, stream []byte, c *coders, depth int) ([]byte, error) {
	if nd.Op.leaf() {
		return c.encodeLeaf(dst, nd, stream)
	}
	var err error
	switch nd.Op {
	case OpSplitAt:
		head, tail := applySplitAt(stream, nd.Arg)
		if dst, err = encodeNode(dst, nd.Children[0], head, c, depth+1); err != nil {
			return nil, err
		}
		return encodeNode(dst, nd.Children[1], tail, c, depth+1)
	case OpStructSplit:
		outs := c.row(depth, len(nd.Widths))
		if outs, err = applyStructSplit(stream, nd.Widths, outs); err != nil {
			return nil, err
		}
		for i, child := range nd.Children {
			if dst, err = encodeNode(dst, child, outs[i], c, depth+1); err != nil {
				return nil, err
			}
		}
		return dst, nil
	case OpFloatPlane:
		outs := c.row(depth, 3)
		if outs, err = applyFloatPlane(stream, nd.Arg, outs); err != nil {
			return nil, err
		}
		for i, child := range nd.Children {
			if dst, err = encodeNode(dst, child, outs[i], c, depth+1); err != nil {
				return nil, err
			}
		}
		return dst, nil
	case OpTranspose, OpDelta, OpZigzag, OpVarint, OpBitpack, OpXorDelta, OpDecimal:
		row := c.row(depth, 1)
		var out []byte
		switch nd.Op {
		case OpTranspose:
			out, err = applyTranspose(row[0][:0], stream, nd.Arg)
		case OpDelta:
			out, err = applyDelta(row[0][:0], stream, nd.Arg)
		case OpZigzag:
			out, err = applyZigzag(row[0][:0], stream, nd.Arg)
		case OpVarint:
			out, err = applyVarint(row[0][:0], stream, nd.Arg)
		case OpBitpack:
			out, err = applyBitpack(row[0][:0], stream, nd.Arg)
		case OpXorDelta:
			out, err = applyXorDelta(row[0][:0], stream, nd.Arg)
		case OpDecimal:
			out, err = applyDecimal(row[0][:0], stream, nd.Arg, nd.Scale)
		}
		if err != nil {
			return nil, err
		}
		row[0] = out
		return encodeNode(dst, nd.Children[0], out, c, depth+1)
	}
	return nil, fmt.Errorf("graph: unhandled op %s", nd.Op)
}

// decodeFrame parses a frame and appends the decoded payload to dst.
func decodeFrame(dst, src []byte, c *coders) ([]byte, error) {
	if len(src) < headerLen || src[0] != frameMagic0 || src[1] != frameMagic1 {
		return nil, corruptf("bad magic")
	}
	if src[2] != frameVersion {
		return nil, corruptf("unsupported frame version 0x%02x", src[2])
	}
	pos := headerLen
	glen64, k := binary.Uvarint(src[pos:])
	if k <= 0 || glen64 > maxGraphBytes || glen64 > uint64(len(src)-pos-k) {
		return nil, corruptf("graph length")
	}
	pos += k
	gb := src[pos : pos+int(glen64)]
	pos += int(glen64)
	root := c.lastRoot
	if root == nil || !bytes.Equal(gb, c.lastGB) {
		count := 0
		parsed, used, err := parseGraph(gb, 0, &count)
		if err != nil {
			return nil, err
		}
		if used != len(gb) {
			return nil, corruptf("trailing graph bytes")
		}
		if err := (&Graph{Root: parsed}).Validate(); err != nil {
			return nil, corruptf("invalid graph: %v", err)
		}
		root = parsed
		c.lastGB = append(c.lastGB[:0], gb...)
		c.lastRoot = parsed
	}
	var err error
	dst, pos, err = decodeNode(dst, root, src, pos, c, 0)
	if err != nil {
		return nil, err
	}
	if pos != len(src) {
		return nil, corruptf("trailing frame bytes")
	}
	return dst, nil
}

// decodeNode reconstructs one node's stream: leaves read from the frame,
// interior nodes invert their transform over recursively decoded
// children. Returns the updated frame position. depth indexes the scratch
// arena row the children decode into.
func decodeNode(dst []byte, nd *Node, src []byte, pos int, c *coders, depth int) ([]byte, int, error) {
	if nd.Op.leaf() {
		return c.decodeLeaf(dst, nd, src, pos)
	}
	// Decode children into this depth's scratch row, then invert.
	kids := c.row(depth, len(nd.Children))
	var err error
	for i, child := range nd.Children {
		buf := kids[i][:0]
		if buf, pos, err = decodeNode(buf, child, src, pos, c, depth+1); err != nil {
			return nil, 0, err
		}
		kids[i] = buf
	}
	switch nd.Op {
	case OpSplitAt:
		dst = append(dst, kids[0]...)
		dst = append(dst, kids[1]...)
	case OpStructSplit:
		dst, err = invertStructSplit(dst, nd.Widths, kids)
	case OpFloatPlane:
		dst, err = invertFloatPlane(dst, nd.Arg, kids)
	case OpTranspose:
		dst, err = invertTranspose(dst, kids[0], nd.Arg)
	case OpDelta:
		dst, err = invertDelta(dst, kids[0], nd.Arg)
	case OpZigzag:
		dst, err = invertZigzag(dst, kids[0], nd.Arg)
	case OpVarint:
		dst, err = invertVarint(dst, kids[0], nd.Arg)
	case OpBitpack:
		dst, err = invertBitpack(dst, kids[0], nd.Arg)
	case OpXorDelta:
		dst, err = invertXorDelta(dst, kids[0], nd.Arg)
	case OpDecimal:
		dst, err = invertDecimal(dst, kids[0], nd.Arg, nd.Scale)
	default:
		return nil, 0, fmt.Errorf("%w 0x%02x", ErrUnknownNode, byte(nd.Op))
	}
	if err != nil {
		return nil, 0, err
	}
	return dst, pos, nil
}
