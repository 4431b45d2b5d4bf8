package adaptive

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Adaptive frames are self-describing so a reader never needs the writer's
// controller state to pick a decoder: the header names the generation that
// encoded the frame plus everything required to rebuild its engine (codec
// identity and dictionary ID). That is what lets the controller evict
// encoder pools for retired generations, and what makes a class the
// paper's Managed Compression service (§II-B): every dictionary the class
// adopted stays resolvable from the ID embedded in the frame.
//
//	adaptive frame:  0xAD | uvarint generation | codec ID byte | uvarint dict ID | payload
const magicAdaptive = 0xAD

// Codec identity bytes. The wire format admits new codecs by appending;
// IDs are frozen once released.
const (
	codecInvalid byte = iota
	codecZstd
	codecLZ4
	codecZlib
	codecGraph
)

var codecNames = [...]string{codecZstd: "zstd", codecLZ4: "lz4", codecZlib: "zlib", codecGraph: "graph"}

func codecIDOf(name string) byte {
	for id, n := range codecNames {
		if n == name {
			return byte(id)
		}
	}
	return codecInvalid
}

func codecNameOf(id byte) string {
	if int(id) < len(codecNames) {
		return codecNames[id]
	}
	return ""
}

// ErrFrame reports a payload that is not a well-formed adaptive frame.
var ErrFrame = errors.New("adaptive: malformed frame")

// appendHeader encodes the adaptive frame header.
func appendHeader(dst []byte, gen uint64, codecID byte, dictID uint32) []byte {
	dst = append(dst, magicAdaptive)
	dst = binary.AppendUvarint(dst, gen)
	dst = append(dst, codecID)
	return binary.AppendUvarint(dst, uint64(dictID))
}

// ParseFrame splits an adaptive frame into its descriptor and payload.
// Exported so tests and tooling can assert which generation encoded a
// frame.
func ParseFrame(src []byte) (gen uint64, codecID byte, dictID uint32, payload []byte, err error) {
	if len(src) == 0 {
		return 0, 0, 0, nil, ErrFrame
	}
	if src[0] != magicAdaptive {
		return 0, 0, 0, nil, fmt.Errorf("%w: magic 0x%02x", ErrFrame, src[0])
	}
	rest := src[1:]
	gen, n := binary.Uvarint(rest)
	if n <= 0 {
		return 0, 0, 0, nil, fmt.Errorf("%w: generation varint", ErrFrame)
	}
	rest = rest[n:]
	if len(rest) < 1 {
		return 0, 0, 0, nil, fmt.Errorf("%w: missing codec id", ErrFrame)
	}
	codecID = rest[0]
	if codecNameOf(codecID) == "" {
		return 0, 0, 0, nil, fmt.Errorf("%w: codec id 0x%02x", ErrFrame, codecID)
	}
	rest = rest[1:]
	d, n := binary.Uvarint(rest)
	if n <= 0 || d > 0xFFFFFFFF {
		return 0, 0, 0, nil, fmt.Errorf("%w: dict id varint", ErrFrame)
	}
	return gen, codecID, uint32(d), rest[n:], nil
}
