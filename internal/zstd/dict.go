package zstd

import (
	"fmt"

	"github.com/datacomp/datacomp/internal/fse"
	"github.com/datacomp/datacomp/internal/huffman"
)

// A dictionary is content only — a prefix the match finder reaches into —
// or, when it begins with tableDictMagic, it carries entropy tables ahead
// of that content:
//
//	magic (4) | Huffman weight header: literals |
//	FSE count headers: literal-length, offset, match-length codes | content
//
// A block coded against such a dictionary may code its literal section, or
// its sequence section, with these tables and send none of its own
// (litsDict, litsDict4, seqDictBit); frames coded against one are version 3.
// Any other dictionary is all content, exactly as before tables existed; one
// that begins with the magic but does not parse is refused.
var tableDictMagic = [4]byte{0x37, 0xa4, 0x30, 0xec}

// seqAlphabets bounds each sequence-code table: literal-length, offset and
// match-length codes.
var seqAlphabets = [3]int{maxLLCode + 1, maxOFCode + 1, maxMLCode + 1}

// dictSeqTableLog is the FSE table size of a trained dictionary's sequence
// tables. It is larger than a block's own (seqTableLog): the tables are
// built once, from far more sequences, and every code of the alphabet keeps
// a state, which costs the common codes less in a larger table.
const dictSeqTableLog = 11

// dictTables is what a table-carrying dictionary holds besides its content.
type dictTables struct {
	lits *huffman.Table
	norm [3][]uint16
	log  [3]uint
}

// parseDict splits a dictionary into its content and its tables, nil when
// it carries none. It allocates the tables (a few KiB, whatever d holds)
// and aliases d for the content.
func parseDict(d []byte) ([]byte, *dictTables, error) {
	if len(d) < len(tableDictMagic) || [4]byte(d[:4]) != tableDictMagic {
		return d, nil, nil
	}
	t := &dictTables{}
	lits, n, err := huffman.ReadTable(d[4:])
	if err != nil {
		return nil, nil, fmt.Errorf("%w: dictionary literal table: %v", ErrCorrupt, err)
	}
	t.lits = lits
	pos := 4 + n
	for i, alphabet := range seqAlphabets {
		norm, log, k, err := fse.ReadNormHeader(d[pos:])
		if err != nil || len(norm) > alphabet {
			return nil, nil, fmt.Errorf("%w: dictionary sequence table %d", ErrCorrupt, i)
		}
		t.norm[i], t.log[i] = norm, log
		pos += k
	}
	return d[pos:], t, nil
}

// TrainTables returns a dictionary carrying opts.Dict's content and entropy
// tables trained for it: each sample is parsed as one frame an encoder
// configured by opts would code, and the literals and sequence codes of its
// blocks are counted. Every symbol of each alphabet counts once more than it
// occurred, as zstd's own dictionary builder does, so the tables can code
// any block; whether they do is the encoder's choice per section, against a
// table built for the block.
func TrainTables(opts Options, samples [][]byte) ([]byte, error) {
	e, err := NewEncoder(opts)
	if err != nil {
		return nil, err
	}
	var lits [256]uint32
	var codes [3]fse.Histogram
	for _, s := range samples {
		e.work = append(append(e.work[:0], e.content...), s...)
		for start := len(e.content); start < len(e.work); start += MaxBlockSize {
			end := min(start+MaxBlockSize, len(e.work))
			if block := e.work[start:end]; len(block) >= 16 && allSame(block) {
				continue // an RLE block: no entropy stage
			}
			m, err := e.matcher(end - start)
			if err != nil {
				return nil, err
			}
			e.parse(m, e.work, start, end)
			if err := e.sequences(e.work[start:end]); err != nil {
				return nil, err
			}
			for _, b := range e.lits {
				lits[b]++
			}
			for i, stream := range [3][]byte{e.llc, e.ofc, e.mlc} {
				for _, c := range stream {
					codes[i].Counts[c]++
				}
			}
		}
	}

	for i := range lits {
		lits[i]++
	}
	lt, err := huffman.BuildTable(lits[:])
	if err != nil {
		return nil, err
	}
	out := lt.AppendHeader(append([]byte{}, tableDictMagic[:]...))
	for i, alphabet := range seqAlphabets {
		h := &codes[i]
		for c := 0; c < alphabet; c++ {
			h.Counts[c]++
			h.Total += int(h.Counts[c])
		}
		h.MaxSymbol = alphabet - 1
		norm, err := h.Normalize(dictSeqTableLog)
		if err != nil {
			return nil, err
		}
		out = fse.AppendNormHeader(out, norm, dictSeqTableLog)
	}
	return append(out, e.content...), nil
}
