// Ratio against the real codecs. testdata/reference/ratios.json holds what
// the reference implementations the paper measured (zstd, gzip, lz4) make
// of benchsnap's three 128 KiB payloads and of a fixed set of the store's
// own blocks. The C tools are not needed to read it: the test compares this
// repository's codecs to the committed ratios, and regenerates the file
// only under -update with the tools on PATH.
package datacomp_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/corpus"
	"github.com/datacomp/datacomp/internal/dict"
	"github.com/datacomp/datacomp/internal/kvstore"
	"github.com/datacomp/datacomp/internal/xxhash"
)

var updateReference = flag.Bool("update", false, "regenerate testdata/reference/ratios.json with the zstd, gzip and lz4 tools on PATH")

const referencePath = "testdata/reference/ratios.json"

// referenceGapSlack is how far a zstd-1 gap to the reference may widen from
// the gap the file records before the test fails: a ratchet on what the
// parse reached, not a parity gate.
const referenceGapSlack = 0.005

// referenceFile is the committed reference.
type referenceFile struct {
	Note   string            `json:"note"`
	Tools  map[string]string `json:"tools"`
	Inputs []referenceInput  `json:"inputs"`
	Rows   []referenceRow    `json:"rows"`
}

// referenceInput names an input and pins its bytes: a changed input (the
// store's block layout, say) needs a regenerated reference.
type referenceInput struct {
	Name   string `json:"name"`
	Items  int    `json:"items"` // each coded as its own frame
	Bytes  int    `json:"bytes"`
	SHA256 string `json:"sha256"`
}

// referenceRow is one codec at one level over one input: the reference's
// ratio, ours when the file was written, and for zstd-1 the reference's
// frames broken down by section. A row with Dict codes every item against a
// dictionary of at most that many bytes, each side trained by its own
// trainer on the input's dictionary samples (referenceDictSamples).
type referenceRow struct {
	Codec    string        `json:"codec"`
	Level    int           `json:"level"`
	Input    string        `json:"input"`
	Dict     int           `json:"dict,omitempty"`
	Real     float64       `json:"real"`
	Ours     float64       `json:"ours"`
	Sections *frameSection `json:"sections,omitempty"`
}

// referenceDictBytes is the dictionary rows' size bound: a store's and a
// node's replies' dictionary (kvstore's dictBytes).
const referenceDictBytes = 2 << 10

// referenceLevels are the rows the file holds: codec → levels, our codec.
var referenceLevels = []struct {
	codec, ours string
	levels      []int
}{
	{"zstd", "zstd", []int{-1, 1, 3, 6, 9, 19}},
	{"gzip", "zlib", []int{6}},
	{"lz4", "lz4", []int{1}},
}

// referenceInputs are benchsnap's payloads, the store-block set, and
// benchsnap's 1 KiB records (its "records-1KiB" rows: 64 items, each coded
// as its own frame, as a node codes a get reply).
func referenceInputs(t *testing.T) map[string][][]byte {
	t.Helper()
	_, blocks, _ := storeShaped(t)
	return map[string][][]byte{
		"logs":         {corpus.LogLines(7, 128<<10)},
		"source":       {corpus.SourceCode(7, 128<<10)},
		"records":      {corpus.Records(7, 128<<10)},
		"store-blocks": blocks,
		"records-1k":   smallRecords(7),
	}
}

var referenceInputOrder = []string{"logs", "source", "records", "store-blocks", "records-1k"}

// smallRecords are 64 benchsnap-shaped 1 KiB records from seed.
func smallRecords(seed int64) [][]byte {
	items := make([][]byte, 64)
	for i := range items {
		items[i] = corpus.Records(int64(31*i)+seed, 1<<10)
	}
	return items
}

// referenceDictSamples are what the dictionary rows train on, per input:
// for the store blocks, the records the store holds, as its own dictionary
// trains on values; for the 1 KiB records, other records of the size, as
// benchsnap's "/dict2KiB" rows train.
func referenceDictSamples(t *testing.T) map[string][][]byte {
	t.Helper()
	records, _, _ := storeShaped(t)
	return map[string][][]byte{
		"store-blocks": records,
		"records-1k":   smallRecords(1000),
	}
}

// ourDict trains our zstd-1 dictionary for input: content from samples,
// tables from the items it codes, as a store trains its tables on its
// blocks.
func ourDict(t *testing.T, samples, items [][]byte) []byte {
	t.Helper()
	d, err := dict.TrainZstd(1, referenceDictBytes, samples, items)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func inputDigest(items [][]byte) string {
	h := sha256.New()
	for _, it := range items {
		fmt.Fprintf(h, "%d|", len(it))
		h.Write(it)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// storeShaped returns what a serving node stores for 1 KiB values — each
// record (17-byte version, flag and checksum header, then a value cut from
// the records-and-logs pool with a 16-byte stamp) — the raw 8 KiB blocks a
// flush of them writes, and the dictionary the store trains from them.
func storeShaped(t testing.TB) (records, blocks [][]byte, dict []byte) {
	t.Helper()
	const valueSize, windows = 1 << 10, 4096
	pool := append(corpus.Records(1, valueSize*windows/2), corpus.LogLines(1, valueSize*windows/2)...)
	ctx := context.Background()
	var raw rawBlocks
	plain, err := kvstore.Open(ctx, "", kvstore.WithPersister(kvstore.NewMemPersister()), kvstore.WithEngine(&raw), kvstore.WithoutWAL())
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	trained, err := kvstore.Open(ctx, "", kvstore.WithPersister(kvstore.NewMemPersister()), kvstore.WithoutWAL())
	if err != nil {
		t.Fatal(err)
	}
	defer trained.Close()
	for k := uint64(0); k < 900; k++ {
		stamp := k*7919 + 1
		at := int(xxhash.Sum64(binary.LittleEndian.AppendUint64(nil, stamp))%windows) * valueSize
		value := bytes.Clone(pool[at : at+valueSize])
		copy(value, fmt.Sprintf("%016x", stamp))
		rec := binary.LittleEndian.AppendUint64(nil, stamp)
		rec = append(rec, 0)
		rec = binary.LittleEndian.AppendUint64(rec, xxhash.Sum64(value))
		rec = append(rec, value...)
		records = append(records, rec)
		key := []byte(fmt.Sprintf("user:%08d", xxhash.Sum64(rec)%100000000))
		for _, db := range []*kvstore.DB{plain, trained} {
			if err := db.Put(ctx, key, rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, db := range []*kvstore.DB{plain, trained} {
		if err := db.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if dict = trained.Dict().Bytes; dict == nil {
		t.Fatal("the store trained no dictionary")
	}
	return records, raw.blocks, dict
}

// rawBlocks is a block engine that codes nothing and keeps each block.
type rawBlocks struct{ blocks [][]byte }

func (r *rawBlocks) Compress(dst, src []byte) ([]byte, error) {
	r.blocks = append(r.blocks, bytes.Clone(src))
	return append(dst, src...), nil
}

func (r *rawBlocks) Decompress(dst, src []byte) ([]byte, error) { return append(dst, src...), nil }

// TestZstdReferenceRatios prints our ratio beside the reference's at each
// level, with zstd-1's frames broken down by section, and fails when a
// zstd-1 gap widens by more than referenceGapSlack from the committed one.
func TestZstdReferenceRatios(t *testing.T) {
	inputs := referenceInputs(t)
	if *updateReference {
		writeReference(t, inputs)
	}
	raw, err := os.ReadFile(referencePath)
	if err != nil {
		t.Fatal(err)
	}
	var ref referenceFile
	if err := json.Unmarshal(raw, &ref); err != nil {
		t.Fatal(err)
	}
	for _, in := range ref.Inputs {
		if got := inputDigest(inputs[in.Name]); got != in.SHA256 {
			t.Fatalf("input %s digests %s, the reference was made from %s: regenerate it (-update)", in.Name, got, in.SHA256)
		}
	}
	t.Logf("reference tools: %v", ref.Tools)
	samples := referenceDictSamples(t)
	ratchets, dictRows := 0, 0
	for _, row := range ref.Rows {
		items := inputs[row.Input]
		var d []byte
		if row.Dict != 0 {
			dictRows++
			d = ourDict(t, samples[row.Input], items)
		}
		ours := ourRatio(t, referenceOurs(row.Codec), row.Level, items, d)
		gap, pinned := ours/row.Real-1, row.Ours/row.Real-1
		name := row.Input
		if row.Dict != 0 {
			name += fmt.Sprintf("+dict%d", row.Dict)
		}
		t.Logf("%-4s %3d %-17s real %.4f ours %.4f gap %+6.2f%% (pinned %+6.2f%%); %.1f B against %.1f B a frame",
			row.Codec, row.Level, name, row.Real, ours, 100*gap, 100*pinned, meanFrame(items, row.Real), meanFrame(items, ours))
		if row.Sections != nil {
			mine := ourSections(t, row.Level, items)
			t.Logf("     real: %s", row.Sections)
			t.Logf("     ours: %s", mine)
		}
		if row.Codec == "zstd" && row.Level == 1 {
			ratchets++
			if gap < pinned-referenceGapSlack {
				t.Errorf("zstd-1 on %s: gap to the reference widened to %+.2f%% from %+.2f%%", name, 100*gap, 100*pinned)
			}
		}
	}
	if want := len(referenceInputOrder) + len(samples); ratchets != want || dictRows != len(samples) {
		t.Fatalf("%d zstd-1 rows, %d of them with a dictionary, in %s: want one per input and one more per input with dictionary samples", ratchets, dictRows, referencePath)
	}
}

// meanFrame is the mean frame size in bytes of items coded at ratio.
func meanFrame(items [][]byte, ratio float64) float64 {
	n := 0
	for _, it := range items {
		n += len(it)
	}
	return float64(n) / ratio / float64(len(items))
}

func referenceOurs(tool string) string {
	for _, c := range referenceLevels {
		if c.codec == tool {
			return c.ours
		}
	}
	return ""
}

// ourRatio codes each item as its own frame, against d when it is not nil,
// and returns in/out.
func ourRatio(t *testing.T, name string, level int, items [][]byte, d []byte) float64 {
	t.Helper()
	opts := []codec.Option{codec.WithLevel(level)}
	if d != nil {
		opts = append(opts, codec.WithDict(d))
	}
	eng, err := codec.NewEngine(name, opts...)
	if err != nil {
		t.Fatal(err)
	}
	in, out := 0, 0
	var dst []byte
	for _, it := range items {
		if dst, err = eng.Compress(dst[:0], it); err != nil {
			t.Fatal(err)
		}
		in += len(it)
		out += len(dst)
	}
	return float64(in) / float64(out)
}

// ourSections codes each item at level and sums its frames' sections.
func ourSections(t *testing.T, level int, items [][]byte) frameSection {
	t.Helper()
	eng, err := codec.NewEngine("zstd", codec.WithLevel(level))
	if err != nil {
		t.Fatal(err)
	}
	var sum frameSection
	for _, it := range items {
		frame, err := eng.Compress(nil, it)
		if err != nil {
			t.Fatal(err)
		}
		s, err := parseOurFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		sum.add(s)
	}
	return sum
}

// writeReference runs the tools over every input and rewrites the file.
func writeReference(t *testing.T, inputs map[string][][]byte) {
	t.Helper()
	tools := map[string]string{}
	for _, tool := range []string{"zstd", "gzip", "lz4"} {
		if _, err := exec.LookPath(tool); err != nil {
			t.Fatalf("-update needs %s on PATH: %v", tool, err)
		}
		out, err := exec.Command(tool, "--version").CombinedOutput()
		if err != nil {
			t.Fatalf("%s --version: %v", tool, err)
		}
		version := regexp.MustCompile(`\d+\.\d+(\.\d+)?`).FindString(string(out))
		if version == "" {
			t.Fatalf("%s --version printed no version: %q", tool, out)
		}
		tools[tool] = version
	}
	ref := referenceFile{
		Note:  "ratios of the reference codecs (each input item coded as its own file: zstd --no-check, gzip -n, lz4 --no-frame-crc) beside this repository's when the file was written; rows with dict code against a dictionary of at most that many bytes, zstd's from zstd --train --maxdict, ours from dict.TrainZstd, on the same samples; regenerate with go test -run TestZstdReferenceRatios -update . and the tools on PATH",
		Tools: tools,
	}
	dictSamples := referenceDictSamples(t)
	for _, name := range referenceInputOrder {
		items := inputs[name]
		n := 0
		for _, it := range items {
			n += len(it)
		}
		ref.Inputs = append(ref.Inputs, referenceInput{Name: name, Items: len(items), Bytes: n, SHA256: inputDigest(items)})
		dir := t.TempDir()
		files := make([]string, len(items))
		for i, it := range items {
			files[i] = filepath.Join(dir, fmt.Sprintf("%s-%04d", name, i))
			if err := os.WriteFile(files[i], it, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range referenceLevels {
			for _, level := range c.levels {
				frames := runReferenceTool(t, c.codec, level, files)
				out := 0
				for _, f := range frames {
					out += len(f)
				}
				row := referenceRow{
					Codec: c.codec, Level: level, Input: name,
					Real: round4(float64(n) / float64(out)),
					Ours: round4(ourRatio(t, c.ours, level, items, nil)),
				}
				if c.codec == "zstd" && level == 1 {
					var s frameSection
					for _, f := range frames {
						fs, err := parseRFCFrame(f)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						s.add(fs)
					}
					row.Sections = &s
				}
				ref.Rows = append(ref.Rows, row)
			}
		}
		if samples := dictSamples[name]; samples != nil {
			dictFile := trainReferenceDict(t, dir, samples)
			out := 0
			for _, f := range runReferenceTool(t, "zstd", 1, files, "-D", dictFile) {
				out += len(f)
			}
			ref.Rows = append(ref.Rows, referenceRow{
				Codec: "zstd", Level: 1, Input: name, Dict: referenceDictBytes,
				Real: round4(float64(n) / float64(out)),
				Ours: round4(ourRatio(t, "zstd", 1, items, ourDict(t, samples, items))),
			})
		}
	}
	raw, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(referencePath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(referencePath, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func round4(x float64) float64 { return math.Round(x*1e4) / 1e4 }

// trainReferenceDict writes samples under dir and trains zstd's dictionary
// on them, of at most referenceDictBytes; it returns the dictionary's file.
func trainReferenceDict(t *testing.T, dir string, samples [][]byte) string {
	t.Helper()
	sdir := filepath.Join(dir, "samples")
	if err := os.MkdirAll(sdir, 0o755); err != nil {
		t.Fatal(err)
	}
	files := make([]string, len(samples))
	for i, s := range samples {
		files[i] = filepath.Join(sdir, fmt.Sprintf("sample-%04d", i))
		if err := os.WriteFile(files[i], s, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out := filepath.Join(dir, "dict")
	args := append([]string{"--train", fmt.Sprintf("--maxdict=%d", referenceDictBytes), "-q", "-f", "-o", out}, files...)
	if msg, err := exec.Command("zstd", args...).CombinedOutput(); err != nil {
		t.Fatalf("zstd --train: %v\n%s", err, msg)
	}
	return out
}

// runReferenceTool codes each file with tool at level, in one run of the
// tool with extra arguments, and returns the frames in file order.
func runReferenceTool(t *testing.T, tool string, level int, files []string, extra ...string) [][]byte {
	t.Helper()
	args := extra
	var ext string
	switch tool {
	case "zstd":
		if level < 0 {
			args = append(args, fmt.Sprintf("--fast=%d", -level))
		} else {
			args = append(args, fmt.Sprintf("-%d", level))
		}
		args, ext = append(args, "-q", "-f", "--no-check", "--no-progress"), ".zst"
	case "gzip":
		args, ext = append(args, fmt.Sprintf("-%d", level), "-k", "-n", "-f"), ".gz"
	case "lz4":
		args, ext = append(args, fmt.Sprintf("-%d", level), "-m", "-q", "-f", "--no-frame-crc"), ".lz4"
	}
	if out, err := exec.Command(tool, append(args, files...)...).CombinedOutput(); err != nil {
		t.Fatalf("%s %v: %v\n%s", tool, args, err, out)
	}
	frames := make([][]byte, len(files))
	for i, f := range files {
		b, err := os.ReadFile(f + ext)
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = b
		os.Remove(f + ext)
	}
	return frames
}

// frameSection sums the compressed blocks of frames by section: how many
// sequences and literals they code, and the bytes their literal sections
// (headers and tables included) and sequence sections take.
type frameSection struct {
	Blocks   int `json:"blocks"`
	Seqs     int `json:"seqs"`
	Lits     int `json:"lits"`
	LitBytes int `json:"lit_bytes"`
	SeqBytes int `json:"seq_bytes"`
}

func (s *frameSection) add(o frameSection) {
	s.Blocks += o.Blocks
	s.Seqs += o.Seqs
	s.Lits += o.Lits
	s.LitBytes += o.LitBytes
	s.SeqBytes += o.SeqBytes
}

func (s frameSection) String() string {
	return fmt.Sprintf("%d blocks: %d sequences at %.2f B, %d literals at %.2f bits",
		s.Blocks, s.Seqs, float64(s.SeqBytes)/float64(max(s.Seqs, 1)), s.Lits, 8*float64(s.LitBytes)/float64(max(s.Lits, 1)))
}

var errFrame = errors.New("frame cut short or malformed")

// parseRFCFrame breaks a Zstandard frame down by the RFC 8878 headers:
// the frame header (§3.1.1.1), each block header (§3.1.1.2), and in a
// compressed block the literals section header (§3.1.1.3.1.1) and the
// sequences section's Number_of_Sequences (§3.1.1.3.2.1).
func parseRFCFrame(f []byte) (frameSection, error) {
	if len(f) < 6 || binary.LittleEndian.Uint32(f) != 0xFD2FB528 {
		return frameSection{}, errFrame
	}
	fhd := f[4]
	p := 5
	single := fhd>>5&1 == 1
	if !single {
		p++ // Window_Descriptor
	}
	p += [4]int{0, 1, 2, 4}[fhd&3] // Dictionary_ID
	fcs := [4]int{0, 2, 4, 8}[fhd>>6]
	if fhd>>6 == 0 && single {
		fcs = 1
	}
	return sumBlocks(f, p+fcs, rfcBlock)
}

// sumBlocks walks the blocks from f[p:] on — a 3-byte header (last-block
// bit, 2-bit type, 21-bit size), the same in both formats — and sums what
// block makes of each compressed one.
func sumBlocks(f []byte, p int, block func([]byte) (frameSection, error)) (frameSection, error) {
	var s frameSection
	for {
		if p+3 > len(f) {
			return s, errFrame
		}
		h := int(f[p]) | int(f[p+1])<<8 | int(f[p+2])<<16
		p += 3
		size := h >> 3
		switch h >> 1 & 3 {
		case 0: // raw
			p += size
		case 1: // RLE
			p++
		case 2:
			if p+size > len(f) {
				return s, errFrame
			}
			b, err := block(f[p : p+size])
			if err != nil {
				return s, err
			}
			s.add(b)
			p += size
		default:
			return s, errFrame
		}
		if h&1 == 1 {
			return s, nil
		}
	}
}

func rfcBlock(b []byte) (frameSection, error) {
	s := frameSection{Blocks: 1}
	if len(b) < 1 {
		return s, errFrame
	}
	b0 := int(b[0])
	var hdr, lits, coded int
	switch typ, format := b0&3, b0>>2&3; typ {
	case 0, 1: // raw, RLE
		switch format {
		case 0, 2:
			hdr, lits = 1, b0>>3
		case 1:
			if len(b) < 2 {
				return s, errFrame
			}
			hdr, lits = 2, b0>>4|int(b[1])<<4
		case 3:
			if len(b) < 3 {
				return s, errFrame
			}
			hdr, lits = 3, b0>>4|int(b[1])<<4|int(b[2])<<12
		}
		coded = lits
		if typ == 1 {
			coded = 1
		}
	default: // compressed, treeless
		var width int
		switch format {
		case 0, 1:
			hdr, width = 3, 10
		case 2:
			hdr, width = 4, 14
		case 3:
			hdr, width = 5, 18
		}
		if len(b) < hdr {
			return s, errFrame
		}
		var v uint64
		for k := 0; k < hdr; k++ {
			v |= uint64(b[k]) << (8 * k)
		}
		mask := uint64(1)<<width - 1
		lits, coded = int(v>>4&mask), int(v>>(4+width)&mask)
	}
	s.Lits, s.LitBytes = lits, hdr+coded
	if s.LitBytes >= len(b) {
		return s, errFrame
	}
	seqs := b[s.LitBytes:]
	switch n0 := int(seqs[0]); {
	case n0 < 128:
		s.Seqs = n0
	case n0 < 255:
		if len(seqs) < 2 {
			return s, errFrame
		}
		s.Seqs = (n0-128)<<8 + int(seqs[1])
	default:
		if len(seqs) < 3 {
			return s, errFrame
		}
		s.Seqs = int(seqs[1]) + int(seqs[2])<<8 + 0x7F00
	}
	s.SeqBytes = len(seqs)
	return s, nil
}

// parseOurFrame breaks one of this repository's zstd frames down the same
// way (its own layout, internal/zstd/encode.go): frame header, 3-byte
// block headers, and in a compressed block the literal section (mode byte,
// uvarint counts) and the sequence section that follows it.
func parseOurFrame(f []byte) (frameSection, error) {
	if len(f) < 6 || string(f[:3]) != "ZSX" {
		return frameSection{}, errFrame
	}
	flags := f[4]
	_, n := binary.Uvarint(f[5:])
	if n <= 0 {
		return frameSection{}, errFrame
	}
	p := 5 + n
	if flags&1 != 0 {
		p += 4 // dictionary ID
	}
	return sumBlocks(f, p, ourBlock)
}

func ourBlock(b []byte) (frameSection, error) {
	s := frameSection{Blocks: 1}
	if len(b) < 2 {
		return s, errFrame
	}
	lits, n := binary.Uvarint(b[1:])
	if n <= 0 {
		return s, errFrame
	}
	p := 1 + n
	switch b[0] {
	case 0: // raw
		p += int(lits)
	case 1: // RLE
		p++
	default: // Huffman, one or four streams, built or dictionary tables
		coded, m := binary.Uvarint(b[p:])
		if m <= 0 {
			return s, errFrame
		}
		p += m + int(coded)
	}
	if p >= len(b) {
		return s, errFrame
	}
	seqs, m := binary.Uvarint(b[p:])
	if m <= 0 {
		return s, errFrame
	}
	s.Lits, s.LitBytes, s.Seqs, s.SeqBytes = int(lits), p, int(seqs), len(b)-p
	return s, nil
}
