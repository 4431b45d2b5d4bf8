// Package warehouse models the paper's Data Warehouse services (§IV-B):
// row batches are encoded into ORC-style stripes, cut into ≤256 KiB blocks
// and compressed with the Zstd-style codec. Four workflows reproduce the
// paper's DW1-DW4:
//
//	DW1 Ingestion    — encode + compress at level 7 (long-term storage
//	                   favours ratio; match finding dominates).
//	DW2 Shuffle      — read, re-partition by destination worker, re-write
//	                   at level 1 (short-term storage favours speed).
//	DW3 Spark worker — read, compute, re-write at level 1.
//	DW4 ML job       — read-heavy training input scans with light level-1
//	                   checkpoint writes.
//
// Every workflow accounts compression, decompression and real application
// compute, so the "compute cycles spent in Zstd" percentages of Fig 6 are
// measurable. Fig 7's zstd stage split (match finding vs entropy coding)
// is read from a CPU profile of the run: StageSplit.
package warehouse

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime/pprof"
	"sync"
	"time"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/container"
	"github.com/datacomp/datacomp/internal/corpus"
	"github.com/datacomp/datacomp/internal/graph"
	"github.com/datacomp/datacomp/internal/orc"
	"github.com/datacomp/datacomp/internal/telemetry"
)

// Package-level telemetry on the shared registry, registered at first
// stripe I/O. All workflows in the process aggregate here; per-run numbers
// remain in the returned Stats.
var (
	tmOnce                   sync.Once
	tmCompNS, tmDecompNS     *telemetry.Counter
	tmRawBytes, tmStoredByte *telemetry.Counter
	tmStripeBytes            *telemetry.Histogram
)

func tm() {
	tmOnce.Do(func() {
		r := telemetry.Default
		tmCompNS = r.Counter("warehouse_compress_ns_total", "stripe compression time")
		tmDecompNS = r.Counter("warehouse_decompress_ns_total", "stripe decompression time")
		tmRawBytes = r.Counter("warehouse_raw_bytes_total", "raw stripe bytes compressed")
		tmStoredByte = r.Counter("warehouse_stored_bytes_total", "stored stripe bytes after compression")
		tmStripeBytes = r.Histogram("warehouse_stripe_raw_bytes", "raw encoded stripe size", "bytes")
	})
}

// Stats aggregates one workflow run.
type Stats struct {
	RawBytes    int64
	StoredBytes int64

	CompressTime   time.Duration
	DecompressTime time.Duration
	// EncodeTime covers ORC encode/decode (storage-engine work).
	EncodeTime time.Duration
	// ComputeTime covers the application's own work.
	ComputeTime time.Duration
}

// CompressionRatio is raw/stored bytes.
func (s Stats) CompressionRatio() float64 {
	if s.StoredBytes == 0 {
		return 0
	}
	return float64(s.RawBytes) / float64(s.StoredBytes)
}

// upstreamService labels the stand-in producer's work in a CPU profile.
const upstreamService = "upstream"

// StageSplit is Fig 7's split from a CPU profile of warehouse runs
// (telemetry.ProfileCPU): the match-finding and entropy-coding shares of
// the samples inside zstd compression, and how many samples that was. The
// upstream producer's samples are left out, as Stats leave out its time.
func StageSplit(p *telemetry.CycleProfile) (matchFind, entropy float64, samples int64) {
	var mf, ent int64
	for k, n := range p.Samples() {
		if k.Codec != "zstd" || k.Dir != telemetry.DirCompress || k.Service == upstreamService {
			continue
		}
		samples += n
		switch k.Stage {
		case telemetry.StageMatchFind:
			mf += n
		case telemetry.StageEntropy:
			ent += n
		}
	}
	if samples == 0 {
		return 0, 0, 0
	}
	return float64(mf) / float64(samples), float64(ent) / float64(samples), samples
}

// busyWait is how long ProfileStageSplit waits out another CPU profile,
// such as a /profile request's, before it gives up on a round.
const busyWait = 5 * time.Second

// ProfileStageSplit reruns f, which should run warehouse workflows, under
// telemetry.ProfileCPU until the profiles hold min zstd compression
// samples, and returns StageSplit over them all. Each profile runs f for
// half a second at least, so the profiler's start and stop stay cheap. A
// round that finds the profiler busy is retried for up to busyWait, then
// fails with telemetry.ErrProfilerBusy.
func ProfileStageSplit(min int64, f func()) (matchFind, entropy float64, samples int64, err error) {
	all := telemetry.NewCycleProfile()
	for round := 1; samples < min; round++ {
		var p *telemetry.CycleProfile
		for giveUp := time.Now().Add(busyWait); ; time.Sleep(50 * time.Millisecond) {
			p, err = telemetry.ProfileCPU(func() {
				for end := time.Now().Add(500 * time.Millisecond); time.Now().Before(end); {
					f()
				}
			})
			if !errors.Is(err, telemetry.ErrProfilerBusy) || time.Now().After(giveUp) {
				break
			}
		}
		if err != nil {
			return 0, 0, 0, err
		}
		for k, n := range p.Samples() {
			all.Add(k, n)
		}
		if matchFind, entropy, samples = StageSplit(all); samples == 0 && round == 100 {
			return 0, 0, 0, errors.New("warehouse: 100 profiles held no zstd compression sample")
		}
	}
	return matchFind, entropy, samples, nil
}

func (s *Stats) add(o Stats) {
	s.RawBytes += o.RawBytes
	s.StoredBytes += o.StoredBytes
	s.CompressTime += o.CompressTime
	s.DecompressTime += o.DecompressTime
	s.EncodeTime += o.EncodeTime
	s.ComputeTime += o.ComputeTime
}

// Dataset is stored warehouse data: per stripe, a seekable container whose
// block 0 is a column directory and whose remaining blocks hold each
// column's ORC encoding in ≤ orc.MaxCompressionBlock chunks — so a reader
// that needs two of six columns decompresses only those columns' blocks.
type Dataset struct {
	Stripes [][]byte
	// Level records the compression level the data was written with.
	Level int
	// Engine, when non-nil, is the engine the stripes were written through
	// (e.g. an adaptive serving handle); readers must decode with it because
	// its frames are self-describing in a format a plain zstd engine does
	// not speak. Nil means stripes are plain zstd at Level.
	Engine codec.Engine
}

// StoredBytes is the on-disk size of the dataset.
func (d *Dataset) StoredBytes() int64 {
	var n int64
	for _, s := range d.Stripes {
		n += int64(len(s))
	}
	return n
}

// engine builds a zstd engine at level.
func engine(level int) (codec.Engine, error) {
	return codec.NewEngine("zstd", codec.WithLevel(level))
}

// readEngine returns the engine ds's stripes decode with: the engine the
// dataset was written through when one was recorded, else zstd at the
// recorded level.
func readEngine(ds *Dataset) (codec.Engine, error) {
	if ds.Engine != nil {
		return ds.Engine, nil
	}
	return engine(ds.Level)
}

// generateBatch builds one row batch of warehouse columns.
func generateBatch(seed int64, rows int) []orc.Column {
	return []orc.Column{
		{Name: "event_time", Kind: orc.Int64, Ints: corpus.TimestampColumn(seed, rows)},
		{Name: "actor_id", Kind: orc.Int64, Ints: corpus.IDColumn(seed+1, rows)},
		{Name: "target_id", Kind: orc.Int64, Ints: corpus.IDColumn(seed+2, rows)},
		{Name: "event_type", Kind: orc.String, Strings: corpus.CategoryColumn(seed+3, rows)},
		{Name: "score", Kind: orc.Float64, Floats: corpus.MetricColumn(seed+4, rows)},
		{Name: "sampled", Kind: orc.Bool, Bools: corpus.FlagColumn(seed+5, rows, 0.05)},
	}
}

// errStripe reports a malformed stripe directory.
var errStripe = errors.New("warehouse: corrupt stripe directory")

// ErrColumnEncoding reports a stripe directory naming a column kind or
// encoding this reader does not implement. Typed graph stripes must fail
// loudly on readers that predate their encoding, never silently skip the
// column.
var ErrColumnEncoding = errors.New("warehouse: unsupported column encoding")

// Stripe directory layout version and per-column encoding tags. The
// directory block is:
//
//	version(1) | uvarint ncols, then per column:
//	uvarint nameLen | name | kind(1) | enc(1) | uvarint chunks
const (
	dirVersion byte = 2

	encORC      byte = 0 // ORC stripe encoding (any kind)
	encTypedRaw byte = 1 // fixed-width little-endian words (Int64, Float64)
)

// typedHint maps a column kind to the graph-engine hint its raw
// serialization should be compressed under, or HintNone when the kind has
// no typed-raw form.
func typedHint(k orc.Kind) graph.Hint {
	switch k {
	case orc.Int64:
		return graph.HintInt64
	case orc.Float64:
		return graph.HintFloat64
	}
	return graph.HintNone
}

// hinter unwraps eng (through checksum or other wrappers) down to a
// graph-hinted engine, or nil when the stack has none.
func hinter(eng codec.Engine) graph.Hinter {
	for e := eng; e != nil; {
		if h, ok := e.(graph.Hinter); ok {
			return h
		}
		u, ok := e.(interface{ Unwrap() codec.Engine })
		if !ok {
			break
		}
		e = u.Unwrap()
	}
	return nil
}

// appendTypedRaw serializes an Int64/Float64 column as fixed-width
// little-endian words — the shape the graph engine's typed transform
// chains (delta/zigzag/varint, decimal rescale) operate on.
func appendTypedRaw(dst []byte, c orc.Column) []byte {
	switch c.Kind {
	case orc.Int64:
		for _, v := range c.Ints {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
		}
	case orc.Float64:
		for _, v := range c.Floats {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst
}

// decodeTypedRaw reconstructs a typed-raw column from its serialized words.
func decodeTypedRaw(name string, kind orc.Kind, data []byte) (orc.Column, error) {
	if len(data)%8 != 0 {
		return orc.Column{}, fmt.Errorf("%w: column %q: ragged typed payload", errStripe, name)
	}
	col := orc.Column{Name: name, Kind: kind}
	n := len(data) / 8
	switch kind {
	case orc.Int64:
		col.Ints = make([]int64, n)
		for i := range col.Ints {
			col.Ints[i] = int64(binary.LittleEndian.Uint64(data[i*8:]))
		}
	case orc.Float64:
		col.Floats = make([]float64, n)
		for i := range col.Floats {
			col.Floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
		}
	default:
		return orc.Column{}, fmt.Errorf("%w: column %q: kind %d has no typed-raw form", ErrColumnEncoding, name, kind)
	}
	return col, nil
}

// columnChunks is the ≤ orc.MaxCompressionBlock split count for one
// column's encoding.
func columnChunks(n int) int {
	return (n + orc.MaxCompressionBlock - 1) / orc.MaxCompressionBlock
}

// writeStripe encodes each column separately and writes the stripe as one
// seekable container: block 0 is the directory (column names, kinds,
// encodings and chunk counts), then each column's encoding in
// ≤ orc.MaxCompressionBlock chunks. Column-granular blocks are what let
// readStripeColumns prune. When the engine exposes a graph hint (typed
// transform-graph compression), Int64/Float64 columns are serialized as
// raw little-endian words and each column's chunks are compressed under
// its kind's hint; other kinds, and every column under a plain engine,
// keep the ORC encoding.
func writeStripe(cols []orc.Column, eng codec.Engine, st *Stats) ([]byte, error) {
	tm()
	h := hinter(eng)
	encoded := make([][]byte, len(cols))
	encs := make([]byte, len(cols))
	var raw int64
	t0 := time.Now()
	for i := range cols {
		if h != nil && typedHint(cols[i].Kind) != graph.HintNone {
			encoded[i] = appendTypedRaw(nil, cols[i])
			encs[i] = encTypedRaw
		} else {
			enc, err := orc.EncodeStripe(cols[i : i+1])
			if err != nil {
				return nil, err
			}
			encoded[i] = enc
			encs[i] = encORC
		}
		raw += int64(len(encoded[i]))
	}
	st.EncodeTime += time.Since(t0)

	dir := append([]byte(nil), dirVersion)
	dir = binary.AppendUvarint(dir, uint64(len(cols)))
	for i, c := range cols {
		dir = binary.AppendUvarint(dir, uint64(len(c.Name)))
		dir = append(dir, c.Name...)
		dir = append(dir, byte(c.Kind), encs[i])
		dir = binary.AppendUvarint(dir, uint64(columnChunks(len(encoded[i]))))
	}
	raw += int64(len(dir))

	containerCodec := "zstd"
	if h != nil {
		containerCodec = "graph"
	}
	var out bytes.Buffer
	t1 := time.Now()
	bw, err := container.NewBuilder(&out, containerCodec, eng, orc.MaxCompressionBlock)
	if err != nil {
		return nil, err
	}
	if h != nil {
		h.SetHint(graph.HintNone) // directory block is untyped
	}
	if err := bw.AppendBlock(dir); err != nil {
		return nil, err
	}
	for i, enc := range encoded {
		if h != nil {
			hint := graph.HintNone
			if encs[i] == encTypedRaw {
				hint = typedHint(cols[i].Kind)
			}
			// Chunk boundaries are multiples of the 8-byte word width
			// (orc.MaxCompressionBlock is 8-aligned), so every chunk of a
			// typed column keeps the hinted shape.
			h.SetHint(hint)
		}
		for off := 0; off < len(enc); off += orc.MaxCompressionBlock {
			end := off + orc.MaxCompressionBlock
			if end > len(enc) {
				end = len(enc)
			}
			if err := bw.AppendBlock(enc[off:end]); err != nil {
				return nil, err
			}
		}
	}
	if h != nil {
		h.SetHint(graph.HintNone)
	}
	if err := bw.Close(); err != nil {
		return nil, err
	}
	dt := time.Since(t1)
	st.CompressTime += dt
	tmCompNS.Add(dt.Nanoseconds())
	framed := out.Bytes()
	st.RawBytes += raw
	st.StoredBytes += int64(len(framed))
	tmRawBytes.Add(raw)
	tmStoredByte.Add(int64(len(framed)))
	tmStripeBytes.Observe(raw)
	return framed, nil
}

// readStripe decompresses and decodes every column of one stored stripe.
func readStripe(framed []byte, eng codec.Engine, st *Stats) ([]orc.Column, error) {
	return readStripeColumns(framed, eng, st, nil)
}

// readStripeColumns decodes the stripe's directory and then only the
// columns in want (nil = all), skipping the container blocks of pruned
// columns entirely — their bytes are never decompressed.
func readStripeColumns(framed []byte, eng codec.Engine, st *Stats, want map[string]bool) ([]orc.Column, error) {
	tm()
	ra, err := container.Open(framed, container.WithEngine(eng))
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	dir, err := ra.DecodeBlock(nil, 0)
	if err != nil {
		return nil, err
	}
	st.DecompressTime += time.Since(t0)

	if len(dir) < 1 || dir[0] != dirVersion {
		return nil, errStripe
	}
	ncols, k := binary.Uvarint(dir[1:])
	if k <= 0 || ncols > uint64(len(dir)) {
		return nil, errStripe
	}
	pos := 1 + k
	var cols []orc.Column
	next := 1 // first column chunk follows the directory block
	for ci := uint64(0); ci < ncols; ci++ {
		nameLen, k := binary.Uvarint(dir[pos:])
		if k <= 0 || pos+k+int(nameLen)+2 > len(dir) {
			return nil, errStripe
		}
		pos += k
		name := string(dir[pos : pos+int(nameLen)])
		pos += int(nameLen)
		kind, colEnc := orc.Kind(dir[pos]), dir[pos+1]
		pos += 2
		if kind > orc.Bool || colEnc > encTypedRaw {
			return nil, fmt.Errorf("%w: column %q: kind %d encoding %d", ErrColumnEncoding, name, kind, colEnc)
		}
		chunks, k := binary.Uvarint(dir[pos:])
		if k <= 0 || next+int(chunks) > ra.NumBlocks()+1 {
			return nil, errStripe
		}
		pos += k
		if want != nil && !want[name] {
			next += int(chunks) // pruned: blocks skipped, not decompressed
			continue
		}
		var enc []byte
		t1 := time.Now()
		for c := 0; c < int(chunks); c++ {
			if enc, err = ra.DecodeBlock(enc, next+c); err != nil {
				return nil, err
			}
		}
		dt := time.Since(t1)
		st.DecompressTime += dt
		tmDecompNS.Add(dt.Nanoseconds())
		next += int(chunks)
		t2 := time.Now()
		if colEnc == encTypedRaw {
			col, err := decodeTypedRaw(name, kind, enc)
			st.EncodeTime += time.Since(t2)
			if err != nil {
				return nil, err
			}
			cols = append(cols, col)
			continue
		}
		decoded, err := orc.DecodeStripe(enc)
		st.EncodeTime += time.Since(t2)
		if err != nil {
			return nil, err
		}
		if len(decoded) != 1 {
			return nil, errStripe
		}
		cols = append(cols, decoded[0])
	}
	return cols, nil
}

// IngestionLevel is the paper-reported compression level for DW1.
const IngestionLevel = 7

// ShuffleLevel is the paper-reported compression level for DW2/DW3 writes.
const ShuffleLevel = 1

// Ingest runs DW1: read upstream data (which arrives compressed at a cheap
// level by the producing service), decompress it, ORC-encode and re-compress
// at IngestionLevel for long-term storage.
func Ingest(seed int64, stripes, rowsPerStripe int) (*Dataset, Stats, error) {
	eng, err := engine(IngestionLevel)
	if err != nil {
		return nil, Stats{}, err
	}
	return ingest(seed, stripes, rowsPerStripe, eng, nil)
}

// IngestEngine runs DW1 writing stored stripes through the supplied engine
// instead of the fixed IngestionLevel zstd engine. An *adaptive.Handle
// satisfies codec.Engine, so the serving-path controller can steer the
// warehouse storage format online; the returned Dataset remembers the
// engine and downstream stages (SparkWorker, Shuffle, MLJob) read back
// through it, so stripes written under since-retired generations keep
// decoding.
func IngestEngine(seed int64, stripes, rowsPerStripe int, eng codec.Engine) (*Dataset, Stats, error) {
	if eng == nil {
		return nil, Stats{}, errors.New("warehouse: nil engine")
	}
	return ingest(seed, stripes, rowsPerStripe, eng, eng)
}

// GraphSearchLevel is the graph-engine search effort IngestGraph writes
// with: trial search over the typed candidate beam, matching DW1's
// ratio-over-speed posture without paying full-payload trials.
const GraphSearchLevel = 5

// IngestGraph runs DW1 through the typed transform-graph engine:
// Int64/Float64 columns are stored as raw little-endian words and
// compressed through a per-column transform graph (delta/zigzag/varint
// for timestamps and IDs, decimal rescale for quantized metrics), while
// String/Bool columns keep their ORC encoding under the same engine's
// generic path. Frames are self-describing, and the returned Dataset
// records the engine, so downstream stages (SparkWorker, Shuffle, MLJob)
// read the stripes back unchanged.
func IngestGraph(seed int64, stripes, rowsPerStripe int) (*Dataset, Stats, error) {
	eng, err := codec.NewEngine("graph", codec.WithLevel(GraphSearchLevel))
	if err != nil {
		return nil, Stats{}, err
	}
	return ingest(seed, stripes, rowsPerStripe, eng, eng)
}

// ingest is the shared DW1 body; keep is recorded on the Dataset so readers
// reuse the write engine (nil for the plain zstd path).
func ingest(seed int64, stripes, rowsPerStripe int, eng, keep codec.Engine) (*Dataset, Stats, error) {
	var st Stats
	upstreamEng, err := engine(ShuffleLevel)
	if err != nil {
		return nil, st, err
	}
	ds := &Dataset{Level: IngestionLevel, Engine: keep}
	for i := 0; i < stripes; i++ {
		cols := generateBatch(seed+int64(i)*100, rowsPerStripe)
		// The upstream producer hands over level-1-compressed stripes; the
		// ingestion service pays the decompression before re-encoding.
		upstreamFramed, err := produce(cols, upstreamEng)
		if err != nil {
			return nil, st, err
		}
		cols, err = readStripe(upstreamFramed, upstreamEng, &st)
		if err != nil {
			return nil, st, err
		}
		// Light ingestion-side validation work.
		t0 := time.Now()
		validateBatch(cols)
		st.ComputeTime += time.Since(t0)
		framed, err := writeStripe(cols, eng, &st)
		if err != nil {
			return nil, st, err
		}
		ds.Stripes = append(ds.Stripes, framed)
	}
	return ds, st, nil
}

// produce writes cols as the upstream producer whose stripes ingestion
// decompresses. That work is not the ingestion service's: its Stats are
// dropped, and it runs labelled service=upstream, which StageSplit leaves
// out.
func produce(cols []orc.Column, eng codec.Engine) (framed []byte, err error) {
	pprof.Do(context.Background(), pprof.Labels("service", upstreamService), func(context.Context) {
		framed, err = writeStripe(cols, eng, &Stats{})
	})
	return framed, err
}

// validateBatch is the ingestion service's own per-row work.
func validateBatch(cols []orc.Column) int {
	bad := 0
	for _, c := range cols {
		switch c.Kind {
		case orc.Int64:
			for _, v := range c.Ints {
				if v < 0 {
					bad++
				}
			}
		case orc.String:
			for _, v := range c.Strings {
				if len(v) == 0 {
					bad++
				}
			}
		}
	}
	return bad
}

// SparkWorker runs DW3: read the dataset, aggregate, write derived output
// at ShuffleLevel.
func SparkWorker(ds *Dataset, computePasses int) (*Dataset, Stats, error) {
	var st Stats
	readEng, err := readEngine(ds)
	if err != nil {
		return nil, st, err
	}
	writeEng, err := engine(ShuffleLevel)
	if err != nil {
		return nil, st, err
	}
	out := &Dataset{Level: ShuffleLevel}
	for _, framed := range ds.Stripes {
		cols, err := readStripe(framed, readEng, &st)
		if err != nil {
			return nil, st, err
		}
		t0 := time.Now()
		agg := aggregate(cols, computePasses)
		st.ComputeTime += time.Since(t0)
		framedOut, err := writeStripe(agg, writeEng, &st)
		if err != nil {
			return nil, st, err
		}
		out.Stripes = append(out.Stripes, framedOut)
	}
	return out, st, nil
}

// aggregate is the Spark worker's computation: a per-row enrichment (a
// derived session key, a running per-event-type score aggregate joined back
// onto each row, and a quality flag), repeated computePasses times to model
// heavier jobs. The output row count matches the input, as it does for
// typical ETL stages.
func aggregate(cols []orc.Column, passes int) []orc.Column {
	var events []string
	var scores []float64
	var times []int64
	var actors []int64
	for _, c := range cols {
		switch c.Name {
		case "event_type":
			events = c.Strings
		case "score":
			scores = c.Floats
		case "event_time":
			times = c.Ints
		case "actor_id":
			actors = c.Ints
		}
	}
	n := len(events)
	session := make([]int64, n)
	runAvg := make([]float64, n)
	good := make([]bool, n)
	sums := map[string]float64{}
	counts := map[string]int64{}
	for p := 0; p < passes; p++ {
		for k := range sums {
			delete(sums, k)
		}
		for k := range counts {
			delete(counts, k)
		}
		for i := 0; i < n; i++ {
			sums[events[i]] += scores[i]
			counts[events[i]]++
			// Sessionize: actor joined with a coarse time bucket.
			if actors != nil && times != nil {
				session[i] = actors[i]*1e6 + times[i]/60000
			}
			runAvg[i] = sums[events[i]] / float64(counts[events[i]])
			good[i] = scores[i] > runAvg[i]
		}
	}
	return []orc.Column{
		{Name: "event_type", Kind: orc.String, Strings: events},
		{Name: "session", Kind: orc.Int64, Ints: session},
		{Name: "score", Kind: orc.Float64, Floats: scores},
		{Name: "event_type_avg", Kind: orc.Float64, Floats: runAvg},
		{Name: "above_avg", Kind: orc.Bool, Bools: good},
	}
}

// Shuffle runs DW2: read the dataset and re-partition rows across workers,
// writing each partition at ShuffleLevel.
func Shuffle(ds *Dataset, workers int) ([]*Dataset, Stats, error) {
	if workers <= 0 {
		return nil, Stats{}, errors.New("warehouse: workers must be positive")
	}
	var st Stats
	readEng, err := readEngine(ds)
	if err != nil {
		return nil, st, err
	}
	writeEng, err := engine(ShuffleLevel)
	if err != nil {
		return nil, st, err
	}
	outs := make([]*Dataset, workers)
	for i := range outs {
		outs[i] = &Dataset{Level: ShuffleLevel}
	}
	for _, framed := range ds.Stripes {
		cols, err := readStripe(framed, readEng, &st)
		if err != nil {
			return nil, st, err
		}
		t0 := time.Now()
		parts := partition(cols, workers)
		st.ComputeTime += time.Since(t0)
		for w, p := range parts {
			if p[0].Len() == 0 {
				continue
			}
			framedOut, err := writeStripe(p, writeEng, &st)
			if err != nil {
				return nil, st, err
			}
			outs[w].Stripes = append(outs[w].Stripes, framedOut)
		}
	}
	return outs, st, nil
}

// partition splits rows by hashing the actor column.
func partition(cols []orc.Column, workers int) [][]orc.Column {
	rows := cols[0].Len()
	var actors []int64
	for _, c := range cols {
		if c.Name == "actor_id" {
			actors = c.Ints
		}
	}
	assign := make([]int, rows)
	h := fnv.New32a()
	var b [8]byte
	for i := 0; i < rows; i++ {
		h.Reset()
		v := uint64(0)
		if actors != nil {
			v = uint64(actors[i])
		} else {
			v = uint64(i)
		}
		for k := 0; k < 8; k++ {
			b[k] = byte(v >> (8 * k))
		}
		h.Write(b[:])
		assign[i] = int(h.Sum32()) % workers
		if assign[i] < 0 {
			assign[i] += workers
		}
	}
	out := make([][]orc.Column, workers)
	for w := 0; w < workers; w++ {
		part := make([]orc.Column, len(cols))
		for ci, c := range cols {
			nc := orc.Column{Name: c.Name, Kind: c.Kind}
			for i := 0; i < rows; i++ {
				if assign[i] != w {
					continue
				}
				switch c.Kind {
				case orc.Int64:
					nc.Ints = append(nc.Ints, c.Ints[i])
				case orc.Float64:
					nc.Floats = append(nc.Floats, c.Floats[i])
				case orc.String:
					nc.Strings = append(nc.Strings, c.Strings[i])
				case orc.Bool:
					nc.Bools = append(nc.Bools, c.Bools[i])
				}
			}
			part[ci] = nc
		}
		out[w] = part
	}
	return out
}

// mlWantCols are the only columns trainStep consumes; the ML scan prunes
// the rest at the stripe directory, never decompressing their blocks.
var mlWantCols = map[string]bool{"score": true, "actor_id": true}

// MLJob runs DW4: scan the dataset epochs times (read-heavy), doing
// feature-extraction compute per scan and writing one small level-1
// checkpoint per epoch. Scans read only the columns the training step
// uses (column pruning via the stripe directory).
func MLJob(ds *Dataset, epochs int) (Stats, error) {
	var st Stats
	readEng, err := readEngine(ds)
	if err != nil {
		return st, err
	}
	writeEng, err := engine(ShuffleLevel)
	if err != nil {
		return st, err
	}
	// A realistically sized embedding-table shard: checkpoints are a
	// visible (but minority) share of the job's compression work.
	weights := make([]float64, 1<<17)
	for e := 0; e < epochs; e++ {
		for _, framed := range ds.Stripes {
			cols, err := readStripeColumns(framed, readEng, &st, mlWantCols)
			if err != nil {
				return st, err
			}
			t0 := time.Now()
			trainStep(cols, weights)
			st.ComputeTime += time.Since(t0)
		}
		// Checkpoint: weights serialized and compressed at level 1.
		ck := []orc.Column{{Name: "weights", Kind: orc.Float64, Floats: weights}}
		if _, err := writeStripe(ck, writeEng, &st); err != nil {
			return st, err
		}
	}
	return st, nil
}

// trainStep is the ML job's compute: a toy SGD-ish update over the scores.
func trainStep(cols []orc.Column, weights []float64) {
	var scores []float64
	var ids []int64
	for _, c := range cols {
		if c.Name == "score" {
			scores = c.Floats
		}
		if c.Name == "actor_id" {
			ids = c.Ints
		}
	}
	for i := range scores {
		slot := 0
		if ids != nil {
			slot = int(uint64(ids[i]) % uint64(len(weights)))
		}
		pred := weights[slot]
		grad := pred - scores[i]*0.01
		weights[slot] -= 0.001 * grad
	}
}
