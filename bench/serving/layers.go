package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"time"

	"github.com/datacomp/datacomp/internal/cluster"
	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/container"
	"github.com/datacomp/datacomp/internal/kvstore"
	"github.com/datacomp/datacomp/internal/rpc"
	"github.com/datacomp/datacomp/internal/xxhash"
)

// layerInputs is what the traced run measured, handed to layerMetrics.
type layerInputs struct {
	d          counters // public counter deltas over the measured phase
	ops        float64
	nGet, nPut float64
	cpu        time.Duration
	mallocs    float64
	gcPause    time.Duration
	tt         traceTotals
	ticks      []tick // window boundaries; odd windows (the first, third, ...) were traced

	getP50, getP99, putP50, putP99 float64
	lateP99                        float64
	backlogMax                     int64
	achieved                       float64
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timeLoop returns the mean ns of fn over n calls after n/10 warm-up calls.
func timeLoop(n int, fn func(i int)) float64 {
	for i := 0; i < n/10; i++ {
		fn(i)
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// replicaHeaderLen is the cluster's per-record header on a node.
const replicaHeaderLen = 8 + 1 + 8

// recordLen is the size of one key plus its record on a node.
func (w workload) recordLen() int { return len("user:00000000") + replicaHeaderLen + w.valueSize }

// replicaRecord frames a value the way the cluster stores it on a node:
// 8B version | 1B flags | 8B XXH64(payload) | payload.
func replicaRecord(dst []byte, version uint64, value []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, version)
	dst = append(dst, 0)
	dst = binary.LittleEndian.AppendUint64(dst, xxhash.Sum64(value))
	return append(dst, value...)
}

// layerMetrics fills m with every per-layer metric: counter deltas and
// span totals from the traced run, then the isolated-layer rows, which
// replay the workload's own payloads through each layer's public API with
// the node's configuration.
func layerMetrics(r *runner, m map[string]float64, in layerInputs) (err error) {
	defer func() {
		if p := recover(); p != nil {
			re, ok := p.(rowError)
			if !ok {
				panic(p)
			}
			err = fmt.Errorf("isolated layer rows: %w", re.error)
		}
	}()
	w := r.cfg.w
	d := func(name string) float64 { return float64(in.d[name]) }
	kop := in.ops / 1e3
	kvGets, kvPuts := d("kvstore_gets_total"), d("kvstore_puts_total")
	recordLen := float64(w.recordLen())

	m["get_p50_us"], m["get_p99_us"] = in.getP50, in.getP99
	m["put_p50_us"], m["put_p99_us"] = in.putP50, in.putP99

	tt := in.tt
	m["cluster.get_ns"] = ratio(float64(tt.opNS[0]), float64(tt.ops[0]))
	m["cluster.put_ns"] = ratio(float64(tt.opNS[1]), float64(tt.ops[1]))
	m["cluster.self_ns_per_op"] = ratio(float64(tt.opNS[0]+tt.opNS[1]-tt.rtNS), float64(tt.ops[0]+tt.ops[1]))
	m["cluster.read_repairs_per_kop"] = ratio(d("cluster_read_repairs_total"), kop)
	m["cluster.replica_errors_per_kop"] = ratio(d("cluster_replica_errors_total"), kop)
	m["cluster.quorum_failures"] = d("cluster_quorum_failures_total")

	m["rpc.exchange_ns"] = ratio(float64(tt.rtNS), float64(tt.roundtrip))
	m["rpc.calls_per_op"] = ratio(d("rpc_calls_total"), in.ops)
	m["rpc.compress_ns_per_op"] = ratio(d("rpc_compress_ns_total"), in.ops)
	m["rpc.decompress_ns_per_op"] = ratio(d("rpc_decompress_ns_total"), in.ops)
	m["rpc.raw_bytes_per_op"] = ratio(d("rpc_raw_bytes_total"), in.ops)
	m["rpc.wire_bytes_per_op"] = ratio(d("rpc_wire_bytes_total"), in.ops)
	m["rpc.saved_frac"] = 1 - ratio(d("rpc_wire_bytes_total"), d("rpc_raw_bytes_total"))

	blockLookups := d("kvstore_blocks_decompressed_total") + d("kvstore_block_cache_hits_total")
	m["container.blocks_decoded_per_get"] = ratio(d("kvstore_blocks_decompressed_total"), in.nGet)
	m["kvstore.wal_bytes_per_user_byte"] = ratio(d("kvstore_wal_bytes_total"), in.nPut*float64(w.valueSize))
	m["kvstore.write_amp"] = ratio(d("kvstore_raw_bytes_written_total"), kvPuts*recordLen)
	m["kvstore.flushes"] = d("kvstore_flushes_total")
	m["kvstore.compactions"] = d("kvstore_compactions_total")
	m["kvstore.snapshots"] = d("kvstore_snapshots_total")
	m["kvstore.compress_ns_per_put"] = ratio(d("kvstore_compress_ns_total"), kvPuts)
	m["kvstore.decompress_ns_per_get"] = ratio(d("kvstore_decompress_ns_total"), kvGets)
	m["kvstore.blocks_read_per_get"] = ratio(blockLookups, kvGets)
	m["kvstore.bytes_decompressed_per_get"] = ratio(d("kvstore_bytes_decompressed_total"), kvGets)
	m["kvstore.block_cache_hit_frac"] = ratio(d("kvstore_block_cache_hits_total"), blockLookups)

	codecNS := d("rpc_compress_ns_total") + d("rpc_decompress_ns_total") +
		d("kvstore_compress_ns_total") + d("kvstore_decompress_ns_total")
	m["codec.busy_frac"] = ratio(codecNS, float64(in.cpu))

	m["process.allocs_per_op"] = ratio(in.mallocs, in.ops)
	m["process.gc_pause_ms"] = float64(in.gcPause) / 1e6
	m["process.peak_rss_mb"] = peakRSSMB()

	m["loadgen.late_p99_us"] = in.lateP99
	m["loadgen.backlog_max"] = float64(in.backlogMax)
	m["loadgen.achieved_rate_frac"] = in.achieved
	m["loadgen.op_sequence_xxh64"] = float64(r.gen.sequenceHash() & (1<<48 - 1))

	// Tracing overhead: traced against untraced windows of this run. The
	// closed loop shows it as lost throughput; the open loop's rate is
	// fixed, so there it is extra CPU per op.
	var wall, cpu, ops [2]float64 // [untraced, traced]
	for i := 1; i < len(in.ticks); i++ {
		k := i % 2
		wall[k] += in.ticks[i].at.Sub(in.ticks[i-1].at).Seconds()
		cpu[k] += float64(in.ticks[i].cpu - in.ticks[i-1].cpu)
		ops[k] += float64(in.ticks[i].done - in.ticks[i-1].done)
	}
	m["trace.overhead_frac"] = 0
	if ops[0] > 0 && ops[1] > 0 {
		if w.open {
			m["trace.overhead_frac"] = ratio(cpu[1]/ops[1], cpu[0]/ops[0]) - 1
		} else {
			m["trace.overhead_frac"] = 1 - ratio(ops[1]/wall[1], ops[0]/wall[0])
		}
	}

	iso := isolatedRows(r, m)

	// WAL lz4 time has no public counter; estimate it from the isolated row.
	m["codec.wal_est_frac"] = ratio(kvPuts*m["container.append_record_ns"], float64(in.cpu))

	// Ledger: the layer costs along the blocking path of one op, replicas
	// called one after another, against the measured cluster spans.
	xx := m["xxhash.sum64_ns_per_kib"] * float64(w.valueSize) / 1024
	putModel := m["cluster.owners_ns"] + xx + replication*(iso.echoPut+iso.kvGet+iso.kvPut)
	getModel := m["cluster.owners_ns"] + replication*(iso.echoGet+iso.kvGet+xx)
	modelNS := float64(tt.ops[0])*getModel + float64(tt.ops[1])*putModel
	spanNS := float64(tt.opNS[0] + tt.opNS[1])
	m["ledger.explained_frac"] = ratio(modelNS, spanNS)
	m["ledger.unexplained_ns_per_op"] = ratio(spanNS-modelNS, float64(tt.ops[0]+tt.ops[1]))
	return nil
}

type isolated struct {
	echoGet, echoPut float64 // rpc.call_echo_ns by request shape
	kvGet, kvPut     float64
}

// isolatedRows times each layer alone on the workload's payloads.
func isolatedRows(r *runner, m map[string]float64) isolated {
	w := r.cfg.w
	n := 20000
	if r.cfg.smoke {
		n = 500
	}
	const samples = 64
	key := keyBytes(nil, 1)
	var values, records, putReqs [][]byte
	for i := 0; i < samples; i++ {
		v := r.pool.appendValue(nil, stamp(0xfe, uint64(i)))
		rec := replicaRecord(nil, uint64(i+1), v)
		values = append(values, v)
		records = append(records, rec)
		putReqs = append(putReqs, append(binary.AppendUvarint(nil, uint64(len(key))), append(append([]byte{}, key...), rec...)...))
	}
	getResp := append([]byte{0x01}, records[0]...)
	putFrac := 1 - w.getFrac

	ring := cluster.NewRing(0)
	for i := 0; i < nodes; i++ {
		ring.Add(fmt.Sprintf("node-%d", i))
	}
	var kb []byte
	m["cluster.owners_ns"] = timeLoop(n, func(i int) {
		kb = keyBytes(kb[:0], i%w.keys)
		ring.Owners(kb, replication)
	}) - timeLoop(n, func(i int) { kb = keyBytes(kb[:0], i%w.keys) })

	var sink uint64
	m["xxhash.sum64_ns_per_kib"] = timeLoop(n, func(i int) { sink += xxhash.Sum64(values[i%samples]) }) * 1024 / float64(w.valueSize)

	// rpc framing on the payload that dominates the workload's traffic.
	framed, method := getResp, cluster.MethodGet
	if putFrac >= 0.5 {
		framed, method = putReqs[0], cluster.MethodPut
	}
	var frame []byte
	m["rpc.encode_frame_ns"] = timeLoop(n, func(int) { frame = rpc.EncodeFrame(0, method, framed) })
	m["rpc.parse_frame_ns"] = timeLoop(n, func(int) {
		if _, _, _, err := rpc.ParseFrame(frame); err != nil {
			panic(err)
		}
	})

	var iso isolated
	iso.echoGet, iso.echoPut = echoRows(r.ctx, n/4, key, putReqs, getResp)
	m["rpc.call_echo_ns"] = w.getFrac*iso.echoGet + putFrac*iso.echoPut

	// Codecs with the transport's and the SST's configuration.
	lz, err := codec.NewEngine("lz4", codec.WithLevel(1), codec.WithChecksum(true))
	must(err)
	var comp, plain []byte
	m["codec.lz4_compress_ns"] = timeLoop(n, func(i int) { comp, err = lz.Compress(comp[:0], putReqs[i%samples]); must(err) })
	m["codec.lz4_decompress_ns"] = timeLoop(n, func(int) { plain, err = lz.Decompress(plain[:0], comp); must(err) })
	var rawN, compN int
	for _, v := range values {
		comp, err = lz.Compress(comp[:0], v)
		must(err)
		rawN += len(v)
		compN += min(len(comp), len(v)) // rpc sends the raw payload when coding does not shrink it
	}
	m["codec.value_ratio"] = ratio(float64(rawN), float64(compN))

	const blockSize = 16 << 10
	var block []byte
	for i := 0; len(block) < blockSize; i++ {
		block = append(keyBytes(block, i), records[i%samples]...)
	}
	zs, err := codec.NewEngine("zstd", codec.WithLevel(1))
	must(err)
	m["codec.zstd_block_compress_ns"] = timeLoop(n/20, func(int) { comp, err = zs.Compress(comp[:0], block); must(err) })
	m["codec.zstd_block_decompress_ns"] = timeLoop(n/20, func(int) { plain, err = zs.Decompress(plain[:0], comp); must(err) })
	m["codec.block_ratio"] = ratio(float64(len(block)), float64(len(comp)))

	// Container: the WAL's record framing and the SST's block read.
	wal, err := codec.NewEngine("lz4", codec.WithLevel(1))
	must(err)
	var rec, scratch []byte
	m["container.append_record_ns"] = timeLoop(n, func(i int) {
		rec, scratch, err = container.AppendRecord(rec[:0], scratch, wal, putReqs[i%samples])
		must(err)
	})
	m["container.decode_record_ns"] = timeLoop(n, func(int) { plain, _, err = container.DecodeRecord(plain[:0], wal, rec); must(err) })
	var file bytes.Buffer
	bw, err := container.NewBuilder(&file, "zstd", zs, blockSize)
	must(err)
	const blocks = 8
	for i := 0; i < blocks; i++ {
		must(bw.AppendBlock(block))
	}
	must(bw.Close())
	ra, err := container.NewReaderAt(bytes.NewReader(file.Bytes()), int64(file.Len()), container.WithEngine(zs))
	must(err)
	m["container.decode_block_ns"] = timeLoop(n/20, func(i int) { plain, err = ra.DecodeBlock(plain[:0], i%blocks); must(err) })

	iso.kvGet, iso.kvPut = kvstoreRows(r, m, n)
	_ = sink
	return iso
}

// rowError carries a failure out of the isolated rows' timing closures;
// layerMetrics recovers it and returns it as an error.
type rowError struct{ error }

func must(err error) {
	if err != nil {
		panic(rowError{err})
	}
}

// echoRows times rpc.Client.Call over a net.Pipe to handlers that answer
// with the node's response sizes and do no storage work.
func echoRows(ctx context.Context, n int, key []byte, putReqs [][]byte, getResp []byte) (get, put float64) {
	comp := rpc.Compression{Codec: "lz4", Level: 1, Checksum: true} // the cluster's node-link default
	srv := rpc.NewServer(comp)
	srv.Register(cluster.MethodPut, func(context.Context, []byte) ([]byte, error) { return nil, nil })
	srv.Register(cluster.MethodGet, func(context.Context, []byte) ([]byte, error) { return getResp, nil })
	cc, sc := net.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.ServeConn(ctx, sc) // ends when the pipe closes
	}()
	cl, err := rpc.NewClient(cc, comp)
	must(err)
	get = timeLoop(n, func(int) { _, err = cl.Call(ctx, cluster.MethodGet, key); must(err) })
	put = timeLoop(n, func(i int) { _, err = cl.Call(ctx, cluster.MethodPut, putReqs[i%len(putReqs)]); must(err) })
	cl.Close()
	cc.Close()
	sc.Close()
	<-served
	return get, put
}

// kvstoreRows times a standalone store opened with the node's options and
// filled the way the workload's set-up fills a node.
func kvstoreRows(r *runner, m map[string]float64, n int) (get, put float64) {
	w := r.cfg.w
	ctx := r.ctx
	db, err := kvstore.Open(ctx, "", kvstore.WithWAL(kvstore.SyncAlways), kvstore.WithPersister(kvstore.NewMemPersister()))
	must(err)
	defer db.Close()
	var kb, val, rec []byte
	version := uint64(0)
	putKey := func(db *kvstore.DB, k int) {
		version++
		kb = keyBytes(kb[:0], k)
		val = r.pool.appendValue(val[:0], stamp(0xfd, version))
		rec = replicaRecord(rec[:0], version, val)
		must(db.Put(ctx, kb, rec))
	}
	if w.preload {
		for k := 0; k < w.keys; k++ {
			putKey(db, k)
		}
		if w.flush {
			must(db.Flush(ctx))
		}
	}
	keyAt := func(i int) int { _, k := r.gen.at(0xfc, uint64(i)); return k }

	for _, name := range []string{"kvstore.put_ns", "kvstore.put_max_us", "kvstore.put_dir_syncalways_ns", "kvstore.put_dir_synccheckpoint_ns"} {
		m[name] = 0
	}
	if w.getFrac < 1 {
		var worst time.Duration
		put = timeLoop(n/2, func(i int) {
			t0 := time.Now()
			putKey(db, keyAt(i))
			worst = max(worst, time.Since(t0))
		})
		m["kvstore.put_ns"] = put
		m["kvstore.put_max_us"] = float64(worst.Microseconds())

		// The sandbox's fsync, not a device's.
		for _, p := range []struct {
			name   string
			policy kvstore.SyncPolicy
		}{
			{"kvstore.put_dir_syncalways_ns", kvstore.SyncAlways},
			{"kvstore.put_dir_synccheckpoint_ns", kvstore.SyncOnCheckpoint},
		} {
			dir, err := os.MkdirTemp(r.cfg.outDir, "kvstore-")
			must(err)
			ddb, err := kvstore.Open(ctx, dir, kvstore.WithWAL(p.policy))
			must(err)
			m[p.name] = timeLoop(n/100, func(i int) { putKey(ddb, keyAt(i)) })
			must(ddb.Close())
			must(os.RemoveAll(dir))
		}
	}
	get = timeLoop(n/2, func(i int) {
		kb = keyBytes(kb[:0], keyAt(i))
		_, _, err := db.Get(ctx, kb)
		must(err)
	})
	m["kvstore.get_ns"] = get
	return get, put
}
