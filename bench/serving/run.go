package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/datacomp/datacomp/internal/cluster"
	"github.com/datacomp/datacomp/internal/stats"
	"github.com/datacomp/datacomp/internal/telemetry"
)

const (
	nodes       = 3 // RF is the cluster default, 3: every node owns every key
	replication = 3
	p99Segments = 8
	windowLen   = 250 * time.Millisecond
	spaceEvery  = 64
)

type runConfig struct {
	w      workload
	seed   int64
	ops    int  // length of the measured phase
	smoke  bool // -ops run: one set-up, short isolated rows
	trace  bool
	outDir string // span file and temp dirs
	stderr io.Writer

	// tamper, when set, rewrites every Get result before it is checked —
	// the test hook that proves a wrong value is counted as a failure.
	tamper func([]byte) []byte
}

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Samples   map[string]int64   `json:"samples"` // sample count behind each percentile
	Metrics   map[string]float64 `json:"metrics"`
	Errors    map[string]int64   `json:"errors,omitempty"` // failures by class
}

func (r *result) correct() bool { return r.Failed == 0 }

// failures counts failed ops by class and keeps the first few messages.
type failures struct {
	mu    sync.Mutex
	count map[string]int64
	first map[string][]string
}

func (f *failures) add(class string, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.count == nil {
		f.count = map[string]int64{}
		f.first = map[string][]string{}
	}
	f.count[class]++
	if len(f.first[class]) < 5 {
		f.first[class] = append(f.first[class], err.Error())
	}
}

func (f *failures) total() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var n int64
	for _, c := range f.count {
		n += c
	}
	return n
}

func (f *failures) report(w io.Writer, workload string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	classes := make([]string, 0, len(f.count))
	for c := range f.count {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(w, "%s: %d failed ops of class %s; first:\n", workload, f.count[c], c)
		for _, msg := range f.first[c] {
			fmt.Fprintf(w, "  %s\n", msg)
		}
	}
}

// client is one load goroutine's private state.
type client struct {
	id      uint64
	j       uint64 // next index into this client's op stream (closed loop)
	seq     uint64 // puts issued, for stamps
	key     []byte
	val     []byte
	scratch []byte

	done     atomic.Int64 // ops completed, read by the window sampler
	putBytes int64        // user bytes put, all phases
	space    []int64      // stored bytes on all nodes, sampled every spaceEvery recorded ops
	lat      [2][]int64   // [get, put] latencies of recorded ops, ns
	late     []int64      // open loop: start minus due, ns
	spans    []opSpan
}

type runner struct {
	cfg     runConfig
	ctx     context.Context
	c       *cluster.Cluster
	gen     *opGen
	pool    *valuePool
	model   *model
	rec     *recorder // nil when untraced
	fail    failures
	clients []*client
	record  bool // current phase is the measured one
	// attempted counts every op issued in any phase, set-up and read-back
	// included; failures are counted against it.
	attempted atomic.Int64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// counterNames are the public counters in telemetry.Default the benchmark
// takes deltas of.
var counterNames = []string{
	"rpc_calls_total", "rpc_raw_bytes_total", "rpc_wire_bytes_total",
	"rpc_compress_ns_total", "rpc_decompress_ns_total",
	"cluster_read_repairs_total", "cluster_replica_errors_total", "cluster_quorum_failures_total",
	"kvstore_puts_total", "kvstore_gets_total", "kvstore_flushes_total", "kvstore_compactions_total",
	"kvstore_compress_ns_total", "kvstore_decompress_ns_total",
	"kvstore_blocks_decompressed_total", "kvstore_block_cache_hits_total",
	"kvstore_raw_bytes_written_total", "kvstore_stored_bytes_written_total",
	"kvstore_bytes_decompressed_total", "kvstore_wal_bytes_total",
	"kvstore_snapshots_total", "kvstore_snapshot_bytes_total",
}

type counters map[string]int64

func readCounters() counters {
	c := make(counters, len(counterNames))
	for _, n := range counterNames {
		c[n] = telemetry.Default.Counter(n, "").Value()
	}
	return c
}

func (c counters) since(start counters) counters {
	d := make(counters, len(c))
	for n, v := range c {
		d[n] = v - start[n]
	}
	return d
}

// tick is the cheap part of the process state: clock, CPU, ops completed.
type tick struct {
	at   time.Time
	cpu  time.Duration
	done int64
}

func (r *runner) tick() tick {
	t := tick{at: time.Now(), cpu: cpuTime()}
	for _, cl := range r.clients {
		t.done += cl.done.Load()
	}
	return t
}

// mark is the process state at a phase boundary.
type mark struct {
	tick
	ctr counters
	mem runtime.MemStats
}

func (r *runner) mark() mark {
	m := mark{tick: r.tick(), ctr: readCounters()}
	runtime.ReadMemStats(&m.mem)
	return m
}

func (r *runner) startCluster() error {
	var opts []cluster.Option
	if r.rec != nil {
		opts = append(opts, cluster.WithDialWrapper(r.rec.wrapDial))
	}
	r.c = cluster.New(opts...)
	for i := 0; i < nodes; i++ {
		if _, err := r.c.AddNode(r.ctx, fmt.Sprintf("node-%d", i)); err != nil {
			return fmt.Errorf("start node-%d: %w", i, err)
		}
	}
	return nil
}

// setup starts a cluster and brings it to the workload's starting state.
func (r *runner) setup() error {
	r.model = newModel(r.cfg.w.keys, r.pool)
	if err := r.startCluster(); err != nil {
		return err
	}
	if !r.cfg.w.preload {
		return nil
	}
	var wg sync.WaitGroup
	for _, cl := range r.clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			for k := int(cl.id); k < r.cfg.w.keys; k += clients {
				r.put(cl, k, stamp(preloadStream, uint64(k)))
			}
		}(cl)
	}
	wg.Wait()
	if r.cfg.w.flush {
		for _, name := range r.c.Nodes() {
			if err := r.c.Node(name).Store().Flush(r.ctx); err != nil {
				return fmt.Errorf("flush %s: %w", name, err)
			}
		}
	}
	return nil
}

func (r *runner) put(cl *client, key int, st uint64) (t0, t1 time.Time) {
	r.attempted.Add(1)
	cl.key = keyBytes(cl.key[:0], key)
	cl.val = r.pool.appendValue(cl.val[:0], st)
	r.model.beginPut(key, st)
	t0 = time.Now()
	err := r.c.Put(r.ctx, cl.key, cl.val)
	t1 = time.Now()
	r.model.endPut(key, err)
	if err != nil {
		r.fail.add("put_error", err)
	} else {
		cl.putBytes += int64(len(cl.val))
	}
	return t0, t1
}

func (r *runner) get(cl *client, key int, class string) (t0, t1 time.Time) {
	r.attempted.Add(1)
	cl.key = keyBytes(cl.key[:0], key)
	from := r.model.floorAt(key)
	t0 = time.Now()
	got, found, err := r.c.Get(r.ctx, cl.key)
	t1 = time.Now()
	if err != nil {
		r.fail.add(class+"_error", err)
		return t0, t1
	}
	if r.cfg.tamper != nil {
		got = r.cfg.tamper(got)
	}
	if err := r.model.check(key, from, got, found, &cl.scratch); err != nil {
		r.fail.add(class+"_wrong_value", err)
	}
	return t0, t1
}

// op issues one op and, in the measured phase, records its latency from
// `due` (the zero time means "from when it was issued": the closed loop).
func (r *runner) op(cl *client, isGet bool, key int, due time.Time) time.Time {
	traced := r.rec != nil && r.rec.on.Load()
	var t0, t1 time.Time
	if isGet {
		t0, t1 = r.get(cl, key, "get")
	} else {
		cl.seq++
		t0, t1 = r.put(cl, key, stamp(cl.id, cl.seq))
	}
	cl.done.Add(1)
	if !r.record {
		return t1
	}
	k := 1
	if isGet {
		k = 0
	}
	if due.IsZero() {
		due = t0
	} else {
		cl.late = append(cl.late, int64(t0.Sub(due)))
	}
	cl.lat[k] = append(cl.lat[k], int64(t1.Sub(due)))
	if (len(cl.lat[0])+len(cl.lat[1]))%spaceEvery == 1 {
		cl.space = append(cl.space, r.storedBytes())
	}
	if traced {
		cl.spans = append(cl.spans, opSpan{
			start: int64(t0.Sub(r.rec.t0)), end: int64(t1.Sub(r.rec.t0)), put: !isGet,
		})
	}
	return t1
}

// storedBytes is what the nodes hold: SSTs and WAL.
func (r *runner) storedBytes() int64 {
	var n int64
	for _, name := range r.c.Nodes() {
		db := r.c.Node(name).Store()
		n += db.DiskBytes() + db.WALSize()
	}
	return n
}

// closedLoop runs every client back to back for opsEach ops of its stream.
func (r *runner) closedLoop(opsEach int) {
	var wg sync.WaitGroup
	for _, cl := range r.clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			for n := 0; n < opsEach; n++ {
				isGet, key := r.gen.at(cl.id, cl.j)
				cl.j++
				r.op(cl, isGet, key, time.Time{})
			}
		}(cl)
	}
	wg.Wait()
}

// runOpenLoop issues ops first..first+n-1 at `rate` per second from
// `workers` goroutines: op i is due at start + (i-first)/rate whatever the
// earlier ops did, and do receives that due time so latency counts the wait
// a stall imposes on later ops. It returns the largest backlog seen: how
// many ops were due and not yet started when a worker picked one up.
func runOpenLoop(rate float64, first, n uint64, workers int, do func(worker int, i uint64, due time.Time)) (backlogMax int64) {
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	var next atomic.Uint64
	var backlog atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				} else {
					behind := int64(-wait / interval)
					for cur := backlog.Load(); behind > cur && !backlog.CompareAndSwap(cur, behind); cur = backlog.Load() {
					}
				}
				do(w, first+i, due)
			}
		}(w)
	}
	wg.Wait()
	return backlog.Load()
}

func (r *runner) openLoop(first, n uint64) (backlogMax int64) {
	return runOpenLoop(r.cfg.w.opsPerSec, first, n, clients, func(w int, i uint64, due time.Time) {
		isGet, key := r.gen.at(0, i)
		r.op(r.clients[w], isGet, key, due)
	})
}

// sample records the process state every windowLen until stop closes: the
// boundaries of the measured phase's windows. In a traced run it also
// switches span recording on for even windows and off for odd ones.
func (r *runner) sample(stop <-chan struct{}) []tick {
	ticks := []tick{r.tick()}
	ticker := time.NewTicker(windowLen)
	defer ticker.Stop()
	for {
		if r.rec != nil {
			r.rec.on.Store(len(ticks)%2 == 1)
		}
		select {
		case <-ticker.C:
			ticks = append(ticks, r.tick())
		case <-stop:
			if r.rec != nil {
				r.rec.on.Store(false)
			}
			return append(ticks, r.tick())
		}
	}
}

// percentile returns the q-quantile of sorted (nearest rank).
func percentile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// latencyStats returns p50 over all samples and p99 as the median of the
// per-segment p99 over p99Segments equal op-count segments of each
// client's sequence, so one compaction spike cannot own the tail. Both in
// microseconds.
func latencyStats(perClient [][]int64) (p50, p99 float64, n int64) {
	var all []int64
	segs := make([][]int64, p99Segments)
	for _, lat := range perClient {
		all = append(all, lat...)
		for s := 0; s < p99Segments; s++ {
			segs[s] = append(segs[s], lat[len(lat)*s/p99Segments:len(lat)*(s+1)/p99Segments]...)
		}
	}
	if len(all) == 0 {
		return 0, 0, 0
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	var p99s []float64
	for _, seg := range segs {
		if len(seg) == 0 {
			continue
		}
		sort.Slice(seg, func(i, j int) bool { return seg[i] < seg[j] })
		p99s = append(p99s, percentile(seg, 0.99))
	}
	return percentile(all, 0.5) / 1e3, stats.Percentile(p99s, 50) / 1e3, int64(len(all))
}

// setupAll sets the cluster up: three times when one set-up takes under a
// second, so setup_s is a median; once when it is long enough to be steady
// as it is, and in traced and smoke runs, which do not report it. The last
// cluster is the one measured; start is the process state before its set-up.
func (r *runner) setupAll() (setupS []float64, start mark, err error) {
	for i := 0; i < 3; i++ {
		if i == 1 && (r.cfg.trace || r.cfg.smoke || setupS[0] > 1) {
			break
		}
		if r.c != nil {
			if err := r.c.Close(); err != nil {
				return nil, start, fmt.Errorf("close cluster: %w", err)
			}
			runtime.GC()
		}
		r.clients = nil
		for id := uint64(0); id < clients; id++ {
			r.clients = append(r.clients, &client{id: id})
		}
		start = r.mark()
		if err := r.setup(); err != nil {
			return nil, start, err
		}
		setupS = append(setupS, time.Since(start.at).Seconds())
	}
	return setupS, start, nil
}

// load runs the warm-up (a tenth of the measured phase's ops, unrecorded)
// and then the measured phase, alternating traced and untraced windows when
// the run is traced.
func (r *runner) load() (begin, end mark, ticks []tick, backlogMax int64) {
	opsEach := (r.cfg.ops + clients - 1) / clients
	openN := uint64(r.cfg.ops)
	if r.cfg.w.open {
		r.openLoop(0, openN/10)
	} else {
		r.closedLoop(opsEach / 10)
	}

	runtime.GC()
	stop, sampled := make(chan struct{}), make(chan struct{})
	begin = r.mark()
	r.record = true
	go func() { ticks = r.sample(stop); close(sampled) }()
	if r.cfg.w.open {
		backlogMax = r.openLoop(openN/10, openN)
	} else {
		r.closedLoop(opsEach)
	}
	end = r.mark()
	r.record = false
	close(stop)
	<-sampled
	return begin, end, ticks, backlogMax
}

// readBack gets every key that holds an acknowledged write.
func (r *runner) readBack() {
	var wg sync.WaitGroup
	for _, cl := range r.clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			for k := int(cl.id); k < r.cfg.w.keys; k += clients {
				if r.model.floorAt(k) >= 0 {
					r.get(cl, k, "readback")
				}
			}
		}(cl)
	}
	wg.Wait()
}

// runWorkload runs one workload once and returns its metrics: the
// end-to-end set untraced, the per-layer set traced.
func runWorkload(ctx context.Context, cfg runConfig) (*result, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	w := cfg.w
	r := &runner{cfg: cfg, ctx: ctx, gen: newOpGen(w, cfg.seed), pool: newValuePool(w.corpus, cfg.seed, w.valueSize)}
	if cfg.trace {
		r.rec = newRecorder()
	}
	setupS, runStart, err := r.setupAll()
	if r.c != nil {
		defer r.c.Close()
	}
	if err != nil {
		return nil, err
	}
	begin, end, ticks, backlogMax := r.load()
	r.readBack()

	res := &result{
		Workload: w.name, Seed: cfg.seed, Trace: cfg.trace,
		Attempted: r.attempted.Load(), Failed: r.fail.total(),
		Samples: map[string]int64{}, Metrics: map[string]float64{}, Errors: r.fail.count,
	}
	r.fail.report(cfg.stderr, w.name)

	var lat [2][][]int64
	var late [][]int64
	var putBytes, spaceSum, spaceN int64
	for _, cl := range r.clients {
		lat[0] = append(lat[0], cl.lat[0])
		lat[1] = append(lat[1], cl.lat[1])
		late = append(late, cl.late)
		putBytes += cl.putBytes
		for _, b := range cl.space {
			spaceSum += b
		}
		spaceN += int64(len(cl.space))
	}
	ops := float64(end.done - begin.done)
	elapsed := end.at.Sub(begin.at)
	getP50, getP99, nGet := latencyStats(lat[0])
	putP50, putP99, nPut := latencyStats(lat[1])
	d := end.ctr.since(begin.ctr)
	m := res.Metrics

	whole := end.ctr.since(runStart.ctr) // the measured cluster's whole life, set-up included
	m["wire_bytes_per_op"] = float64(d["rpc_wire_bytes_total"]) / ops
	m["written_bytes_per_user_byte"] = float64(whole["kvstore_wal_bytes_total"]+
		whole["kvstore_stored_bytes_written_total"]+whole["kvstore_snapshot_bytes_total"]) / float64(putBytes)
	m["space_bytes_per_user_byte"] = float64(spaceSum) / float64(spaceN) / float64(r.model.liveKeys()*w.valueSize*replication)
	res.Samples["space_bytes_per_user_byte"] = spaceN
	m["coded_bytes_per_user_byte"] = codedBytes(d, w) / (ops * float64(w.valueSize))
	m["alloc_bytes_per_op"] = float64(end.mem.TotalAlloc-begin.mem.TotalAlloc) / ops
	m["setup_s"] = stats.Percentile(setupS, 50)

	// Speed: reported by both kinds of run, gated by neither (bench/README.md, Noise).
	m["ops_per_s"] = ops / elapsed.Seconds()
	m["cpu_us_per_op"] = float64((end.cpu - begin.cpu).Microseconds()) / ops
	// Per-type medians weighted by op share: a plain median over a 50/50 mix
	// would sit in the gap between the get and put modes.
	m["op_p50_us"] = (getP50*float64(nGet) + putP50*float64(nPut)) / float64(nGet+nPut)
	res.Samples["op_p50_us"] = nGet + nPut
	if !cfg.trace {
		return res, nil
	}

	m["failed_frac"] = float64(res.Failed) / float64(res.Attempted)
	var spans [][]opSpan
	for _, cl := range r.clients {
		spans = append(spans, cl.spans)
	}
	tt := r.rec.resolve(spans)
	spanFile := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, cfg.seed))
	if err := r.rec.writeSpans(spanFile, spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	_, lateP99, _ := latencyStats(late)
	var achieved float64 // open loop only
	if w.open {
		achieved = ops / (w.opsPerSec * elapsed.Seconds())
	}
	err = layerMetrics(r, m, layerInputs{
		d: d, ops: ops, nGet: float64(nGet), nPut: float64(nPut),
		cpu:     end.cpu - begin.cpu,
		mallocs: float64(end.mem.Mallocs - begin.mem.Mallocs),
		gcPause: time.Duration(end.mem.PauseTotalNs - begin.mem.PauseTotalNs),
		tt:      tt, ticks: ticks,
		getP50: getP50, getP99: getP99, putP50: putP50, putP99: putP99,
		lateP99: lateP99, backlogMax: backlogMax,
		achieved: achieved,
	})
	if err != nil {
		return nil, err
	}
	res.Samples["get_p50_us"], res.Samples["put_p50_us"] = nGet, nPut
	res.Samples["get_p99_us"], res.Samples["put_p99_us"] = nGet/p99Segments, nPut/p99Segments
	return res, nil
}

// codedBytes is how many bytes passed through a codec or its bypass during
// the measured phase: rpc payloads (counted where written and where read),
// WAL batch payloads (no public counter: kvstore puts × the batch size of
// one record), SST blocks written by flush and compaction, and SST blocks
// decoded by reads and compaction.
func codedBytes(d counters, w workload) float64 {
	walBatch := int64(w.recordLen() + 8)
	return float64(d["rpc_raw_bytes_total"] + d["kvstore_puts_total"]*walBatch +
		d["kvstore_raw_bytes_written_total"] + d["kvstore_bytes_decompressed_total"])
}
