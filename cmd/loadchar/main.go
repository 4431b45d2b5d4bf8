// Command loadchar drives the cluster the way the paper's serving fleet
// is driven: a zipfian key population, a configurable read/write mix,
// closed- or open-loop arrival, and an optional diurnal wave shaping the
// offered rate. It reports p50/p99/p999 latencies per op class and a JSON
// summary, and with -crash it kills and restarts a node mid-run while
// verifying that no acknowledged write is ever lost — the paper's
// durability bar for compressed storage paths.
//
// Closed loop (-rate 0) measures capacity: each worker issues its next op
// the moment the previous one completes. Open loop (-rate N) measures
// latency under an offered load that does not slow down when the system
// does, so queueing delay shows up in the tail percentiles where it
// belongs.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/datacomp/datacomp/internal/adaptive"
	"github.com/datacomp/datacomp/internal/cluster"
	"github.com/datacomp/datacomp/internal/core"
	"github.com/datacomp/datacomp/internal/rpc"
	"github.com/datacomp/datacomp/internal/stats"
	"github.com/datacomp/datacomp/internal/telemetry"
	"github.com/datacomp/datacomp/internal/telemetry/boot"
)

type config struct {
	nodes         int
	replicas      int
	duration      time.Duration
	workers       int
	rate          float64 // ops/s; 0 = closed loop
	readFrac      float64
	keys          int
	zipfS         float64
	valueBytes    int
	diurnalPeriod time.Duration
	diurnalDepth  float64
	crash         bool
	shed          int
	adaptive      bool
	seed          int64
	jsonOut       bool
}

type latencySummary struct {
	Count  int64 `json:"count"`
	P50us  int64 `json:"p50_us"`
	P99us  int64 `json:"p99_us"`
	P999us int64 `json:"p999_us"`
}

type adaptiveClassSummary struct {
	Class         string  `json:"class"`
	Config        string  `json:"config"`
	Generation    uint64  `json:"generation"`
	Swaps         uint64  `json:"swaps"`
	Feasible      bool    `json:"feasible"`
	Margin        float64 `json:"margin_vs_default"`
	DecodeRetired uint64  `json:"decode_retired"`
}

type adaptiveSummary struct {
	Swaps      uint64                 `json:"swaps"`
	Infeasible int                    `json:"infeasible_classes"`
	Classes    []adaptiveClassSummary `json:"classes"`
}

type summary struct {
	Nodes          int              `json:"nodes"`
	Replicas       int              `json:"replicas"`
	Workers        int              `json:"workers"`
	RateTarget     float64          `json:"rate_target_ops_s"`
	DurationSec    float64          `json:"duration_s"`
	Ops            int64            `json:"ops"`
	Throughput     float64          `json:"throughput_ops_s"`
	Reads          latencySummary   `json:"reads"`
	Writes         latencySummary   `json:"writes"`
	Errors         int64            `json:"errors"`
	QuorumFailures int64            `json:"quorum_failures"`
	Crashed        string           `json:"crashed_node,omitempty"`
	AckedKeys      int              `json:"acked_keys"`
	LostAcked      int              `json:"lost_acked_writes"`
	ReadRepairs    int64            `json:"read_repairs"`
	DigestReads    int64            `json:"get_digest"`
	FullReads      int64            `json:"get_full"`
	EscalatedReads int64            `json:"get_escalated"`
	Rebalanced     int64            `json:"rebalanced_records"`
	Adaptive       *adaptiveSummary `json:"adaptive,omitempty"`
}

// wave is the instantaneous offered-rate multiplier in [1-depth, 1]: a
// cosine trough bottoming out mid-run, the compressed shape of a
// datacenter's overnight valley.
func wave(elapsed time.Duration, cfg config) float64 {
	if cfg.diurnalPeriod <= 0 || cfg.diurnalDepth <= 0 {
		return 1
	}
	phase := 2 * math.Pi * float64(elapsed) / float64(cfg.diurnalPeriod)
	return 1 - cfg.diurnalDepth*(0.5-0.5*math.Cos(phase))
}

// ackedWrites records, per key, the last value whose Put was acknowledged,
// plus the values of later writes that FAILED indeterminately — a Put that
// errors after reaching some replica has no rollback, so its higher
// version may legitimately win a later quorum read. A per-key mutex is
// held across the Put so the model's order matches the cluster's version
// order even with zipfian write collisions.
type ackedWrites struct {
	mu      []sync.Mutex
	vals    [][]byte
	pending [][][]byte // failed writes issued after the current acked value
}

func newAckedWrites(keys int) *ackedWrites {
	return &ackedWrites{
		mu:      make([]sync.Mutex, keys),
		vals:    make([][]byte, keys),
		pending: make([][][]byte, keys),
	}
}

// record notes a write outcome for key idx; the caller holds mu[idx].
// A success supersedes every earlier failed write (their versions are
// lower than the acked quorum's, so they can never win a read again).
func (a *ackedWrites) record(idx int, val []byte, err error) {
	if err == nil {
		a.vals[idx] = val
		a.pending[idx] = nil
		return
	}
	a.pending[idx] = append(a.pending[idx], val)
}

// check reports whether an observed read for key idx is consistent:
// the last acked value, or any indeterminate write issued after it.
func (a *ackedWrites) check(idx int, got []byte, found bool) bool {
	if found && bytes.Equal(got, a.vals[idx]) {
		return true
	}
	for _, p := range a.pending[idx] {
		if found && bytes.Equal(got, p) {
			return true
		}
	}
	return false
}

func run(ctx context.Context, cfg config, errw io.Writer) (*summary, error) {
	opts := []cluster.Option{
		cluster.WithReplication(cfg.replicas),
	}
	// Adaptive mode: every RPC link (client->node and node->node) rides
	// per-method adaptive classes off one shared controller. The static
	// default is deliberately the fleet's conservative zlib-1 so the run
	// demonstrates the controller discovering a better config online.
	var actrl *adaptive.Controller
	nopts := nodeOpts(cfg)
	if cfg.adaptive {
		var err error
		actrl, err = adaptive.New(adaptive.Config{
			Default:    core.Config{Algorithm: "zlib", Level: 1},
			Interval:   250 * time.Millisecond,
			MinSamples: 4,
		})
		if err != nil {
			return nil, err
		}
		defer actrl.Close()
		actrl.Start()
		comp := rpc.Compression{Adaptive: actrl}
		opts = append(opts, cluster.WithCompression(comp))
		nopts = append(nopts, cluster.WithNodeCompression(comp))
	}
	opts = append(opts, cluster.WithNodeDefaults(nopts...))
	c := cluster.New(opts...)
	defer c.Close()
	for i := 0; i < cfg.nodes; i++ {
		if _, err := c.AddNode(ctx, fmt.Sprintf("node-%d", i)); err != nil {
			return nil, fmt.Errorf("start node-%d: %w", i, err)
		}
	}

	readLat := telemetry.Default.Histogram("loadchar_read_latency", "cluster read latency", "us")
	writeLat := telemetry.Default.Histogram("loadchar_write_latency", "cluster write latency", "us")

	acked := newAckedWrites(cfg.keys)
	var ops, errs, quorumErrs atomic.Int64

	runCtx, cancel := context.WithTimeout(ctx, cfg.duration)
	defer cancel()
	start := time.Now()

	// Crash choreography: kill node-1 a third of the way in, bring it
	// back at two thirds. Writes keep flowing the whole time; quorum
	// absorbs the outage.
	var crashedName string
	if cfg.crash && cfg.nodes >= 3 {
		crashedName = "node-1"
		n := c.Node(crashedName)
		go func() {
			select {
			case <-time.After(cfg.duration / 3):
				n.Crash()
				fmt.Fprintf(errw, "loadchar: crashed %s at %v\n", crashedName, time.Since(start).Round(time.Millisecond))
			case <-runCtx.Done():
				return
			}
			select {
			case <-time.After(cfg.duration / 3):
				if err := n.Restart(ctx); err != nil {
					fmt.Fprintf(errw, "loadchar: restart %s: %v\n", crashedName, err)
					return
				}
				fmt.Fprintf(errw, "loadchar: restarted %s at %v\n", crashedName, time.Since(start).Round(time.Millisecond))
			case <-runCtx.Done():
			}
		}()
	}

	// Open loop: a dispatcher paces admissions; workers drain the queue
	// so queueing delay counts against latency. Closed loop: workers
	// self-admit, with the diurnal wave thinning admissions.
	var admit chan time.Time
	if cfg.rate > 0 {
		admit = make(chan time.Time, int(math.Max(cfg.rate, 64)))
		go func() {
			defer close(admit)
			for {
				m := wave(time.Since(start), cfg)
				gap := time.Duration(float64(time.Second) / (cfg.rate * m))
				select {
				case <-runCtx.Done():
					return
				case <-time.After(gap):
				}
				select {
				case admit <- time.Now():
				default: // queue saturated: the backlog already measures overload
				}
			}
		}()
	}

	phrase := []byte("the quick brown datacenter compresses every block it serves ")
	filler := bytes.Repeat(phrase, 1+cfg.valueBytes/len(phrase))

	var wg sync.WaitGroup
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(w)*7919))
			var zipf *stats.Zipf
			if cfg.zipfS > 1 {
				zipf = stats.NewZipf(rng, cfg.zipfS, uint64(cfg.keys))
			}
			var seq uint64
			for {
				var issued time.Time
				if admit != nil {
					var ok bool
					select {
					case <-runCtx.Done():
						return
					case issued, ok = <-admit:
						if !ok {
							return
						}
					}
				} else {
					if runCtx.Err() != nil {
						return
					}
					if m := wave(time.Since(start), cfg); m < 1 && rng.Float64() > m {
						select {
						case <-runCtx.Done():
							return
						case <-time.After(time.Millisecond):
						}
						continue
					}
					issued = time.Now()
				}

				var idx int
				if zipf != nil {
					idx = int(zipf.Sample()-1) % cfg.keys
				} else {
					idx = rng.Intn(cfg.keys)
				}
				key := []byte(fmt.Sprintf("user:%08d", idx))

				if rng.Float64() < cfg.readFrac {
					_, _, err := c.Get(runCtx, key)
					readLat.Observe(time.Since(issued).Microseconds())
					countErr(runCtx, err, &errs, &quorumErrs)
				} else {
					seq++
					val := make([]byte, 0, cfg.valueBytes+24)
					val = fmt.Appendf(val, "w%03d-%016d|", w, seq)
					val = append(val, filler[:cfg.valueBytes]...)
					aw := &acked.mu[idx]
					aw.Lock()
					err := c.Put(runCtx, key, val)
					acked.record(idx, val, err)
					aw.Unlock()
					writeLat.Observe(time.Since(issued).Microseconds())
					countErr(runCtx, err, &errs, &quorumErrs)
				}
				ops.Add(1)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// If the crash schedule is still mid-flight (very short runs), make
	// sure the node is back before verification.
	if crashedName != "" {
		if n := c.Node(crashedName); n != nil && !n.Running() {
			// The crash goroutine may be restarting it concurrently;
			// only a restart that leaves the node down is fatal.
			if err := n.Restart(ctx); err != nil && !n.Running() {
				return nil, fmt.Errorf("restart %s for verification: %w", crashedName, err)
			}
		}
	}

	// Verification: every acknowledged write must read back exactly.
	ackedKeys, lost := 0, 0
	for idx := range acked.vals {
		if acked.vals[idx] == nil {
			continue
		}
		ackedKeys++
		key := []byte(fmt.Sprintf("user:%08d", idx))
		got, ok, err := c.Get(ctx, key)
		if err != nil || !acked.check(idx, got, ok) {
			lost++
			if lost <= 5 {
				fmt.Fprintf(errw, "loadchar: LOST ACKED WRITE %s (ok=%v err=%v)\n", key, ok, err)
			}
		}
	}

	var asum *adaptiveSummary
	if actrl != nil {
		asum = &adaptiveSummary{}
		for _, s := range actrl.Status() {
			cs := adaptiveClassSummary{
				Class:         s.Class,
				Config:        s.Config,
				Generation:    s.Generation,
				Swaps:         s.Swaps,
				Feasible:      s.Feasible,
				DecodeRetired: s.DecodeRetired,
			}
			if s.HasDecision {
				cs.Margin = s.Decision.MarginVsDefault()
			}
			asum.Swaps += s.Swaps
			if !s.Feasible {
				asum.Infeasible++
			}
			asum.Classes = append(asum.Classes, cs)
		}
	}

	rs, ws := readLat.Snapshot(), writeLat.Snapshot()
	st := c.Stats()
	return &summary{
		Nodes:       cfg.nodes,
		Replicas:    cfg.replicas,
		Workers:     cfg.workers,
		RateTarget:  cfg.rate,
		DurationSec: elapsed.Seconds(),
		Ops:         ops.Load(),
		Throughput:  float64(ops.Load()) / elapsed.Seconds(),
		Reads: latencySummary{
			Count: readLat.Count(), P50us: rs.Quantile(0.5), P99us: rs.Quantile(0.99), P999us: rs.Quantile(0.999),
		},
		Writes: latencySummary{
			Count: writeLat.Count(), P50us: ws.Quantile(0.5), P99us: ws.Quantile(0.99), P999us: ws.Quantile(0.999),
		},
		Errors:         errs.Load(),
		QuorumFailures: quorumErrs.Load(),
		Crashed:        crashedName,
		AckedKeys:      ackedKeys,
		LostAcked:      lost,
		ReadRepairs:    st.ReadRepairs,
		DigestReads:    st.DigestReads,
		FullReads:      st.FullReads,
		EscalatedReads: st.EscalatedReads,
		Rebalanced:     st.RebalancedRecords,
		Adaptive:       asum,
	}, nil
}

// countErr classifies an op error: run-end cancellation is not an error,
// quorum failures are tallied separately (they are the expected failure
// mode during a crash window).
func countErr(ctx context.Context, err error, errs, quorumErrs *atomic.Int64) {
	if err == nil || ctx.Err() != nil {
		return
	}
	errs.Add(1)
	if isQuorumErr(err) {
		quorumErrs.Add(1)
	}
}

func isQuorumErr(err error) bool {
	for e := err; e != nil; {
		if e == cluster.ErrNoQuorum {
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}

func nodeOpts(cfg config) []cluster.NodeOption {
	var opts []cluster.NodeOption
	if cfg.shed > 0 {
		opts = append(opts, cluster.WithNodeShedThreshold(cfg.shed))
	}
	return opts
}

func printHuman(w io.Writer, s *summary) {
	fmt.Fprintf(w, "=== loadchar: %d nodes, RF=%d, %d workers, %.1fs ===\n",
		s.Nodes, s.Replicas, s.Workers, s.DurationSec)
	mode := "closed-loop"
	if s.RateTarget > 0 {
		mode = fmt.Sprintf("open-loop @ %.0f ops/s", s.RateTarget)
	}
	fmt.Fprintf(w, "mode: %s   throughput: %.0f ops/s   ops: %d   errors: %d (quorum: %d)\n",
		mode, s.Throughput, s.Ops, s.Errors, s.QuorumFailures)
	fmt.Fprintf(w, "reads : n=%-8d p50=%6dµs  p99=%6dµs  p999=%6dµs\n",
		s.Reads.Count, s.Reads.P50us, s.Reads.P99us, s.Reads.P999us)
	fmt.Fprintf(w, "writes: n=%-8d p50=%6dµs  p99=%6dµs  p999=%6dµs\n",
		s.Writes.Count, s.Writes.P50us, s.Writes.P99us, s.Writes.P999us)
	if s.Crashed != "" {
		fmt.Fprintf(w, "chaos : crashed+restarted %s — %d acked keys verified, %d lost\n",
			s.Crashed, s.AckedKeys, s.LostAcked)
	} else {
		fmt.Fprintf(w, "verify: %d acked keys, %d lost\n", s.AckedKeys, s.LostAcked)
	}
	fmt.Fprintf(w, "repair: %d read-repairs   rebalanced: %d records\n", s.ReadRepairs, s.Rebalanced)
	fmt.Fprintf(w, "reads : %d by digest   %d in full (%d escalated)\n", s.DigestReads, s.FullReads, s.EscalatedReads)
	if s.Adaptive != nil {
		fmt.Fprintf(w, "adapt : %d swaps across %d classes (%d infeasible)\n",
			s.Adaptive.Swaps, len(s.Adaptive.Classes), s.Adaptive.Infeasible)
		for _, cs := range s.Adaptive.Classes {
			fmt.Fprintf(w, "  %-16s gen=%-3d swaps=%-2d %-24s margin_vs_default=%+.1f%%\n",
				cs.Class, cs.Generation, cs.Swaps, cs.Config, cs.Margin*100)
		}
	}
}

func main() {
	var cfg config
	flag.IntVar(&cfg.nodes, "nodes", 3, "cluster size")
	flag.IntVar(&cfg.replicas, "replicas", 3, "replication factor")
	flag.DurationVar(&cfg.duration, "duration", 10*time.Second, "load duration")
	flag.IntVar(&cfg.workers, "workers", 8, "concurrent workers")
	flag.Float64Var(&cfg.rate, "rate", 0, "open-loop target ops/s (0 = closed loop)")
	flag.Float64Var(&cfg.readFrac, "read-frac", 0.9, "fraction of ops that are reads")
	flag.IntVar(&cfg.keys, "keys", 100_000, "key population size")
	flag.Float64Var(&cfg.zipfS, "zipf", 1.1, "zipfian skew s (<=1 for uniform keys)")
	flag.IntVar(&cfg.valueBytes, "value-bytes", 256, "value size")
	flag.DurationVar(&cfg.diurnalPeriod, "diurnal-period", 0, "diurnal wave period (0 = flat)")
	flag.Float64Var(&cfg.diurnalDepth, "diurnal-depth", 0.5, "diurnal trough depth in [0,1]")
	flag.BoolVar(&cfg.crash, "crash", false, "crash and restart a node mid-run, then verify zero lost acked writes")
	flag.IntVar(&cfg.shed, "shed", 0, "per-node shed threshold (0 = off)")
	flag.BoolVar(&cfg.adaptive, "adaptive", false, "serve all RPC links through the online adaptive codec controller and gate on it converging")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.BoolVar(&cfg.jsonOut, "json", false, "emit the summary as JSON on stdout")
	obs := boot.Register(flag.CommandLine)
	flag.Parse()

	rt, err := obs.Start("loadchar")
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadchar:", err)
		os.Exit(1)
	}
	defer rt.Close()

	s, err := run(context.Background(), cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadchar:", err)
		os.Exit(1)
	}
	if cfg.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s); err != nil {
			fmt.Fprintln(os.Stderr, "loadchar:", err)
			os.Exit(1)
		}
	} else {
		printHuman(os.Stdout, s)
	}
	if s.LostAcked > 0 {
		fmt.Fprintf(os.Stderr, "loadchar: FAIL: %d acked writes lost\n", s.LostAcked)
		os.Exit(1)
	}
	// With more than one replica every healthy get is answered mostly by
	// digests; none at all means the read path fell back to full reads.
	if s.Replicas > 1 && s.Nodes > 1 && s.Reads.Count > 0 && s.DigestReads == 0 {
		fmt.Fprintln(os.Stderr, "loadchar: FAIL: no replica read was served by digest")
		os.Exit(1)
	}
	// Adaptive gates: the controller must have found at least one better
	// config (a converging closed loop swaps off the deliberately weak
	// default), and must never be serving an SLO-violating config.
	if s.Adaptive != nil {
		if s.Adaptive.Infeasible > 0 {
			fmt.Fprintf(os.Stderr, "loadchar: FAIL: %d adaptive classes serve SLO-infeasible configs\n", s.Adaptive.Infeasible)
			os.Exit(1)
		}
		if s.Adaptive.Swaps == 0 {
			fmt.Fprintln(os.Stderr, "loadchar: FAIL: adaptive controller never swapped off the static default")
			os.Exit(1)
		}
	}
}
