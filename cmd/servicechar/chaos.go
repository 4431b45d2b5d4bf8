package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"time"

	"github.com/datacomp/datacomp/internal/corpus"
	"github.com/datacomp/datacomp/internal/faultinject"
	"github.com/datacomp/datacomp/internal/rpc"
	"github.com/datacomp/datacomp/internal/telemetry"
	"github.com/datacomp/datacomp/internal/trace"
)

// runChaos drives the RPC serving path through the fault-injection
// harness: an echo server on loopback pipes, clients whose read side
// randomly flips bits, and the recovery the cluster uses — a failed call
// drops its client and runs again on a freshly dialed one. The invariant on
// display is the hardening contract — every corrupted response is detected
// (ErrCorrupt), none is silently wrong.
//
// tracer may be nil (tracing off). When on, every call records an
// "rpc.call" root that propagates over the wire into a stitched
// "rpc.serve" half, and a call that failed carries its error — the traces
// retained by the flight recorder show exactly where the injected
// corruption was caught.
func runChaos(tracer *trace.Tracer) {
	fmt.Println("=== chaos: bit-flip injection on the RPC serving path ===")
	comp := rpc.Compression{Codec: "zstd", Level: 1, Checksum: true}
	server := rpc.NewServer(comp, rpc.WithServerTracer(tracer))
	server.Register("echo", rpc.Func(func(req []byte) ([]byte, error) { return req, nil }))

	corruptC := telemetry.Default.Counter("rpc_corrupt_frames_total", "frames failing integrity verification")
	corrupt0 := corruptC.Value()

	flipSeed := uint64(*seed)
	dial := func() *rpc.Client {
		cc, sc := net.Pipe()
		go func() {
			_ = server.ServeConn(context.Background(), sc)
			sc.Close()
		}()
		flipSeed++
		conn := faultinject.New(cc,
			faultinject.WithSeed(flipSeed), faultinject.WithBitFlips(0.00001))
		client, err := rpc.NewClient(conn, comp, rpc.WithTracer(tracer))
		if err != nil {
			fatal(err)
		}
		return client
	}
	client := dial()
	redials := 0
	// call drops a client whose last call failed, as the cluster's pool
	// does, and makes this call on a freshly dialed one.
	call := func(ctx context.Context, payload []byte) ([]byte, error) {
		resp, err := client.Call(ctx, "echo", payload)
		if err != nil {
			client.Close()
			client = dial()
			redials++
		}
		return resp, err
	}

	rng := rand.New(rand.NewSource(*seed))
	const calls, maxRetries = 200, 3
	okCount, failed, wrong, retries := 0, 0, 0, 0
	ctx := context.Background()
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		payload := corpus.ModelB.Request(rng)
		resp, err := call(ctx, payload)
		for try := 0; err != nil && try < maxRetries; try++ {
			retries++
			resp, err = call(ctx, payload)
		}
		switch {
		case err == nil && bytes.Equal(resp, payload):
			okCount++
		case err == nil:
			wrong++ // checksum hole: corruption delivered as data
		default:
			failed++
		}
	}
	elapsed := time.Since(t0)
	client.Close()

	fmt.Printf("calls            %d (%.1f/s)\n", calls, float64(calls)/elapsed.Seconds())
	fmt.Printf("succeeded        %d (after up to %d retries)\n", okCount, maxRetries)
	fmt.Printf("failed detected  %d\n", failed)
	fmt.Printf("silently wrong   %d\n", wrong)
	fmt.Printf("corrupt frames   %d (detected by frame checksum)\n", corruptC.Value()-corrupt0)
	fmt.Printf("retries          %d\n", retries)
	fmt.Printf("redials          %d (failed clients replaced)\n", redials)
	if wrong > 0 {
		fatal(fmt.Errorf("%d corrupted responses were NOT detected", wrong))
	}
	fmt.Println("\nEvery injected corruption was caught by the XXH64 frame checksum;")
	fmt.Println("a fresh client per failed call recovered the calls that hit it.")
}
