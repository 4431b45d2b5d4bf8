package main

import (
	"bytes"
	"fmt"
	"time"

	"github.com/datacomp/datacomp/internal/adaptive"
	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/core"
	"github.com/datacomp/datacomp/internal/corpus"
	"github.com/datacomp/datacomp/internal/trace"
)

// runAdaptive demonstrates the closed-loop codec controller on a serving
// path whose traffic mix shifts mid-run, the way a service's payload
// population drifts across a day. The class starts on a deliberately
// conservative static default (zlib-1, the fleet-wide safe choice); the
// controller shadow-measures candidates on reservoir samples of the live
// payloads and swaps the serving config when one wins by the hysteresis
// margin. Every payload is also compressed through the static default so
// the run ends with a measured bytes win, not a modeled one.
func runAdaptive(tracer *trace.Tracer) {
	fmt.Println("=== adaptive: closed-loop codec selection on a shifting traffic mix ===")
	ctrl, err := adaptive.New(adaptive.Config{
		Default:    core.Config{Algorithm: "zlib", Level: 1},
		Interval:   200 * time.Millisecond,
		MinSamples: 4,
		Tracer:     tracer,
	})
	if err != nil {
		fatal(err)
	}
	defer ctrl.Close()
	h, err := ctrl.Handle("svc:mixed")
	if err != nil {
		fatal(err)
	}
	ctrl.Start()

	static, err := codec.NewEngine("zlib", codec.WithLevel(1))
	if err != nil {
		fatal(err)
	}

	phases := []struct {
		name string
		gen  func(i int64) []byte
	}{
		{"structured logs, 4 KiB", func(i int64) []byte { return corpus.LogLines(i, 4<<10) }},
		{"serialized records, 1 KiB", func(i int64) []byte { return corpus.Records(i, 1<<10) }},
		{"source blobs, 8 KiB", func(i int64) []byte { return corpus.SourceCode(i, 8<<10) }},
	}

	start := time.Now()
	var rawN, adN, stN int64
	var buf, sbuf, out []byte
	for pi, ph := range phases {
		fmt.Printf("--- phase %d: %s (serving %s) ---\n", pi+1, ph.name, h.Config().String())
		deadline := time.Now().Add(1200 * time.Millisecond)
		lastGen, last := h.Generation(), h.Config().String()
		for i := int64(0); time.Now().Before(deadline); i++ {
			src := ph.gen(int64(pi*1000) + i%64)
			buf, err = h.Compress(buf[:0], src)
			if err != nil {
				fatal(err)
			}
			sbuf, err = static.Compress(sbuf[:0], src)
			if err != nil {
				fatal(err)
			}
			rawN += int64(len(src))
			adN += int64(len(buf))
			stN += int64(len(sbuf))
			// Spot-check the serving path end to end: frames written
			// moments before a swap must decode after it.
			if i%8 == 0 {
				out, err = h.Decompress(out[:0], buf)
				if err != nil {
					fatal(err)
				}
				if !bytes.Equal(out, src) {
					fatal(fmt.Errorf("adaptive roundtrip mismatch at gen %d", h.Generation()))
				}
			}
			if gen := h.Generation(); gen != lastGen {
				cur := h.Config().String()
				margin := 0.0
				for _, s := range ctrl.Status() {
					if s.Class == "svc:mixed" && s.HasDecision {
						margin = s.Decision.MarginVsDefault()
					}
				}
				fmt.Printf("  t=%5s swap: %s -> %s (gen %d, margin vs default %+.1f%%)\n",
					time.Since(start).Round(100*time.Millisecond), last, cur, gen, margin*100)
				lastGen, last = gen, cur
			}
			// Leave headroom so the shadow worker's budget is visible
			// rather than starved by the foreground loop.
			time.Sleep(500 * time.Microsecond)
		}
	}

	fmt.Printf("\nbytes: raw=%d  adaptive=%d (ratio %.2f)  static zlib-1=%d (ratio %.2f)\n",
		rawN, adN, float64(rawN)/float64(adN), stN, float64(rawN)/float64(stN))
	if adN < stN {
		fmt.Printf("adaptive stored %.1f%% fewer bytes than the static default\n",
			100*(1-float64(adN)/float64(stN)))
	}
	for _, s := range ctrl.Status() {
		fmt.Printf("class %-10s gen=%d swaps=%d serving=%s retired-gen decodes=%d\n",
			s.Class, s.Generation, s.Swaps, s.Config, s.DecodeRetired)
	}
}
