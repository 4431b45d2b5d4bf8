package telemetry

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"errors"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"github.com/datacomp/datacomp/internal/codec"
)

// skipIfProfilerBusy skips a test that needs the CPU profiler when the
// test binary already runs it (-cpuprofile).
func skipIfProfilerBusy(t *testing.T) {
	t.Helper()
	if _, err := ProfileCPU(func() {}); errors.Is(err, ErrProfilerBusy) {
		t.Skip(err)
	}
}

// profileUntil runs f in a loop under ProfileCPU, a quarter second per
// profile, until done accepts the samples gathered so far or 20 s pass.
func profileUntil(t *testing.T, done func(*CycleProfile) bool, f func()) *CycleProfile {
	t.Helper()
	skipIfProfilerBusy(t)
	all := NewCycleProfile()
	for deadline := time.Now().Add(20 * time.Second); ; {
		p, err := ProfileCPU(func() {
			for end := time.Now().Add(250 * time.Millisecond); time.Now().Before(end); {
				f()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for k, n := range p.Samples() {
			all.Add(k, n)
		}
		if done(all) {
			return all
		}
		if time.Now().After(deadline) {
			t.Fatalf("no profile satisfied the test in 20 s; samples %v", all.Samples())
		}
	}
}

func TestProfilerSamplesActiveOps(t *testing.T) {
	eng, err := codec.NewEngine("zstd", codec.WithLevel(3))
	if err != nil {
		t.Fatal(err)
	}
	data := testPayload(t)
	want := SampleKey{Service: "svc", Codec: "zstd", Level: 3, Dir: DirCompress, Stage: StageMatchFind}
	p := profileUntil(t, func(p *CycleProfile) bool { return p.Samples()[want] > 0 }, func() {
		pprof.Do(context.Background(), pprof.Labels("service", "svc", "level", "3"), func(context.Context) {
			_, _ = eng.Compress(nil, data)
		})
	})
	for k := range p.Samples() {
		if k.Codec != "" && k.Dir != DirCompress {
			t.Fatalf("a compress loop gave a %v sample: %+v", k.Dir, k)
		}
	}
}

// TestStageSymbols is the classifier's rename guard: it profiles zstd,
// lz4 and zlib compress and decompress loops until every stageSymbols and
// codecSymbols entry has named a sampled frame below a codec frame (a
// decode-only entry, below a Decompress frame), and fails naming each
// entry that never did. A renamed codec function cannot silently zero a
// stage.
func TestStageSymbols(t *testing.T) {
	data := testPayload(t)
	type loop struct {
		eng  codec.Engine
		comp []byte
	}
	var loops []loop
	for _, c := range []struct {
		name  string
		level int
	}{{"zstd", 3}, {"lz4", 1}, {"zlib", 6}} {
		eng, err := codec.NewEngine(c.name, codec.WithLevel(c.level))
		if err != nil {
			t.Fatal(err)
		}
		comp, err := eng.Compress(nil, data)
		if err != nil {
			t.Fatal(err)
		}
		loops = append(loops, loop{eng, comp})
	}
	stageHits := make([]int64, len(stageSymbols))
	codecHits := make([]int64, len(codecSymbols))
	missing := func() []string {
		var m []string
		for i, n := range stageHits {
			if n == 0 {
				m = append(m, stageSymbols[i].sym)
			}
		}
		for i, n := range codecHits {
			if n == 0 {
				m = append(m, codecSymbols[i].sym)
			}
		}
		return m
	}
	skipIfProfilerBusy(t)
	var out []byte
	for deadline := time.Now().Add(30 * time.Second); len(missing()) > 0 && time.Now().Before(deadline); {
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			t.Fatal(err)
		}
		for _, l := range loops {
			for end := time.Now().Add(100 * time.Millisecond); time.Now().Before(end); {
				out, _ = l.eng.Compress(out[:0], data)
			}
			for end := time.Now().Add(100 * time.Millisecond); time.Now().Before(end); {
				out, _ = l.eng.Decompress(out[:0], l.comp)
			}
		}
		pprof.StopCPUProfile()
		p, err := ParseProfile(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range p.Sample {
			var below []int // stage entries named below the codec frame so far
		frames:
			for _, loc := range s.Location {
				for _, fn := range loc.Line {
					for i, c := range codecSymbols {
						if fn != c.sym {
							continue
						}
						codecHits[i]++
						for _, j := range below {
							if !stageSymbols[j].decodeOnly || c.dir == DirDecompress {
								stageHits[j]++
							}
						}
						break frames
					}
					for j, st := range stageSymbols {
						if strings.HasPrefix(fn, st.sym) {
							below = append(below, j)
						}
					}
				}
			}
		}
	}
	if m := missing(); len(m) > 0 {
		t.Fatalf("no sampled stack named these classifier symbols (renamed or inlined away?):\n\t%s",
			strings.Join(m, "\n\t"))
	}
}

func TestParseProfileRuntime(t *testing.T) {
	skipIfProfilerBusy(t)
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	pprof.Do(context.Background(), pprof.Labels("service", "parse-test"), func(context.Context) {
		data := testPayload(t)
		eng, _ := codec.NewEngine("lz4", codec.WithLevel(1))
		for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
			_, _ = eng.Compress(nil, data)
		}
	})
	pprof.StopCPUProfile()
	p, err := ParseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Sample) == 0 {
		t.Skip("no CPU samples in 300 ms (coarse profiling timer)")
	}
	labelled := false
	for _, s := range p.Sample {
		if len(s.Value) != 2 || s.Value[0] <= 0 || len(s.Location) == 0 {
			t.Fatalf("sample %+v", s)
		}
		for _, loc := range s.Location {
			if loc == nil || len(loc.Line) == 0 || loc.Line[0] == "" {
				t.Fatalf("unresolved location %+v", loc)
			}
		}
		for _, kv := range s.Label {
			labelled = labelled || kv == [2]string{"service", "parse-test"}
		}
	}
	if !labelled {
		t.Fatal("no sample carries the pprof.Do label")
	}
}

// pbVarint and pbBytes build protobuf bytes by hand.
func pbVarint(b []byte, field int, v uint64) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(b, uint64(field)<<3), v)
}

func pbBytes(b []byte, field int, body []byte) []byte {
	b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(field)<<3|2), uint64(len(body)))
	return append(b, body...)
}

// handProfile is one sample of value {4, 40} on location 7 → function 3
// ("main.f"), with a service label; the sample comes before the tables it
// names, and its repeated fields are packed or not as asked.
func handProfile(packed bool) []byte {
	var sample []byte
	if packed {
		sample = pbBytes(sample, 1, binary.AppendUvarint(nil, 7))
		sample = pbBytes(sample, 2, binary.AppendUvarint(binary.AppendUvarint(nil, 4), 40))
	} else {
		sample = pbVarint(sample, 1, 7)
		sample = pbVarint(sample, 2, 4)
		sample = pbVarint(sample, 2, 40)
	}
	sample = pbBytes(sample, 3, pbVarint(pbVarint(nil, 1, 3), 2, 4))
	var p []byte
	p = pbBytes(p, fSample, sample) // samples before the tables they name
	p = pbBytes(p, fLocation, pbBytes(pbVarint(nil, 1, 7), 4, pbVarint(pbVarint(nil, 1, 3), 2, 12)))
	p = pbBytes(p, fFunction, pbVarint(pbVarint(nil, 1, 3), 2, 1))
	for _, s := range []string{"", "main.f", "samples", "service", "svc", "count"} {
		p = pbBytes(p, fString, []byte(s))
	}
	return p
}

func TestParseProfilePackedAndUnpacked(t *testing.T) {
	for _, packed := range []bool{false, true} {
		raw := handProfile(packed)
		var gz bytes.Buffer
		zw := gzip.NewWriter(&gz)
		zw.Write(raw)
		zw.Close()
		for _, in := range [][]byte{raw, gz.Bytes()} {
			p, err := ParseProfile(in)
			if err != nil {
				t.Fatalf("packed=%v: %v", packed, err)
			}
			if len(p.Sample) != 1 || len(p.Location) != 1 {
				t.Fatalf("packed=%v: %+v", packed, p)
			}
			s := p.Sample[0]
			if len(s.Location) != 1 || s.Location[0].ID != 7 || len(s.Location[0].Line) != 1 || s.Location[0].Line[0] != "main.f" {
				t.Fatalf("packed=%v: stack %+v", packed, s.Location)
			}
			if len(s.Value) != 2 || s.Value[0] != 4 || s.Value[1] != 40 || len(s.Label) != 1 || s.Label[0] != [2]string{"service", "svc"} {
				t.Fatalf("packed=%v: sample %+v", packed, s)
			}
			if k := (SampleKey{Service: "svc"}); p.Cycles().Samples()[k] != 4 {
				t.Fatalf("packed=%v: cycles %v", packed, p.Cycles().Samples())
			}
		}
	}
}

func TestParseProfileMalformed(t *testing.T) {
	good := handProfile(true)
	var bomb bytes.Buffer
	zw := gzip.NewWriter(&bomb)
	zw.Write(make([]byte, 8<<20))
	zw.Close()
	for name, in := range map[string][]byte{
		"truncated":        good[:len(good)-3],
		"group wire type":  append(bytes.Clone(good), 0x0b),
		"length past end":  append(bytes.Clone(good), 0x32, 0x7f),
		"no string table":  pbBytes(nil, fSample, nil),
		"string index":     append(bytes.Clone(good), pbBytes(nil, fFunction, pbVarint(pbVarint(nil, 1, 5), 2, 99))...),
		"unknown location": append(bytes.Clone(good), pbBytes(nil, fSample, pbVarint(nil, 1, 8))...),
		"unknown function": append(bytes.Clone(good), pbBytes(nil, fLocation, pbBytes(pbVarint(nil, 1, 9), 4, pbVarint(nil, 1, 4)))...),
		"duplicate id":     append(bytes.Clone(good), pbBytes(nil, fFunction, pbVarint(nil, 1, 3))...),
		"scalar as bytes":  append(bytes.Clone(good), pbBytes(nil, fFunction, pbBytes(nil, 1, nil))...),
		"line as varint":   {0x32, 0x00, 0x22, 0x02, 0x20, 0x01},
		"label as varint":  append(bytes.Clone(good), pbBytes(nil, fSample, pbVarint(nil, 3, 1))...),
		"gzip garbage":     {0x1f, 0x8b, 0, 0},
		"gzip bomb":        bomb.Bytes(),
	} {
		_, err := ParseProfile(in)
		var pe *ProfileError
		if !errors.As(err, &pe) {
			t.Errorf("%s: err = %v, want a *ProfileError", name, err)
		}
	}
}

func TestProfileCPUBusy(t *testing.T) {
	skipIfProfilerBusy(t)
	release, started, stopped := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		ProfileCPU(func() { close(started); <-release })
	}()
	<-started
	ran := false
	_, err := ProfileCPU(func() { ran = true })
	close(release)
	<-stopped
	if !errors.Is(err, ErrProfilerBusy) || ran {
		t.Fatalf("second ProfileCPU: err %v, ran %v; want ErrProfilerBusy and f not run", err, ran)
	}
}
