package adaptive

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/core"
	"github.com/datacomp/datacomp/internal/corpus"
	"github.com/datacomp/datacomp/internal/dict"
	"github.com/datacomp/datacomp/internal/zstd"
)

// frameLog compresses payloads through a handle and keeps every frame, so
// a test can decode all of them after the class has moved on.
type frameLog struct {
	frames, want [][]byte
}

func (l *frameLog) compress(t *testing.T, h *Handle, items [][]byte) (n int) {
	t.Helper()
	for _, it := range items {
		f, err := h.Compress(nil, it)
		if err != nil {
			t.Fatal(err)
		}
		l.frames, l.want = append(l.frames, f), append(l.want, it)
		n += len(f)
	}
	return n
}

func (l *frameLog) verify(t *testing.T, h *Handle) {
	t.Helper()
	for i, f := range l.frames {
		got, err := h.Decompress(nil, f)
		if err != nil {
			t.Fatalf("%s frame %d: %v", h.Class(), i, err)
		}
		if !bytes.Equal(got, l.want[i]) {
			t.Fatalf("%s frame %d: content mismatch", h.Class(), i)
		}
	}
}

// compressedSize codes items one at a time with a fresh zstd-3 engine
// over d (none when nil) and returns the total frame bytes.
func compressedSize(t *testing.T, d []byte, items [][]byte) (n int) {
	t.Helper()
	eng, err := codec.NewEngine("zstd", codec.WithLevel(3), codec.WithDict(d))
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for _, it := range items {
		if buf, err = eng.Compress(buf[:0], it); err != nil {
			t.Fatal(err)
		}
		n += len(buf)
	}
	return n
}

func rawSize(items [][]byte) (n int) {
	for _, it := range items {
		n += len(it)
	}
	return n
}

// TestDictCandidateOnSmallItems is the Managed Compression service on the
// paper's small cache items (Figs. 10–11): on one default controller, each
// small-item class trains a dictionary from its own reservoir and adopts it
// within three rounds, the adopted dictionary beats plain zstd-3 on
// held-out items, its entropy tables do no worse than content alone, and
// every frame written before and after each adoption still decodes.
func TestDictCandidateOnSmallItems(t *testing.T) {
	c := testController(t, Config{})
	types := corpus.DefaultItemTypes()
	for i, typ := range []corpus.ItemType{types[0], types[2]} { // user_profile, edge_assoc
		h, err := c.Handle("cache:" + typ.Name)
		if err != nil {
			t.Fatal(err)
		}
		var log frameLog
		// Enough traffic for the reservoir to reach the training threshold
		// at the default one-in-SampleEvery sampling.
		log.compress(t, h, corpus.CacheItems(int64(10*i), typ, dictMinSamples*c.cfg.SampleEvery))
		var samples [][]byte // the reservoir the adopted dictionary was trained on
		for round := 1; len(h.Config().Dict) == 0; round++ {
			if round > 3 {
				d, _ := h.Report()
				t.Fatalf("%s: no dictionary adopted in 3 rounds: %+v", typ.Name, d)
			}
			c.trial(h)
			if h.sinceTrain == 0 {
				samples = nil
				for _, s := range h.trialBuf {
					samples = append(samples, bytes.Clone(s))
				}
			}
			log.compress(t, h, corpus.CacheItems(int64(10*i+round), typ, 2*c.cfg.SampleEvery))
		}
		d := h.Config().Dict
		name := fmt.Sprintf("dict %08x", zstd.DictID(d))
		for _, st := range c.Status() {
			if st.Class == h.Class() && !strings.Contains(st.Config, name) {
				t.Fatalf("%s: Status().Config %q does not name %s", typ.Name, st.Config, name)
			}
		}

		heldOut := corpus.CacheItems(int64(1000+i), typ, 400)
		raw := float64(rawSize(heldOut))
		served := raw / float64(log.compress(t, h, heldOut))
		plain := raw / float64(compressedSize(t, nil, heldOut))
		tables := raw / float64(compressedSize(t, d, heldOut))
		content, err := dict.Train(samples, dict.DefaultParams(dictBytes))
		if err != nil {
			t.Fatal(err)
		}
		contentOnly := raw / float64(compressedSize(t, content, heldOut))
		t.Logf("%s: served %s ratio %.2f; plain zstd-3 %.2f, content-only dictionary %.2f, with tables %.2f",
			typ.Name, h.Config(), served, plain, contentOnly, tables)
		if served <= plain {
			t.Errorf("%s: the adopted dictionary (%.2f) does not beat plain zstd-3 (%.2f)", typ.Name, served, plain)
		}
		if tables < contentOnly {
			t.Errorf("%s: tables %.2f below content-only %.2f", typ.Name, tables, contentOnly)
		}

		// A later adoption leaves every earlier frame decodable.
		if err := h.Adopt(core.Config{Algorithm: "lz4", Level: 1}); err != nil {
			t.Fatal(err)
		}
		log.compress(t, h, heldOut[:50])
		log.verify(t, h)
	}
}

// TestUnknownDictionaryRejected: a frame naming a dictionary the class
// never adopted is a malformed frame, not a panic or an untyped error.
func TestUnknownDictionaryRejected(t *testing.T) {
	c := testController(t, Config{})
	h, err := c.Handle("uc")
	if err != nil {
		t.Fatal(err)
	}
	d := bytes.Repeat([]byte("external dictionary content "), 40)
	enc, err := zstd.NewEncoder(zstd.Options{Level: 3, Dict: d})
	if err != nil {
		t.Fatal(err)
	}
	frame := appendHeader(nil, 1, codecZstd, zstd.DictID(d))
	if frame, err = enc.Compress(frame, []byte("some payload some payload some payload")); err != nil {
		t.Fatal(err)
	}
	_, err = h.Decompress(nil, frame)
	if !errors.Is(err, ErrFrame) {
		t.Fatalf("unknown dictionary: err=%v, want ErrFrame", err)
	}
	if want := fmt.Sprintf("%08x", zstd.DictID(d)); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name dictionary %s", err, want)
	}
}

// TestUseCasesAreIsolated: one class's dictionary is its own. Class A
// trains and adopts one; class B, untouched, serves no dictionary and
// rejects A's dictionary frames as malformed.
func TestUseCasesAreIsolated(t *testing.T) {
	c := testController(t, Config{SampleEvery: 1})
	a, err := c.Handle("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Handle("b")
	if err != nil {
		t.Fatal(err)
	}
	typ := corpus.DefaultItemTypes()[0]
	var log frameLog
	log.compress(t, a, corpus.CacheItems(3, typ, 2*dictMinSamples))
	for round := 0; len(a.Config().Dict) == 0; round++ {
		if round == 3 {
			t.Fatal("class a adopted no dictionary")
		}
		c.trial(a)
		c.trial(b)
	}
	if len(b.Config().Dict) != 0 || b.Generation() != 1 {
		t.Fatalf("class b moved: %s gen %d", b.Config(), b.Generation())
	}
	frame, err := a.Compress(nil, corpus.CacheItems(4, typ, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Decompress(nil, frame); !errors.Is(err, ErrFrame) {
		t.Fatalf("class b decoded class a's dictionary frame: err=%v", err)
	}
	log.verify(t, a)
}
