package dict

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/datacomp/datacomp/internal/zstd"
)

// typedItem simulates a structured cache item: shared field skeleton with
// per-item values, like the typed objects in CACHE1/CACHE2.
func typedItem(rng *rand.Rand, id int) []byte {
	return []byte(fmt.Sprintf(
		`{"object_type":"user_profile","schema_version":7,"user_id":%d,`+
			`"display_name":"user-%d","region":"%s","flags":["active","verified"],`+
			`"counters":{"posts":%d,"followers":%d,"following":%d}}`,
		id, id, []string{"us-east", "us-west", "eu-central"}[rng.Intn(3)],
		rng.Intn(1000), rng.Intn(100000), rng.Intn(5000)))
}

func sampleSet(seed int64, n int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, n)
	for i := range out {
		out[i] = typedItem(rng, rng.Intn(1<<30))
	}
	return out
}

func TestTrainProducesBoundedDict(t *testing.T) {
	samples := sampleSet(1, 500)
	for _, size := range []int{512, 2048, 16384} {
		d, err := Train(samples, DefaultParams(size))
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if len(d) == 0 || len(d) > size {
			t.Fatalf("size %d: dict length %d", size, len(d))
		}
	}
}

func TestTrainDeterministic(t *testing.T) {
	samples := sampleSet(2, 300)
	d1, err := Train(samples, DefaultParams(4096))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Train(samples, DefaultParams(4096))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d1, d2) {
		t.Fatal("training is not deterministic")
	}
}

func TestTrainedDictImprovesSmallItemCompression(t *testing.T) {
	samples := sampleSet(3, 1000)
	d, err := Train(samples, DefaultParams(8192))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := zstd.NewEncoder(zstd.Options{Level: 3})
	if err != nil {
		t.Fatal(err)
	}
	dicted, err := zstd.NewEncoder(zstd.Options{Level: 3, Dict: d})
	if err != nil {
		t.Fatal(err)
	}
	// Fresh items from the same distribution (not in the training set).
	fresh := sampleSet(999, 100)
	var plainTotal, dictTotal, rawTotal int
	for _, item := range fresh {
		po, err := plain.Compress(nil, item)
		if err != nil {
			t.Fatal(err)
		}
		do, err := dicted.Compress(nil, item)
		if err != nil {
			t.Fatal(err)
		}
		back, err := zstd.Decompress(nil, do, d)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, item) {
			t.Fatal("dict roundtrip mismatch")
		}
		rawTotal += len(item)
		plainTotal += len(po)
		dictTotal += len(do)
	}
	plainRatio := float64(rawTotal) / float64(plainTotal)
	dictRatio := float64(rawTotal) / float64(dictTotal)
	t.Logf("raw=%d plain ratio=%.2f dict ratio=%.2f", rawTotal, plainRatio, dictRatio)
	if dictRatio < plainRatio*1.3 {
		t.Fatalf("dictionary should improve small-item ratio by ≥30%%: plain %.2f dict %.2f",
			plainRatio, dictRatio)
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, DefaultParams(4096)); err == nil {
		t.Error("empty samples accepted")
	}
	if _, err := Train([][]byte{[]byte("tiny")}, DefaultParams(4096)); err == nil {
		t.Error("tiny corpus accepted")
	}
	samples := sampleSet(5, 100)
	if _, err := Train(samples, Params{MaxSize: 10, SegmentLen: 64, K: 8}); err == nil {
		t.Error("tiny max size accepted")
	}
	if _, err := Train(samples, Params{MaxSize: 4096, SegmentLen: 4, K: 8}); err == nil {
		t.Error("bad segment length accepted")
	}
	if _, err := Train(samples, Params{MaxSize: 4096, SegmentLen: 64, K: 2}); err == nil {
		t.Error("bad k accepted")
	}
}

func TestTrainSmallK(t *testing.T) {
	samples := sampleSet(7, 200)
	p := DefaultParams(2048)
	p.K = 5
	d, err := Train(samples, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) == 0 {
		t.Fatal("empty dictionary")
	}
}

// TestTrainZstd: the one trainer returns the content Train picks with
// entropy tables ahead of it, never a dictionary whose zstd ID is 0 (frames
// and manifests read 0 as "no dictionary"), and ErrNotEnoughSamples when
// there is too little to train on.
func TestTrainZstd(t *testing.T) {
	for seed := int64(0); seed < 16; seed++ {
		samples := sampleSet(seed, 100+int(seed)*20)
		d, err := TrainZstd(3, 2048, samples, samples)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if zstd.DictID(d) == 0 {
			t.Fatalf("seed %d: dictionary id 0", seed)
		}
		content, err := Train(samples, DefaultParams(2048))
		if err != nil {
			t.Fatal(err)
		}
		if len(d) <= len(content) || !bytes.HasSuffix(d, content) {
			t.Fatalf("seed %d: %d-byte dictionary does not carry tables ahead of its %d-byte content", seed, len(d), len(content))
		}
	}
	tiny := [][]byte{[]byte("tiny")}
	if _, err := TrainZstd(3, 2048, tiny, tiny); !errors.Is(err, ErrNotEnoughSamples) {
		t.Fatalf("tiny input: err=%v, want ErrNotEnoughSamples", err)
	}
}

func BenchmarkTrain(b *testing.B) {
	samples := sampleSet(1, 2000)
	p := DefaultParams(1 << 14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(samples, p); err != nil {
			b.Fatal(err)
		}
	}
}
