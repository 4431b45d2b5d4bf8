package cluster

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// Replies land in buffers the pooled op keeps, so what Get returns must be
// a copy the caller owns: exact-size, unchanged by later gets of any key,
// and free to modify without touching what a later get returns.
func TestReplyBufferGetOwnsValue(t *testing.T) {
	c := testCluster(t, 3)
	values := map[string][]byte{
		"small": []byte("tiny"),
		"kib":   bytes.Repeat([]byte("k"), 1<<10),
		"large": bytes.Repeat([]byte("a value compressed on the link "), 200),
		"empty": {},
	}
	for k, v := range values {
		if err := c.Put(tctx, []byte(k), v); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string][]byte{}
	for round := 0; round < 3; round++ {
		for k := range values {
			v, ok, err := c.Get(tctx, []byte(k))
			if err != nil || !ok || !bytes.Equal(v, values[k]) {
				t.Fatalf("get %s: %d bytes ok=%v err=%v", k, len(v), ok, err)
			}
			if len(v) != cap(v) {
				t.Errorf("get %s: len %d cap %d, want an exact-size copy", k, len(v), cap(v))
			}
			if round == 0 {
				got[k] = v
			}
		}
	}
	for k, v := range got {
		if !bytes.Equal(v, values[k]) {
			t.Errorf("value of %s changed under its caller after later gets", k)
		}
		if len(v) > 0 {
			v[0] ^= 0xff
		}
	}
	for k, want := range values {
		mustGet(t, c, []byte(k), string(want))
	}
}

// Concurrent gets share the op pool and its reply buffers: every value a
// goroutine got must still be its key's value once all of them are done,
// including through a read-repair, which frames its kv.put in the op's
// request buffer.
func TestReplyBufferConcurrentGets(t *testing.T) {
	c := testCluster(t, 3, WithClientsPerNode(4))
	const workers, keys, rounds = 4, 6, 50
	value := func(k int) []byte { return bytes.Repeat([]byte{byte('a' + k)}, 100+k*300) }
	key := func(k int) []byte { return []byte(fmt.Sprintf("key-%d", k)) }
	for k := 0; k < keys; k++ {
		if err := c.Put(tctx, key(k), value(k)); err != nil {
			t.Fatal(err)
		}
	}
	// One stale replica: the first get of key-0 repairs it.
	stale := key(0)
	victim := ownerNodes(t, c, stale)[1]
	if err := victim.Store().Put(tctx, stale, appendRecord(nil, 0, false, []byte("old"))); err != nil {
		t.Fatal(err)
	}
	victim.forget(stale)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var held [][]byte
			var which []int
			for i := 0; i < rounds; i++ {
				k := (w + i) % keys
				v, ok, err := c.Get(tctx, key(k))
				if err != nil || !ok || !bytes.Equal(v, value(k)) {
					t.Errorf("get key-%d: %d bytes ok=%v err=%v", k, len(v), ok, err)
					return
				}
				held, which = append(held, v), append(which, k)
			}
			for i, v := range held {
				if !bytes.Equal(v, value(which[i])) {
					t.Errorf("worker %d: value %d of key-%d changed after later gets", w, i, which[i])
				}
			}
		}(w)
	}
	wg.Wait()
	if st := c.Stats(); st.ReadRepairs == 0 {
		t.Fatalf("%+v, want the stale replica repaired", st)
	}
	if rec, ok := validRecord(stored(t, victim, string(stale))); !ok || !bytes.Equal(rec.payload, value(0)) {
		t.Fatalf("stale replica not repaired: %q valid=%v", rec.payload, ok)
	}
}
