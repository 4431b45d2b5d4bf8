package main

import (
	"bytes"
	"fmt"
	"sync"
)

// keyModel is what a correct cluster may return for one key. hist is every
// stamp attempted, in the order the attempts began. Puts that do not
// overlap get their cluster versions in that order; puts that overlap may
// get them in either, and a Put that errors after reaching a replica has no
// rollback, so its version may still win a later read (loadchar's
// ackedWrites rule). So once a put is acknowledged a Get must find a value,
// and it is one of hist[floor:], where floor is the first attempt of the
// run of overlapping puts the acknowledged one belongs to. No lock is held
// across Cluster.Put: the cluster sees concurrent writes to one key.
type keyModel struct {
	mu       sync.Mutex
	hist     []uint64
	inflight int
	runFrom  int // index of the first attempt of the current run of overlapping puts
	floor    int // -1 until a put is acknowledged
}

type model struct {
	keys []keyModel
	pool *valuePool
}

func newModel(keys int, pool *valuePool) *model {
	m := &model{keys: make([]keyModel, keys), pool: pool}
	for i := range m.keys {
		m.keys[i].floor = -1
	}
	return m
}

// beginPut registers an attempted write before it is issued.
func (m *model) beginPut(key int, stamp uint64) {
	k := &m.keys[key]
	k.mu.Lock()
	if k.inflight == 0 {
		k.runFrom = len(k.hist)
	}
	k.inflight++
	k.hist = append(k.hist, stamp)
	k.mu.Unlock()
}

// endPut records the outcome of a write registered with beginPut.
func (m *model) endPut(key int, err error) {
	k := &m.keys[key]
	k.mu.Lock()
	k.inflight--
	if err == nil {
		k.floor = k.runFrom
	}
	k.mu.Unlock()
}

// floorAt snapshots the key's floor before a Get is issued; check accepts
// anything from that attempt onwards.
func (m *model) floorAt(key int) int {
	k := &m.keys[key]
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.floor
}

// check reports whether a Get result is one the model allows, given the
// floor snapshotted before the Get. scratch is reused to rebuild the
// expected value.
func (m *model) check(key, from int, got []byte, found bool, scratch *[]byte) error {
	k := &m.keys[key]
	k.mu.Lock()
	defer k.mu.Unlock()
	if !found {
		if from < 0 {
			return nil
		}
		return fmt.Errorf("key %d: not found, though a write was acknowledged", key)
	}
	s, ok := stampOf(got)
	if !ok {
		return fmt.Errorf("key %d: value of %d bytes carries no stamp", key, len(got))
	}
	for _, h := range k.hist[max(from, 0):] {
		if h == s {
			*scratch = m.pool.appendValue((*scratch)[:0], s)
			if !bytes.Equal(got, *scratch) {
				return fmt.Errorf("key %d: value stamped %016x differs from what was written", key, s)
			}
			return nil
		}
	}
	return fmt.Errorf("key %d: got stamp %016x, neither the acknowledged write, one that overlapped it, nor a later one", key, s)
}

// liveKeys counts keys holding an acknowledged value.
func (m *model) liveKeys() int {
	n := 0
	for i := range m.keys {
		if m.keys[i].floor >= 0 {
			n++
		}
	}
	return n
}
