package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// The hammer's shape: hammerWorkers goroutines over hammerKeys keys, each
// key written by one worker only, every worker reading every key.
const hammerWorkers, hammerKeys = 4, 8

// hammerModel is the per-key model a hammer checks its reads against. A
// key's one writer numbers its puts, so its values are ordered: a get must
// return the last sequence number acked before it began, or a later one
// issued since.
type hammerModel struct {
	prefix        string
	acked, issued [hammerKeys]atomic.Int64
}

func (m *hammerModel) key(k int) []byte { return []byte(fmt.Sprintf("%s-%d", m.prefix, k)) }

// put issues key k's next sequence number to write, and records it acked
// when write succeeds. A failed put is indeterminate: its number stays
// issued, so a later read may return it.
func (m *hammerModel) put(k int, write func(key, value []byte) error) error {
	seq := m.issued[k].Add(1)
	if err := write(m.key(k), []byte(fmt.Sprint(seq))); err != nil {
		return err
	}
	m.acked[k].Store(seq)
	return nil
}

// start runs hammerWorkers workers of ops operations each and returns a
// func that waits for them. Every third operation of worker w writes one of
// its own two keys (w and w+hammerWorkers) through put; the others read key
// (w+i)%hammerKeys through get, whose value must lie between the last acked
// and the last issued sequence number. get returns a nil value for a read
// the test tolerates failing. An error from put or get fails the test and
// ends its worker. mid, when not nil, is called once by each worker, at its
// halfway point or when it ends early.
func (m *hammerModel) start(t *testing.T, ops int, mid func(), put func(k int) error, get func(key []byte) ([]byte, error)) (wait func()) {
	var wg sync.WaitGroup
	for w := 0; w < hammerWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			halfway := func() {}
			if mid != nil {
				halfway = sync.OnceFunc(mid)
				defer halfway() // a worker that fails early must not strand the caller
			}
			for i := 0; i < ops; i++ {
				if i == ops/2 {
					halfway()
				}
				if i%3 == 0 {
					k := w + hammerWorkers*(i/3%2)
					if err := put(k); err != nil {
						t.Errorf("put %s: %v", m.key(k), err)
						return
					}
					continue
				}
				k := (w + i) % hammerKeys
				floor := m.acked[k].Load()
				v, err := get(m.key(k))
				if err != nil {
					t.Errorf("get %s: %v", m.key(k), err)
					return
				}
				if v == nil {
					continue
				}
				var seq int64
				fmt.Sscan(string(v), &seq)
				if ceil := m.issued[k].Load(); seq < floor || seq > ceil {
					t.Errorf("get %s = %q, want between the last acked before it (%d) and the last issued (%d)", m.key(k), v, floor, ceil)
					return
				}
			}
		}(w)
	}
	return wg.Wait
}
