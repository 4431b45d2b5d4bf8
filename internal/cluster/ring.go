// Package cluster turns the durable kvstore into a small sharded serving
// system: a consistent-hash ring with virtual nodes spreads keys over
// in-process "nodes" that speak real rpc frames, with N-way replication,
// quorum reads and writes, and read-repair when a replica returns stale or
// checksum-failing data. It is the serving topology the paper's fleet
// numbers come from, shrunk to one process so chaos (crash, corrupt,
// shed) stays deterministic and testable.
package cluster

import (
	"fmt"
	"slices"
	"sort"

	"github.com/datacomp/datacomp/internal/xxhash"
)

// Ring is a consistent-hash ring with virtual nodes. Each physical node
// projects vnodes points onto the 64-bit hash circle; a key's owners are
// the first N distinct nodes clockwise from the key's hash. Virtual nodes
// smooth the load split (with tens of points per node, shares stay within
// a few percent of even) and make join/leave move only ~1/nodes of keys.
//
// Ring is not safe for concurrent mutation; Cluster guards it.
type Ring struct {
	vnodes int
	points []ringPoint // sorted by hash
	nodes  map[string]struct{}
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds an empty ring with the given virtual-node count per
// physical node (0 means 64).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	return &Ring{vnodes: vnodes, nodes: make(map[string]struct{})}
}

// Add projects node onto the ring. Adding a present node is a no-op.
func (r *Ring) Add(node string) {
	if _, ok := r.nodes[node]; ok {
		return
	}
	r.nodes[node] = struct{}{}
	for i := 0; i < r.vnodes; i++ {
		h := xxhash.Sum64([]byte(fmt.Sprintf("%s#%d", node, i)))
		r.points = append(r.points, ringPoint{hash: h, node: node})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove takes node off the ring. Removing an absent node is a no-op.
func (r *Ring) Remove(node string) {
	if _, ok := r.nodes[node]; !ok {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Len reports the number of physical nodes.
func (r *Ring) Len() int { return len(r.nodes) }

// Nodes returns the physical node names in sorted order.
func (r *Ring) Nodes() []string {
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Owners returns the first n distinct nodes clockwise from key's hash —
// the key's replica set, preference-ordered. Fewer than n nodes on the
// ring returns them all.
func (r *Ring) Owners(key []byte, n int) []string { return r.AppendOwners(nil, key, n) }

// AppendOwners appends key's replica set, as Owners returns it, to dst.
func (r *Ring) AppendOwners(dst []string, key []byte, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return dst
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := xxhash.Sum64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	base := len(dst)
	dst = slices.Grow(dst, n)
	for i := 0; i < len(r.points) && len(dst)-base < n; i++ {
		// A replica set is a handful of names: a scan beats a set.
		if p := r.points[(start+i)%len(r.points)]; !slices.Contains(dst[base:], p.node) {
			dst = append(dst, p.node)
		}
	}
	return dst
}
