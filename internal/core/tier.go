package core

import (
	"sync"

	"repro/internal/cost"
)

// tier is one bounded level of the SearchCache: a map from exact byte key to
// a read-only value, the cells those values pin, and a cap on the cells. An
// insert that would pass the cap flushes the tier wholesale first — an epoch
// flush is simpler than LRU, and the cache rebuilds in one sweep pass — and
// an insert never overwrites a present key. In-process inserts and
// disk-cache merges take the same path, so both respect one memory bound.
type tier[V any] struct {
	mu    sync.Mutex
	m     map[string]V
	cells int64
	// cap bounds cells. Tests shrink it to exercise the flush without
	// half-gigabyte payloads.
	cap  int64
	size func(V) int64
}

func newTier[V any](limit int64, size func(V) int64) *tier[V] {
	return &tier[V]{m: make(map[string]V), cap: limit, size: size}
}

// get returns the value under key, or V's zero value (nil for the cache's
// pointer values).
func (t *tier[V]) get(key string) V {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[key]
}

func (t *tier[V]) put(key string, v V) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.insertLocked(key, v)
}

func (t *tier[V]) insertLocked(key string, v V) {
	if _, ok := t.m[key]; ok {
		return
	}
	n := t.size(v)
	if t.cells+n > t.cap {
		t.m = make(map[string]V)
		t.cells = 0
	}
	t.m[key] = v
	t.cells += n
}

// merge inserts every entry of m in sorted key order, so which entries
// survive a flush is deterministic.
func (t *tier[V]) merge(m map[string]V) {
	keys := sortedKeys(m)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, k := range keys {
		t.insertLocked(k, m[k])
	}
}

// snapshot returns a copy of the tier's map.
func (t *tier[V]) snapshot() map[string]V {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]V, len(t.m))
	for k, v := range t.m {
		out[k] = v
	}
	return out
}

func (t *tier[V]) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

func (t *tier[V]) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m = make(map[string]V)
	t.cells = 0
}

// Tier caps, in float64-equivalent cells (8 bytes each).
const (
	// maxCachedNodeCells bounds the node tier (~512 MB). The largest node
	// tier of any benchmark workload, a restarted daemon's, peaks at 33.5M
	// cells (DESIGN.md §5.21).
	maxCachedNodeCells = 64 << 20
	// maxCachedEdgeCells bounds the edge tier (~512 MB).
	maxCachedEdgeCells = 64 << 20
	// maxCachedPlanCells bounds the plan tier's answers (~8 MB).
	maxCachedPlanCells = 1 << 20
)

// nodeCells counts the words a node entry pins: per candidate its tokens
// (six words each), its Intra breakdown and both interfaces. Interfaces
// shared between candidates are counted per candidate — an overcount, which
// only flushes earlier, never later.
func nodeCells(e *nodeEntry) int64 {
	n := int64(len(e.intra)) * 5
	for _, s := range e.seqs {
		n += 6 * int64(len(s.Tokens))
	}
	for _, ifs := range [2][]*cost.Iface{e.out, e.in} {
		for _, ifc := range ifs {
			if ifc != nil {
				n += int64(len(ifc.Fwd) + len(ifc.Bwd) + len(ifc.Width))
			}
		}
	}
	return n
}

// edgeCells counts a matrix's grouped cells.
func edgeCells(m *edgeMat) int64 { return int64(m.nr) * int64(m.nc) }

// planCells counts the words a plan entry pins: per node its tokens (six
// words each), its Intra breakdown (five) and its space size (one).
func planCells(e *cachedPlan) int64 {
	n := int64(len(e.intra))*5 + int64(len(e.sizes))
	for _, s := range e.seqs {
		n += 6 * int64(len(s.Tokens))
	}
	return n
}
