package core

import "sync"

// tier is one bounded level of the SearchCache: a map from exact byte key to
// a read-only value, the cells those values pin, and a cap on the cells. An
// insert that would pass the cap flushes the tier wholesale first — an epoch
// flush is simpler than LRU, and the cache rebuilds in one sweep pass — an
// insert never overwrites a present key, and a value larger than the cap on
// its own is not cached at all. In-process inserts and
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
	if n > t.cap {
		return
	}
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
	// maxCachedLayerCells bounds the layer tier (~1 GB), the sum of the
	// node and edge tiers it replaced (DESIGN.md §5.37).
	maxCachedLayerCells = 128 << 20
	// maxCachedPlanCells bounds the plan tier's answers (~8 MB).
	maxCachedPlanCells = 1 << 20
)

// layerCells counts the words a layer entry pins: per unique node entry and
// candidate its tokens (six words each) and its Intra breakdown, the words
// of the entry's two pattern sets (cost.Patterns.Words), every unique edge
// matrix's grouped cells nr·nc, and what fills them later: every matrix's
// calc and the registry they share. The stores hold only the filled cells,
// but they grow after insertion, on every α shift that fills more, and
// insertLocked never re-counts an entry, so the count is the most the
// stores can ever hold, not what they hold now.
func layerCells(in *layerInputs) int64 {
	var n int64
	for _, e := range in.slots {
		n += int64(len(e.intra)) * 5
		for _, s := range e.seqs {
			n += 6 * int64(len(s.Tokens))
		}
		n += e.outPats.Words() + e.inPats.Words()
	}
	for _, m := range in.mats {
		n += int64(m.nr) * int64(m.nc)
	}
	for _, gr := range in.groups {
		for _, mb := range gr.members {
			n += mb.Calc.Words()
		}
	}
	if in.ot != nil {
		n += in.ot.Words()
	}
	return n
}

// planCells counts the words a plan entry pins: per node its tokens (six
// words each), its Intra breakdown (five) and its space size (one).
func planCells(e *cachedPlan) int64 {
	n := int64(len(e.intra))*5 + int64(len(e.sizes))
	for _, s := range e.seqs {
		n += 6 * int64(len(s.Tokens))
	}
	return n
}
