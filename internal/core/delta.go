// Delta re-planning: the third tier of the cross-call cache stores WHOLE
// segment DP tables, so a request differing from a cached one by a single
// dimension re-runs the DP only over its changed frontier:
//
//   - identical repeat          → every segment table hits; only the
//     cross-segment merges, layer stacking and reconstruction re-run;
//   - α shift                   → node/edge entries hit (α-factored), but
//     table keys fold α, so tables rebuild from cached inputs;
//   - layer-count change        → all tables hit; only stacking re-runs;
//   - one graph edit            → only segments containing the edited op
//     (or edge) miss; untouched segments are served whole;
//   - device count / profile    → the environment prefix changes, so every
//     tier misses (candidate spaces are genuinely different).
//
// Hits are bit-identical by the same argument as the node/edge tiers:
// candidate enumeration, the cost model and the factored DP are all
// deterministic and worker-independent, and the key folds every input a
// segment table reads — the environment prefix, α, the beam width, the
// full structural signature of every in-segment op and edge, and (under
// beam pruning) the graph tail's
// signature, because pruneBeam mirrors the tail's kept set onto zero-cost
// anchors. Tables are published only after the whole segment loop completes,
// so a cancelled search never leaves partial DP state behind; they live in
// memory only (the disk cache persists nodes and edges; tables rebuild from
// them in one DP pass).
package core

import (
	"encoding/binary"
	"math"

	"repro/internal/graph"
)

// maxCachedTableCells bounds the cost/back-pointer cells retained by the
// table tier (~256 MB of float64-equivalents). Like the edge tier, exceeding
// it flushes the map wholesale — the tables rebuild from cached nodes and
// edges in one DP pass, so an epoch flush costs one warm re-plan.
const maxCachedTableCells = 32 << 20

// tableCells counts the cost and back-pointer entries a cached table pins,
// recursing through merge children. Rows shared between refined classes are
// counted per class — an overcount, which only flushes earlier, never later.
func tableCells(t *table) int64 {
	if t == nil {
		return 0
	}
	n := int64(len(t.rowCls)) + int64(len(t.headBase))
	for _, r := range t.cost {
		n += int64(len(r))
	}
	for _, step := range t.chainArgs {
		for _, r := range step {
			n += int64(len(r))
		}
	}
	for _, r := range t.argmid {
		n += int64(len(r))
	}
	return n + tableCells(t.left) + tableCells(t.right)
}

func (c *SearchCache) getTable(key string) *table {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tables[key]
}

func (c *SearchCache) putTable(key string, t *table) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tables == nil {
		c.tables = make(map[string]*table)
	}
	if c.tableCellCap == 0 {
		c.tableCellCap = maxCachedTableCells
	}
	if _, ok := c.tables[key]; ok {
		return
	}
	cells := tableCells(t)
	if c.tableCells+cells > c.tableCellCap {
		c.tables = make(map[string]*table)
		c.tableCells = 0
	}
	c.tables[key] = t
	c.tableCells += cells
}

// TableEntries reports the cached segment-table count (for /v1/stats).
func (c *SearchCache) TableEntries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.tables)
}

// appendTableCrossKey appends the cross-call identity of the segment DP
// table over nodes [a, b] onto the environment prefix. Beyond the
// environment, a segment table depends on: α (candidate totals are
// α-weighted), the beam width and — because pruneBeam mirrors the graph
// TAIL's kept set onto zero-cost anchors — the tail op's full signature
// whenever pruning is on, the segment's ABSOLUTE offset (reconstruction and
// back-pointers are indexed by node id, so a structurally identical segment
// at a different offset must not hit), the full signature of every node in
// the segment, and every edge both of whose endpoints lie inside it
// (relative positions, destination tensor, axis map; the endpoint ops'
// signatures already cover the tensor shapes).
func (o *Optimizer) appendTableCrossKey(b []byte, g *graph.Graph, a, bEnd int) []byte {
	b = append(b, 'T')
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(o.Cost.Alpha))
	b = binary.AppendVarint(b, int64(o.Opts.Beam))
	if o.Opts.Beam > 0 {
		b = appendOpSig(b, g.Nodes[len(g.Nodes)-1])
	}
	b = binary.AppendUvarint(b, uint64(a))
	b = binary.AppendUvarint(b, uint64(bEnd-a))
	for i := a; i <= bEnd; i++ {
		b = appendOpSig(b, g.Nodes[i])
	}
	for _, e := range g.Edges {
		if e.Src < a || e.Dst > bEnd {
			continue
		}
		b = append(b, 'e')
		b = binary.AppendUvarint(b, uint64(e.Src-a))
		b = binary.AppendUvarint(b, uint64(e.Dst-a))
		b = binary.AppendUvarint(b, uint64(e.DstTensor))
		b = binary.AppendUvarint(b, uint64(len(e.AxisMap)))
		for _, ax := range e.AxisMap {
			b = binary.AppendVarint(b, int64(ax))
		}
	}
	return b
}
