// Delta re-planning: the third tier of the cross-call cache stores the
// merged DP table of the whole layer graph — the segment DPs and the
// cross-segment merges of Eqs. 13–14, before the layer pick. A search
// probes it once, after the plan tier, so a request differing from a cached
// one by a single dimension re-runs only its changed frontier:
//
//   - identical repeat or layer-count change → a plan hit (plancache.go):
//     the answer is one periodic layer whatever the count, served after the
//     node pass, and no table is even looked up;
//   - α shift                   → node/edge entries hit (α-factored), but
//     the table key folds α, so the layer table rebuilds from cached inputs;
//   - one graph edit            → only the edited op re-evaluates, but the
//     table misses and every segment's DP re-runs from cached matrices;
//   - device count / profile    → the environment prefix changes, so every
//     tier misses (candidate spaces are genuinely different).
//
// Hits are bit-identical by the same argument as the node/edge tiers:
// candidate enumeration, the cost model and the factored DP are all
// deterministic and worker-independent, and the key folds every input the
// layer table reads — the environment prefix, α and the full structural
// signature of every op and edge. The table is published only after the
// merges complete, so a cancelled search never leaves partial DP state
// behind; tables live in memory only (the disk cache persists nodes, edges
// and plans; a layer table rebuilds from nodes and edges in one DP pass).
package core

import (
	"encoding/binary"
	"math"

	"repro/internal/graph"
)

// appendTableCrossKey appends the cross-call identity of the layer table
// onto the environment prefix: the tag and the whole-graph signature. The
// layer count plays no part in a table.
func (o *Optimizer) appendTableCrossKey(b []byte, g *graph.Graph) []byte {
	b = append(b, 'T')
	return o.appendGraphSig(b, g)
}

// appendGraphSig appends everything the layer table depends on beyond the
// environment: α (candidate totals are α-weighted), then the full signature
// of every op and every edge (endpoint positions, destination tensor, axis
// map; the endpoint ops' signatures already cover the tensor shapes). The
// plan tier (plancache.go) folds the same bytes.
func (o *Optimizer) appendGraphSig(b []byte, g *graph.Graph) []byte {
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(o.Cost.Alpha))
	b = binary.AppendUvarint(b, uint64(len(g.Nodes)-1))
	for _, op := range g.Nodes {
		b = appendOpSig(b, op)
	}
	for _, e := range g.Edges {
		b = append(b, 'e')
		b = binary.AppendUvarint(b, uint64(e.Src))
		b = binary.AppendUvarint(b, uint64(e.Dst))
		b = binary.AppendUvarint(b, uint64(e.DstTensor))
		b = binary.AppendUvarint(b, uint64(len(e.AxisMap)))
		for _, ax := range e.AxisMap {
			b = binary.AppendVarint(b, int64(ax))
		}
	}
	return b
}
