// The plan tier: the fourth tier of the cross-call cache stores each
// finished search answer, so an identical repeat runs no min-plus work at
// all. A search is a pure function of the environment prefix, α, the whole
// layer graph and the layer count; the plan key folds exactly those — the
// bytes appendTableCrossKey folds (appendGraphSig), under its own tag, plus
// the layer count.
//
// An entry is the chosen candidate index per node plus the
// LayerCost/TotalCost float bits. On a hit search still runs the node pass
// (served by the node tier), which rebuilds the very candidate lists the
// indices point into, then skips edge matrices, the layer table and
// stacking. The answer is bit-identical because every
// reported value is either a stored bit pattern or read from the same
// candidate lists the cold search reconstructed from.
//
// Entries are published only after a search completes, so a cancelled
// search publishes nothing. Load cannot check indices against candidate
// spaces, so every use bounds-checks them; an entry that does not fit the
// graph it is looked up for counts as a miss.
package core

import (
	"encoding/binary"

	"repro/internal/graph"
)

// cachedPlan is one finished search answer.
type cachedPlan struct {
	idx                  []int32 // candidate index per node
	layerCost, totalCost float64
}

// fits reports whether e names one in-range candidate for every node, given
// the space size of each.
func (e *cachedPlan) fits(sizes []int) bool {
	if len(e.idx) != len(sizes) {
		return false
	}
	for i, ix := range e.idx {
		if ix < 0 || int(ix) >= sizes[i] {
			return false
		}
	}
	return true
}

// appendPlanCrossKey appends the cross-call identity of a whole search onto
// the environment prefix: the stacked layer count and the whole-graph
// signature (appendGraphSig).
func (o *Optimizer) appendPlanCrossKey(b []byte, g *graph.Graph, layers int) []byte {
	b = append(b, 'P')
	b = binary.AppendUvarint(b, uint64(layers))
	return o.appendGraphSig(b, g)
}
