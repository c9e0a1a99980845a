// The plan tier: the second tier of the cross-call cache stores each
// finished search answer, so a repeat runs no node pass and no min-plus
// work at all. The answer is one periodic layer whose choice depends on the
// environment prefix, α and the whole layer graph, never on the layer count
// (layerPlan, dp.go); the plan key folds exactly those (appendPlanCrossKey). One
// entry therefore serves every layer count: TotalCost is rebuilt as
// float64(layers)·LayerCost, the same product a cold search reports.
//
// An entry is the answer itself: per node its partition sequence, its Intra
// breakdown and its space size, plus the LayerCost float bits and whether
// the graph stacks. search probes the tier right after graph validation and
// builds the Strategy from the entry (strategyOf), the same assembly a cold
// search runs on the entry it publishes, so a hit is bit-identical to the
// search that published it. It is the only tier the restart file persists
// (diskcache.go).
//
// Entries are published only after a search completes, so a cancelled
// search publishes nothing. Load cannot check an entry against the graph it
// will be looked up for, so every use checks it first (fits); an entry that
// does not fit counts as a miss.
package core

import (
	"encoding/binary"
	"math"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/partition"
)

// cachedPlan is one finished search answer.
type cachedPlan struct {
	seqs      []partition.Seq // chosen candidate per node
	intra     []cost.Intra    // its cost breakdown
	sizes     []int32         // |P| per node
	layerCost float64
	stackable bool // the layer head's space is index-identical to the tail's
}

// planOf records the answer a search reconstructed: candidate assign[i] of
// node i's space, the layer's cost, and whether the graph stacks.
func planOf(cands []*nodeCands, assign []int32, layerCost float64, stackable bool) *cachedPlan {
	p := &cachedPlan{
		seqs:      make([]partition.Seq, len(cands)),
		intra:     make([]cost.Intra, len(cands)),
		sizes:     make([]int32, len(cands)),
		layerCost: layerCost,
		stackable: stackable,
	}
	for i, ix := range assign {
		p.seqs[i] = cands[i].seqs[ix]
		p.intra[i] = cands[i].intra[ix]
		p.sizes[i] = int32(len(cands[i].seqs))
	}
	return p
}

// fits reports whether the entry answers a search of g on nbits device-ID
// bits at the given layer count: one sequence per node, each valid for its
// op, and a stackable layer when more than one is asked for. An entry
// published in this process always fits its key's graph at layer count 1;
// one loaded from a hostile or corrupt file may not. A non-stackable entry
// at layers > 1 misses so the full path returns its "cannot stack" error.
func (e *cachedPlan) fits(g *graph.Graph, nbits, layers int) bool {
	if len(e.seqs) != len(g.Nodes) || (layers > 1 && !e.stackable) {
		return false
	}
	for i, s := range e.seqs {
		if s.Validate(len(g.Nodes[i].Axes), nbits) != nil {
			return false
		}
	}
	return true
}

// appendPlanCrossKey appends the cross-call identity of a whole search onto
// the environment prefix: α (candidate totals are α-weighted), then the
// layer graph's signature (appendGraphSig).
func (o *Optimizer) appendPlanCrossKey(b []byte, g *graph.Graph) []byte {
	b = binary.LittleEndian.AppendUint64(append(b, 'P'), math.Float64bits(o.Cost.Alpha))
	return appendGraphSig(b, g)
}

// appendLayerCrossKey appends the cross-call identity of a layer's α-free
// inputs (layerInputs, dp.go) onto the environment prefix: the plan key's
// graph signature without α.
func appendLayerCrossKey(b []byte, g *graph.Graph) []byte {
	return appendGraphSig(append(b, 'L'), g)
}

// appendGraphSig appends everything a search reads of the layer graph: the
// full signature of every op and every edge (endpoint positions,
// destination tensor, axis map; the endpoint ops' signatures already cover
// the tensor shapes).
func appendGraphSig(b []byte, g *graph.Graph) []byte {
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
