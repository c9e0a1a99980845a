// Structural operator signatures and edge-matrix cache keys.
//
// Two nodes with the same FULL signature enumerate the same candidate space
// and receive identical per-candidate costs and interfaces, so one nodeCands
// evaluation serves all of them (the op-signature memo cache).
//
// Two edges share a grouped cost matrix when the quantities the matrix is
// computed from coincide: the endpoint candidate-SPACE shapes (axes and
// prime roles — these determine the enumerated sequences and their
// interfaces), the tensor-axis selections on both ends (these determine the
// edge plan's pairings and volumes), and the axis map. Endpoint tensors or
// reductions may differ — a norm and a residual-add with the same axes
// consume identical matrices — EXCEPT under beam pruning, where the kept
// candidate subset depends on intra-operator totals and therefore on the
// full structure; the key then also folds in the full signatures. (The
// previous string key ignored this and could alias differently-pruned
// spaces onto one matrix.)
//
// Signatures are exact byte encodings — every field tag- or
// length-delimited, nothing hashed — so distinct structures can never
// collide (FuzzEdgeKeyInjectivity pins this down). Axis names participate
// because Candidates gates batch splitting on the axis NAME ("B"), which
// the predecessor string key omitted: two ops differing only in which axis
// was named B shared a key and could share a wrong matrix under
// AllowBatchSplit=false. Display names of ops are deliberately excluded.
package core

import (
	"encoding/binary"
	"math"

	"repro/internal/graph"
	"repro/internal/partition"
)

// appendSpaceSig appends the candidate-space shape of op: everything
// Candidates and iface evaluation read — axis names, sizes, splittability,
// and the prime role axes.
func appendSpaceSig(b []byte, op *graph.Op) []byte {
	b = binary.AppendUvarint(b, uint64(len(op.Axes)))
	for _, a := range op.Axes {
		b = binary.AppendUvarint(b, uint64(len(a.Name)))
		b = append(b, a.Name...)
		b = binary.AppendUvarint(b, uint64(a.Size))
		if a.Splittable {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	b = binary.AppendVarint(b, int64(op.PrimeM))
	b = binary.AppendVarint(b, int64(op.PrimeN))
	b = binary.AppendVarint(b, int64(op.PrimeK))
	return b
}

// appendOpSig appends the exact FULL structural encoding of op: the space
// shape plus every field the cost model reads.
func appendOpSig(b []byte, op *graph.Op) []byte {
	b = appendSpaceSig(b, op)
	b = binary.AppendUvarint(b, uint64(op.Kind))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(op.FlopFactor))
	b = binary.AppendUvarint(b, uint64(len(op.Tensors)))
	for _, t := range op.Tensors {
		b = binary.AppendUvarint(b, uint64(t.Kind))
		b = binary.AppendUvarint(b, uint64(len(t.Axes)))
		for _, ax := range t.Axes {
			b = binary.AppendVarint(b, int64(ax))
		}
	}
	// Reductions: iterate phases in canonical order (map order is random).
	for _, ph := range partition.Phases {
		reds := op.Reductions[ph]
		b = binary.AppendUvarint(b, uint64(len(reds)))
		for _, r := range reds {
			b = binary.AppendVarint(b, int64(r.Result))
			b = binary.AppendUvarint(b, uint64(len(r.Over)))
			for _, ax := range r.Over {
				b = binary.AppendVarint(b, int64(ax))
			}
		}
	}
	b = binary.AppendUvarint(b, uint64(len(op.Stash)))
	for _, ti := range op.Stash {
		b = binary.AppendVarint(b, int64(ti))
	}
	b = binary.AppendVarint(b, int64(op.OutputTensor))
	return b
}

// opSig returns op's full structural signature as a map-key string.
func opSig(op *graph.Op) string { return string(appendOpSig(nil, op)) }

// sigInterner assigns dense identities to exact byte signatures within one
// search. The zero value is ready; not safe for concurrent use.
type sigInterner struct {
	ids map[string]int32
	buf []byte
}

func (in *sigInterner) intern(key []byte) int32 {
	if id, ok := in.ids[string(key)]; ok {
		return id
	}
	if in.ids == nil {
		in.ids = make(map[string]int32)
	}
	id := int32(len(in.ids))
	in.ids[string(key)] = id
	return id
}

// fullID returns the dense identity of op's full signature.
func (in *sigInterner) fullID(op *graph.Op) int32 {
	in.buf = appendOpSig(in.buf[:0], op)
	return in.intern(in.buf)
}

// spaceID returns the dense identity of op's candidate-space shape.
func (in *sigInterner) spaceID(op *graph.Op) int32 {
	// Prefix the space encoding with a tag byte so space and full
	// signatures can never alias inside one interner.
	in.buf = append(in.buf[:0], 's')
	in.buf = appendSpaceSig(in.buf, op)
	return in.intern(in.buf)
}

// edgeMatKey identifies structurally identical edges so their (P1×P2) cost
// matrices are computed once (the two QKV→QKᵀ edges, the residual
// hand-offs, ...). Comparison is componentwise-exact.
type edgeMatKey struct {
	srcSpace, dstSpace int32
	// srcPrune/dstPrune are the full endpoint signatures when beam pruning
	// is active (the kept subsets depend on them), -1 otherwise.
	srcPrune, dstPrune int32
	// sel encodes the source output-tensor axes, the destination tensor's
	// axes, and the edge's axis map — everything PlanEdge reads beyond the
	// space shapes.
	sel string
}

// edgeKeyOf builds the cache key of edge e. pruned must be true whenever
// candidate spaces were beam-pruned before edge building.
func edgeKeyOf(in *sigInterner, g *graph.Graph, e *graph.Edge, pruned bool) edgeMatKey {
	src, dst := g.Nodes[e.Src], g.Nodes[e.Dst]
	var buf []byte
	appendAxes := func(axes []int) {
		buf = binary.AppendUvarint(buf, uint64(len(axes)))
		for _, ax := range axes {
			buf = binary.AppendVarint(buf, int64(ax))
		}
	}
	appendAxes(src.Tensors[src.OutputTensor].Axes)
	appendAxes(dst.Tensors[e.DstTensor].Axes)
	appendAxes(e.AxisMap)
	k := edgeMatKey{
		srcSpace: in.spaceID(src),
		dstSpace: in.spaceID(dst),
		srcPrune: -1,
		dstPrune: -1,
		sel:      string(buf),
	}
	if pruned {
		k.srcPrune = in.fullID(src)
		k.dstPrune = in.fullID(dst)
	}
	return k
}
