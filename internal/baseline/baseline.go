// Package baseline implements the systems PrimePar is compared against:
//
//   - Megatron-LM (§6.1 evaluation protocol): hand-designed tensor
//     parallelism — column-parallel QKV/fc1, row-parallel proj/fc2, head
//     splits in attention, replicated norms/residuals — combined with data
//     parallelism across nodes. The evaluation enumerates every data-parallel
//     degree d and picks the best-performing configuration.
//
//   - An Alpa-style automatic searcher: PrimePar's own optimal DP restricted
//     to the conventional spatial-only partition space, the strongest
//     baseline expressible without the temporal dimension. The restriction
//     is a candidate mask on PrimePar's space (SpatialOnly), so both
//     searches share one prepared layer.
package baseline

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/partition"
)

// Megatron builds the Megatron-LM partition strategy for graph g (a model
// block or MLP built by internal/model) with 2^dBits-way data parallelism on
// the outermost device bits and 2^(nbits-dBits)-way tensor (model)
// parallelism on the rest. Tensor-parallel bits are left unused on
// replicated operators (norm, residual, activation), exactly as Megatron
// replicates those computations within a tensor-parallel group.
func Megatron(g *graph.Graph, nbits, dBits int) ([]partition.Seq, error) {
	if dBits < 0 || dBits > nbits {
		return nil, fmt.Errorf("baseline: dBits %d out of range [0,%d]", dBits, nbits)
	}
	mBits := nbits - dBits
	seqs := make([]partition.Seq, len(g.Nodes))
	for i, op := range g.Nodes {
		var toks []partition.Token
		batchAxis := batchAxisOf(op)
		if batchAxis >= 0 {
			for b := 0; b < dBits; b++ {
				toks = append(toks, partition.Split(batchAxis))
			}
			if s := partition.NewSeq(toks...); s.NumSlices(batchAxis) > op.Axes[batchAxis].Size {
				return nil, fmt.Errorf("baseline: data parallelism 2^%d exceeds batch %d", dBits, op.Axes[batchAxis].Size)
			}
		}
		switch op.Kind {
		case graph.OpLinear:
			ax := model.LinK // column parallel (qkv, fc1)
			if rowParallel(op) {
				ax = model.LinN // row parallel (proj, fc2)
			}
			for b := 0; b < mBits; b++ {
				toks = append(toks, partition.Split(ax))
			}
		case graph.OpMatMul, graph.OpSoftmax:
			for b := 0; b < mBits; b++ {
				toks = append(toks, partition.Split(model.AttH))
			}
		case graph.OpElementwise:
			// The MLP activation runs on the column-split fc1 output:
			// its feature axis stays split within the TP group.
			for b := 0; b < mBits; b++ {
				toks = append(toks, partition.Split(2))
			}
		default:
			// Norm, add, identity: replicated within the tensor-parallel
			// group (bits left unused).
		}
		seq := partition.NewSeq(toks...)
		if err := seq.Validate(len(op.Axes), nbits); err != nil {
			return nil, fmt.Errorf("baseline: node %d (%s): %w", i, op.Name, err)
		}
		// Head splits must not exceed the head count.
		for ax := range op.Axes {
			if seq.NumSlices(ax) > op.Axes[ax].Size {
				return nil, fmt.Errorf("baseline: node %d (%s) axis %s over-split (%d > %d)",
					i, op.Name, op.Axes[ax].Name, seq.NumSlices(ax), op.Axes[ax].Size)
			}
		}
		seqs[i] = seq
	}
	return seqs, nil
}

// rowParallel reports whether a linear is the second of a Megatron
// column/row pair (the one whose forward output needs an all-reduce).
func rowParallel(op *graph.Op) bool {
	return op.Name == "proj" || op.Name == "fc2"
}

// batchAxisOf returns the index of the batch axis, or -1.
func batchAxisOf(op *graph.Op) int {
	for i, a := range op.Axes {
		if a.Name == "B" {
			return i
		}
	}
	return -1
}

// Result is an evaluated baseline configuration.
type Result struct {
	Seqs  []partition.Seq
	DBits int // data-parallel degree is 2^DBits
	// Cost is the per-layer cost under the shared cost model (Eq. 10).
	Cost float64
}

// BestMegatron enumerates all data-parallel degrees (the paper's §6.1
// protocol: "we enumerate all possible data parallelism size d ... and
// select the configuration that exhibits the best performance") and returns
// the best Megatron configuration under cost model m.
func BestMegatron(m *cost.Model, g *graph.Graph) (*Result, error) {
	nbits := m.Cluster.Bits()
	best := &Result{Cost: math.Inf(1), DBits: -1}
	for d := 0; d <= nbits; d++ {
		seqs, err := Megatron(g, nbits, d)
		if err != nil {
			continue // infeasible (batch or heads too small)
		}
		c := m.Overall(g, seqs)
		if c < best.Cost {
			best = &Result{Seqs: seqs, DBits: d, Cost: c}
		}
	}
	if best.DBits < 0 {
		return nil, fmt.Errorf("baseline: no feasible Megatron configuration on %d devices", m.Cluster.NumDevices)
	}
	return best, nil
}

// SpatialOnly is the candidate mask of the spatial-only space: every
// sequence without a Prime token (core.PlanRequest.Keep).
func SpatialOnly(_ int, s partition.Seq) bool { return !s.HasPrime() }

// Alpa searches the spatial-only partition space with PrimePar's optimal DP
// — the automatic-parallelization baseline. It returns the per-node
// strategy of a representative layer.
func Alpa(m *cost.Model, g *graph.Graph, layers int) (*core.Strategy, error) {
	o := core.NewOptimizer(m)
	return o.Plan(context.Background(), core.PlanRequest{Graph: g, Layers: layers, Keep: SpatialOnly})
}

// PrimePar runs the full spatial-temporal search (for symmetry with the
// baselines).
func PrimePar(m *cost.Model, g *graph.Graph, layers int) (*core.Strategy, error) {
	o := core.NewOptimizer(m)
	return o.Plan(context.Background(), core.PlanRequest{Graph: g, Layers: layers})
}
