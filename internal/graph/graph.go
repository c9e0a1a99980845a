// Package graph models the computation graph the optimizer partitions:
// operators with named axes, the tensors they touch, per-phase reductions
// (which determine all-reduce requirements), and edges carrying tensors
// between operators (which determine redistribution requirements, paper
// §4.2). The transformer-block builder lives in internal/model.
package graph

import (
	"fmt"

	"repro/internal/partition"
)

// Axis is one dimension of an operator.
type Axis struct {
	Name string
	Size int
	// Splittable marks axes the partitioner may cut. The paper excludes
	// the attention head-embed axis and the softmax axis (§3.2).
	Splittable bool
}

// TensorKind classifies an operator's tensors for memory accounting.
type TensorKind int

const (
	// Input tensors arrive over graph edges (activations).
	Input TensorKind = iota
	// Weight tensors are trainable parameters resident on the device.
	Weight
	// Output tensors are produced by the operator.
	Output
)

// Tensor describes one tensor of an operator as a subset of its axes.
type Tensor struct {
	Name string
	Kind TensorKind
	// Axes are indices into the operator's Axes list, outermost first.
	Axes []int
}

// Reduction records that computing phase results requires summing over the
// Over axes; partial results have the shape of tensor Result. SplitDim
// partitions of any axis in Over force an all-reduce of the Result block
// (paper §2.2); Prime partitions accumulate locally (Feature 1).
type Reduction struct {
	Over   []int
	Result int // tensor index
}

// OpKind classifies operators (used for calibration grouping and display).
type OpKind int

const (
	OpIdentity OpKind = iota
	OpLinear
	OpMatMul
	OpSoftmax
	OpNorm
	OpElementwise
	OpAdd
	OpEmbedding
)

func (k OpKind) String() string {
	switch k {
	case OpIdentity:
		return "identity"
	case OpLinear:
		return "linear"
	case OpMatMul:
		return "matmul"
	case OpSoftmax:
		return "softmax"
	case OpNorm:
		return "norm"
	case OpElementwise:
		return "elementwise"
	case OpAdd:
		return "add"
	case OpEmbedding:
		return "embedding"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Op is one operator (node) of the computation graph.
type Op struct {
	Name string
	Kind OpKind
	Axes []Axis

	Tensors []Tensor

	// Reductions lists, per phase, the sums the phase performs.
	Reductions map[partition.Phase][]Reduction

	// PrimeM, PrimeN, PrimeK are the axes playing the matmul roles for
	// the P_{2^k×2^k} primitive, or -1 when the primitive does not apply
	// (non-matmul ops, or matmuls whose role axes are unsplittable).
	PrimeM, PrimeN, PrimeK int

	// FlopFactor scales the axis-size product into FLOPs: 2 for matmul
	// (multiply+add), ~1–10 for element-wise/softmax/norm kernels.
	FlopFactor float64

	// Stash lists tensor indices saved at Forward for reuse in Backward
	// or Gradient (activation memory).
	Stash []int

	// OutputTensor is the index of the tensor flowing to consumers.
	OutputTensor int
}

// PrimeApplicable reports whether the spatial-temporal primitive can be used
// on this operator: it needs matmul role axes that are all splittable.
func (o *Op) PrimeApplicable() bool {
	if o.PrimeM < 0 || o.PrimeN < 0 || o.PrimeK < 0 {
		return false
	}
	return o.Axes[o.PrimeM].Splittable && o.Axes[o.PrimeN].Splittable && o.Axes[o.PrimeK].Splittable
}

// Volume returns the product of all axis sizes.
func (o *Op) Volume() float64 {
	v := 1.0
	for _, a := range o.Axes {
		v *= float64(a.Size)
	}
	return v
}

// Flops returns the total floating point operations of one phase of the
// unpartitioned operator.
func (o *Op) Flops() float64 { return float64(o.FlopFactor * o.Volume()) }

// TensorElems returns the element count of tensor i.
func (o *Op) TensorElems(i int) float64 {
	v := 1.0
	for _, ax := range o.Tensors[i].Axes {
		v *= float64(o.Axes[ax].Size)
	}
	return v
}

// TotalElems returns the summed element count of all tensors (memory-access
// proxy for the compute-latency model).
func (o *Op) TotalElems() float64 {
	v := 0.0
	for i := range o.Tensors {
		v += o.TensorElems(i)
	}
	return v
}

// WeightElems returns the summed element count of parameter tensors.
func (o *Op) WeightElems() float64 {
	v := 0.0
	for i, t := range o.Tensors {
		if t.Kind == Weight {
			v += o.TensorElems(i)
		}
	}
	return v
}

// StashElems returns the summed element count of stashed activations.
func (o *Op) StashElems() float64 {
	v := 0.0
	for _, i := range o.Stash {
		v += o.TensorElems(i)
	}
	return v
}

// AxisNames returns the operator's axis names (for Seq.Format).
func (o *Op) AxisNames() []string {
	names := make([]string, len(o.Axes))
	for i, a := range o.Axes {
		names[i] = a.Name
	}
	return names
}

// Validate checks internal consistency of the operator definition.
func (o *Op) Validate() error {
	for ti, t := range o.Tensors {
		for _, ax := range t.Axes {
			if ax < 0 || ax >= len(o.Axes) {
				return fmt.Errorf("graph: op %q tensor %d references axis %d of %d", o.Name, ti, ax, len(o.Axes))
			}
		}
	}
	if o.OutputTensor < 0 || o.OutputTensor >= len(o.Tensors) {
		return fmt.Errorf("graph: op %q output tensor %d out of range", o.Name, o.OutputTensor)
	}
	for ph, reds := range o.Reductions {
		for _, r := range reds {
			if r.Result < 0 || r.Result >= len(o.Tensors) {
				return fmt.Errorf("graph: op %q phase %v reduction result %d out of range", o.Name, ph, r.Result)
			}
			for _, ax := range r.Over {
				if ax < 0 || ax >= len(o.Axes) {
					return fmt.Errorf("graph: op %q phase %v reduces axis %d of %d", o.Name, ph, ax, len(o.Axes))
				}
			}
		}
	}
	return nil
}

// Edge carries the Src operator's output tensor into the Dst operator's
// DstTensor input. AxisMap[i] gives, for axis i of the destination tensor,
// the corresponding SOURCE OP axis, or -1 when the destination axis has no
// counterpart (e.g. a head-embed axis unpacked from a flattened hidden axis;
// such axes are never split, so a producer block always covers them fully).
type Edge struct {
	Src, Dst  int
	DstTensor int
	AxisMap   []int
}

// Graph is a directed acyclic computation graph with nodes in topological
// order (edges always point from lower to higher index).
type Graph struct {
	Name  string
	Nodes []*Op
	Edges []*Edge
}

// AddNode appends an operator and returns its index.
func (g *Graph) AddNode(op *Op) int {
	g.Nodes = append(g.Nodes, op)
	return len(g.Nodes) - 1
}

// Connect adds an edge from src's output tensor into dst's input tensor
// dstTensor, with the given destination-axis → source-axis map.
func (g *Graph) Connect(src, dst, dstTensor int, axisMap []int) *Edge {
	e := &Edge{Src: src, Dst: dst, DstTensor: dstTensor, AxisMap: axisMap}
	g.Edges = append(g.Edges, e)
	return e
}

// Validate checks the whole graph: node validity, topological edge order,
// axis-map consistency, and size agreement between mapped axes.
func (g *Graph) Validate() error {
	for i, op := range g.Nodes {
		if err := op.Validate(); err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
	}
	for _, e := range g.Edges {
		if e.Src < 0 || e.Src >= len(g.Nodes) || e.Dst < 0 || e.Dst >= len(g.Nodes) {
			return fmt.Errorf("graph: edge %d→%d out of range", e.Src, e.Dst)
		}
		if e.Src >= e.Dst {
			return fmt.Errorf("graph: edge %d→%d is not topological", e.Src, e.Dst)
		}
		src, dst := g.Nodes[e.Src], g.Nodes[e.Dst]
		if e.DstTensor < 0 || e.DstTensor >= len(dst.Tensors) {
			return fmt.Errorf("graph: edge %d→%d destination tensor %d out of range", e.Src, e.Dst, e.DstTensor)
		}
		dt := dst.Tensors[e.DstTensor]
		if len(e.AxisMap) != len(dt.Axes) {
			return fmt.Errorf("graph: edge %s→%s axis map has %d entries for a %d-axis tensor",
				src.Name, dst.Name, len(e.AxisMap), len(dt.Axes))
		}
		for i, sa := range e.AxisMap {
			if sa == -1 {
				continue
			}
			if sa < 0 || sa >= len(src.Axes) {
				return fmt.Errorf("graph: edge %s→%s maps to source axis %d of %d", src.Name, dst.Name, sa, len(src.Axes))
			}
			_ = i
		}
	}
	return nil
}

// InEdges returns the edges arriving at node i.
func (g *Graph) InEdges(i int) []*Edge {
	var out []*Edge
	for _, e := range g.Edges {
		if e.Dst == i {
			out = append(out, e)
		}
	}
	return out
}

// OutEdges returns the edges leaving node i.
func (g *Graph) OutEdges(i int) []*Edge {
	var out []*Edge
	for _, e := range g.Edges {
		if e.Src == i {
			out = append(out, e)
		}
	}
	return out
}

// IsExtended reports whether the edge skips over intermediate nodes.
func (e *Edge) IsExtended() bool { return e.Dst > e.Src+1 }

// SegmentCuts computes the segmented-DP cut points (paper §5.1): a cut at
// node 0, at the source of every extended edge, and at the last node. The
// returned indices are sorted and unique. Dynamic programming within each
// segment [cuts[i], cuts[i+1]] never violates Assumptions 1–2.
func (g *Graph) SegmentCuts() []int {
	isCut := make([]bool, len(g.Nodes))
	isCut[0] = true
	isCut[len(g.Nodes)-1] = true
	for _, e := range g.Edges {
		if e.IsExtended() {
			isCut[e.Src] = true
		}
	}
	var cuts []int
	for i, c := range isCut {
		if c {
			cuts = append(cuts, i)
		}
	}
	return cuts
}

// CheckSegmentAssumptions verifies that the segmented DP prices every
// extended edge: the edge must start at the last cut before its
// destination, so that segment's Bellman steps price it (Eq. 12), or start
// at node 0 and end at a cut, so the merge that closes the segment ending
// there prices it as a cross edge (Eqs. 13–14). Any other extended edge,
// such as 2→6 on the cuts {0, 2, 4, 6}, no composition prices. Returns an
// error naming the first offender.
func (g *Graph) CheckSegmentAssumptions() error {
	cuts := g.SegmentCuts()
	isCut := make([]bool, len(g.Nodes))
	for _, c := range cuts {
		isCut[c] = true
	}
	// head[i]: the last cut before node i.
	head := make([]int, len(g.Nodes))
	for i := 1; i < len(g.Nodes); i++ {
		head[i] = head[i-1]
		if isCut[i-1] {
			head[i] = i - 1
		}
	}
	for _, e := range g.Edges {
		if !e.IsExtended() || e.Src == head[e.Dst] || (e.Src == 0 && isCut[e.Dst]) {
			continue
		}
		return fmt.Errorf("graph: extended edge %d→%d is priced by no segment step or merge: it starts neither at node 0 nor at the last cut before node %d (%d)",
			e.Src, e.Dst, e.Dst, head[e.Dst])
	}
	return nil
}
