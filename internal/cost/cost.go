// Package cost implements PrimePar's cost model (paper §4): the
// intra-operator cost of Eq. 7 (per-step compute overlapped with ring
// communication, plus all-reduce and an α-weighted memory term), the
// inter-operator redistribution cost of Eqs. 8–9, and the overall model cost
// of Eq. 10.
//
// All latencies derive from the device.Cluster latency models, playing the
// role of the paper's profiled-and-regressed linear functions (see
// internal/calibrate for the regression against the simulator).
package cost

import (
	"fmt"
	"math/bits"

	"repro/internal/calibrate"
	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/partition"
)

// Model evaluates partition strategies on a concrete cluster.
type Model struct {
	Cluster *device.Cluster

	// Alpha is the latency↔memory adjustment coefficient of Eq. 7,
	// in seconds per byte of per-device peak memory.
	Alpha float64

	// Overlap enables overlapping ring communication with computation
	// (paper §3.3). Disabling it is the AblationNoOverlap experiment.
	Overlap bool

	// ParamBytesPerElement is the total training-state footprint per
	// weight element in units of Profile.ElementBytes: fp16 param+grad and
	// fp32 master+Adam moments give 16 bytes/param = 8 × 2-byte elements.
	ParamBytesPerElement float64

	// ZeRO1 shards the optimizer-state portion of the training state
	// across each weight's replica (data-parallel) group, as ZeRO stage 1
	// does — the paper's related-work extension. Parameters and gradients
	// stay replicated; an all-gather of updated parameters per iteration
	// is charged by the simulator.
	ZeRO1 bool

	// Book, when set, replaces the analytic latency formulas with the
	// profiled-and-regressed models of the paper's §4 calibration
	// methodology (see internal/calibrate.Profile).
	Book *calibrate.Book
}

// OptimizerStateShare is the portion of ParamBytesPerElement that is
// optimizer state (fp32 master + Adam moments = 12 of the 16 bytes/param =
// 6 of the 8 element units). ZeRO stage 1 shards exactly this portion.
const OptimizerStateShare = 6.0

// NewModel returns a cost model with the paper's defaults.
func NewModel(c *device.Cluster) *Model {
	return &Model{
		Cluster:              c,
		Alpha:                0,
		Overlap:              true,
		ParamBytesPerElement: 8,
	}
}

// Intra is the decomposed intra-operator cost of one training iteration of
// one operator (all three phases).
type Intra struct {
	// Compute is the summed computation latency of all temporal steps.
	Compute float64
	// RingTotal is the summed ring-communication latency (overlappable).
	RingTotal float64
	// StepSum is Σ_t max(compute_t, ring_t) (or the sum when overlap is
	// disabled) — the first term of Eq. 7.
	StepSum float64
	// AllReduce is the collective-communication latency.
	AllReduce float64
	// MemoryBytes is the per-device peak memory contribution: weights and
	// optimizer state, stashed activations, and Prime double buffers.
	MemoryBytes float64
}

// Exposed returns the ring latency not hidden behind computation.
func (ic Intra) Exposed() float64 { return ic.StepSum - ic.Compute }

// Latency returns the operator's latency contribution (no memory term).
func (ic Intra) Latency() float64 { return ic.StepSum + ic.AllReduce }

// Total folds the memory term in with weight alpha (Eq. 7). The explicit
// float64 conversion rounds the product on its own, so no target fuses it
// into a multiply-add; every digest-fed product in the cost model, DP,
// simulator and planner is written this way (CI checks arm64).
func (ic Intra) Total(alpha float64) float64 { return ic.Latency() + float64(alpha*ic.MemoryBytes) }

// phaseApplicable reports whether op executes the given phase at all.
func phaseApplicable(op *graph.Op, ph partition.Phase) bool {
	switch ph {
	case partition.Forward:
		return op.FlopFactor > 0 || len(op.Tensors) > 0
	case partition.Backward:
		for _, t := range op.Tensors {
			if t.Kind == graph.Input {
				return true
			}
		}
		return false
	case partition.Gradient:
		if len(op.Reductions[partition.Gradient]) > 0 {
			return true
		}
		return op.WeightElems() > 0
	}
	return false
}

// BlockElems returns the per-device element count of tensor ti under seq.
func BlockElems(op *graph.Op, seq partition.Seq, ti int) float64 {
	elems := op.TensorElems(ti)
	for _, ax := range op.Tensors[ti].Axes {
		elems /= float64(seq.NumSlices(ax))
	}
	return elems
}

// blockElems is the internal alias of BlockElems.
func blockElems(op *graph.Op, seq partition.Seq, ti int) float64 {
	return BlockElems(op, seq, ti)
}

// SliceProduct returns the total number of sub-blocks the operator's full
// iteration space is divided into (across space AND time).
func SliceProduct(op *graph.Op, seq partition.Seq) float64 {
	p := 1.0
	for ax := range op.Axes {
		p *= float64(seq.NumSlices(ax))
	}
	return p
}

// sliceProduct is the internal alias of SliceProduct.
func sliceProduct(op *graph.Op, seq partition.Seq) float64 {
	return SliceProduct(op, seq)
}

// VaryingAxis returns the operator axis whose DSI varies with the temporal
// step of a Prime token in the given phase: N in Forward, K in Backward,
// M in Gradient (Eqs. 4–6).
func VaryingAxis(tok partition.Token, ph partition.Phase) int {
	switch ph {
	case partition.Forward:
		return tok.NDim
	case partition.Backward:
		return tok.KDim
	default:
		return tok.MDim
	}
}

// varyingAxis is the internal alias of VaryingAxis.
func varyingAxis(tok partition.Token, ph partition.Phase) int {
	return VaryingAxis(tok, ph)
}

// PhaseApplicable reports whether op executes the given phase at all.
func PhaseApplicable(op *graph.Op, ph partition.Phase) bool {
	return phaseApplicable(op, ph)
}

// IntraCost evaluates Eq. 7's components for operator op under sequence seq.
func (m *Model) IntraCost(op *graph.Op, seq partition.Seq) Intra {
	cl := m.Cluster
	eb := cl.Profile.ElementBytes
	steps := seq.Steps()
	var out Intra

	// Pure placeholders (graph anchors) compute and store nothing; their
	// tensors belong to the real producer.
	if op.FlopFactor == 0 && op.WeightElems() == 0 && len(op.Stash) == 0 {
		return out
	}

	// Per-step, per-device compute work: the operator's volume divided by
	// the total spatial-temporal slicing (sliceProduct counts the temporal
	// slicing too, so total/slices is per device per step directly).
	slices := sliceProduct(op, seq)
	perStepFlops := op.Flops() / slices
	var perStepBytes float64
	for ti := range op.Tensors {
		perStepBytes += float64(blockElems(op, seq, ti) * eb)
	}

	primeBits := seq.PrimeBitPositions()
	var primeToks []partition.Token
	for _, tok := range seq.Tokens {
		if tok.Kind == partition.Prime {
			primeToks = append(primeToks, tok)
		}
	}

	for _, ph := range partition.Phases {
		if !phaseApplicable(op, ph) {
			continue
		}
		computeStep := cl.ComputeTime(perStepFlops, perStepBytes)
		if m.Book != nil {
			computeStep = m.Book.ComputeTime(perStepFlops, perStepBytes)
		}

		// Ring communication per step: every Prime token moves the
		// tensors containing its phase-varying axis (Table 1).
		ringStep := 0.0
		for pi, tok := range primeToks {
			vAxis := varyingAxis(tok, ph)
			bytes := 0.0
			for ti, t := range op.Tensors {
				for _, ax := range t.Axes {
					if ax == vAxis {
						bytes += float64(blockElems(op, seq, ti) * eb)
						break
					}
				}
			}
			if m.Book != nil {
				ringStep += m.Book.RingStepTime(cl, device.Indicator(primeBits[pi]), bytes)
			} else {
				ringStep += cl.RingStepTime(device.Indicator(primeBits[pi]), bytes)
			}
		}

		out.Compute += float64(float64(steps) * computeStep)
		out.RingTotal += float64(float64(steps) * ringStep)
		if m.Overlap {
			step := computeStep
			if ringStep > step {
				step = ringStep
			}
			out.StepSum += float64(float64(steps) * step)
		} else {
			out.StepSum += float64(float64(steps) * (computeStep + ringStep))
		}

		// All-reduce for every reduction whose summed axes are split
		// spatially (partition-by-dimension); Prime needs none
		// (Feature 1).
		for _, red := range op.Reductions[ph] {
			bits := seq.SplitBitsFor(red.Over)
			if len(bits) == 0 {
				continue
			}
			bytes := blockElems(op, seq, red.Result) * eb
			if m.Book != nil {
				out.AllReduce += m.Book.AllReduceTime(cl, device.Indicator(bits), bytes)
			} else {
				out.AllReduce += cl.AllReduceTime(device.Indicator(bits), bytes)
			}
		}
	}

	// Memory: weights (with optimizer state), stashed activations, the
	// materialized output block (a replicated output — the Fig. 3 waste —
	// shows up here as an unsliced block), and Prime double buffers.
	for ti, t := range op.Tensors {
		switch t.Kind {
		case graph.Weight:
			mult := m.ParamBytesPerElement
			if m.ZeRO1 {
				repl := weightReplication(op, seq, ti, cl.Bits())
				mult = (m.ParamBytesPerElement - OptimizerStateShare) + OptimizerStateShare/repl
			}
			out.MemoryBytes += float64(blockElems(op, seq, ti) * eb * mult)
		case graph.Output:
			out.MemoryBytes += float64(blockElems(op, seq, ti) * eb)
		}
	}
	for _, ti := range op.Stash {
		out.MemoryBytes += float64(blockElems(op, seq, ti) * eb)
	}
	if len(primeToks) > 0 {
		// Double buffers hold the next step's incoming blocks; the peak is
		// the worst phase's set of moving tensors.
		worst := 0.0
		for _, ph := range partition.Phases {
			phaseBytes := 0.0
			for _, tok := range primeToks {
				vAxis := varyingAxis(tok, ph)
				for ti, t := range op.Tensors {
					for _, ax := range t.Axes {
						if ax == vAxis {
							phaseBytes += float64(blockElems(op, seq, ti) * eb)
							break
						}
					}
				}
			}
			if phaseBytes > worst {
				worst = phaseBytes
			}
		}
		out.MemoryBytes += worst
	}
	return out
}

// WeightReplication returns how many devices hold identical copies of
// tensor ti — the size of its data-parallel (replica) group.
func WeightReplication(op *graph.Op, seq partition.Seq, ti, nbits int) float64 {
	return weightReplication(op, seq, ti, nbits)
}

func weightReplication(op *graph.Op, seq partition.Seq, ti, nbits int) float64 {
	return float64(int(1) << len(seq.ReplicaBits(op.Tensors[ti].Axes, nbits)))
}

// Iface captures one side of a producer→consumer tensor hand-off: for every
// device and every OP axis, the fractional interval of that axis the device
// holds (forward: activations; backward: gradients). Fractions make the
// intersection arithmetic exact across flattened-axis correspondences since
// all slice counts are powers of two (Eq. 8 in normalized coordinates).
type Iface struct {
	// NumAxes is the operator's axis count (the row stride of Fwd/Bwd).
	NumAxes int
	// Fwd and Bwd hold interval starts, indexed [dev*NumAxes + axis];
	// Width[axis] is the uniform interval width = 1/slices(axis).
	Fwd   []float64
	Bwd   []float64
	Width []float64
}

// OutputIface evaluates the producer-side interface of op under seq: output
// distribution at the last Forward step, and the dOutput distribution
// expected at the first Backward step.
func (m *Model) OutputIface(op *graph.Op, seq partition.Seq) *Iface {
	return m.iface(op, seq, s(-1), s(0))
}

// InputIface evaluates the consumer-side interface: input distribution
// needed at the first Forward step, and dInput distribution produced at the
// last Backward step.
func (m *Model) InputIface(op *graph.Op, seq partition.Seq) *Iface {
	return m.iface(op, seq, s(0), s(-1))
}

// SpacePatterns returns NewPatterns of op's output (out) or input
// interfaces under every sequence of seqs, bit for bit — the same ids in
// the same first-seen order, the same widths and starts — without building
// the interfaces.
//
// A sequence's pattern in one slot (axis, pass) is a pure function of its
// projection onto the axis: the tokens that touch the axis, in order, each
// with its kind or Prime role, its first bit position and its order K
// (Seq.SliceIndicesInto reads nothing else of them, and NumSlices gives the
// width). A slot reads one fixed step, the first or the last, at which
// every Prime token's temporal index is 0 or 2^K − 1, so the slot fixes it.
// So each distinct projection computes its per-device starts once, and
// they are interned by exact bytes as NewPatterns does; a sequence whose
// projection was met before takes that projection's ids.
//
// The projection key is exact: per bit position, a code naming the token
// that starts there (0 none, 1 split, then 3K−1+role for a Prime token of
// order K ≤ nbits/2, as Seq.Validate requires). The codes of every position
// pack into 64 bits up to 12 ID bits; NewCluster builds at most 10
// (device.MaxDevices), which take 50.
func (m *Model) SpacePatterns(op *graph.Op, seqs []partition.Seq, out bool) *Patterns {
	nbits := m.Cluster.Bits()
	codeBits := bits.Len(uint(3*(nbits/2) + 1))
	if nbits*codeBits > 64 {
		panic(fmt.Sprintf("cost: %d device-ID bits overflow a projection key", nbits))
	}
	devs, na := m.Cluster.NumDevices, len(op.Axes)
	b := newPatternBuilder(len(seqs), na, devs)
	// proj[ax] maps a projection key to its forward and backward ids.
	proj := make([]map[uint64][2]int32, na)
	for ax := range proj {
		proj[ax] = make(map[uint64][2]int32)
	}
	keys := make([]uint64, na)
	// dsi[(pass*devs+dev)*na+ax] is the current sequence's DSI in each pass.
	dsi := make([]int, 2*devs*na)
	st := make([]float64, devs)
	for i, seq := range seqs {
		clear(keys)
		pos := 0
		for _, tok := range seq.Tokens {
			sh := uint(pos * codeBits)
			switch tok.Kind {
			case partition.SplitDim:
				keys[tok.Dim] |= 1 << sh
			case partition.Prime:
				c := uint64(3*tok.K - 1)
				keys[tok.MDim] |= c << sh
				keys[tok.NDim] |= (c + 1) << sh
				keys[tok.KDim] |= (c + 2) << sh
			}
			pos += tok.Bits()
		}
		swept := false
		for ax, k := range keys {
			ids, ok := proj[ax][k]
			if !ok {
				if !swept {
					m.sweepDSI(dsi, seq, out)
					swept = true
				}
				w := 1 / float64(seq.NumSlices(ax))
				for pass := range ids {
					for dev := range st {
						st[dev] = float64(dsi[(pass*devs+dev)*na+ax]) * w
					}
					ids[pass] = b.intern(2*ax+pass, w, st)
				}
				proj[ax][k] = ids
			}
			b.ids[(i*na+ax)*2], b.ids[(i*na+ax)*2+1] = ids[0], ids[1]
		}
	}
	return b.finish()
}

// sweepDSI writes every device's DSIs under seq into dsi, the forward pass
// then the backward pass, at the steps OutputIface (out) or InputIface
// reads.
func (m *Model) sweepDSI(dsi []int, seq partition.Seq, out bool) {
	devs, nbits := m.Cluster.NumDevices, m.Cluster.Bits()
	na := len(dsi) / (2 * devs)
	ts := make([]int, len(seq.Tokens))
	for pass, ph := range [2]partition.Phase{partition.Forward, partition.Backward} {
		step := 0
		if (pass == 0) == out {
			step = seq.Steps() - 1
		}
		seq.TemporalTupleInto(ts, step)
		for dev := 0; dev < devs; dev++ {
			seq.SliceIndicesInto(dsi[(pass*devs+dev)*na:][:na], ts, ph, nbits, dev)
		}
	}
}

type s int // step selector, -1 = last

func (m *Model) iface(op *graph.Op, seq partition.Seq, fwdStep, bwdStep s) *Iface {
	n := m.Cluster.NumDevices
	nbits := m.Cluster.Bits()
	numDims := len(op.Axes)
	ifc := &Iface{
		NumAxes: numDims,
		Fwd:     make([]float64, n*numDims),
		Bwd:     make([]float64, n*numDims),
		Width:   make([]float64, numDims),
	}
	for ax := range ifc.Width {
		ifc.Width[ax] = 1 / float64(seq.NumSlices(ax))
	}
	// Each pass computes its temporal tuple once; every device's DSIs land
	// in one reused buffer.
	dsi := make([]int, numDims)
	ts := make([]int, len(seq.Tokens))
	for _, pass := range [...]struct {
		ph    partition.Phase
		step  s
		start []float64
	}{{partition.Forward, fwdStep, ifc.Fwd}, {partition.Backward, bwdStep, ifc.Bwd}} {
		step := int(pass.step)
		if step < 0 {
			step += seq.Steps()
		}
		seq.TemporalTupleInto(ts, step)
		for dev := 0; dev < n; dev++ {
			seq.SliceIndicesInto(dsi, ts, pass.ph, nbits, dev)
			row := pass.start[dev*numDims:][:numDims]
			for ax, v := range dsi {
				row[ax] = float64(v) * ifc.Width[ax]
			}
		}
	}
	return ifc
}

// overlapFrac returns |[a,a+wa) ∩ [b,b+wb)| / wNeed.
func overlapFrac(a, wa, b, wb, wNeed float64) float64 {
	lo := a
	if b > lo {
		lo = b
	}
	hi := a + wa
	if b+wb < hi {
		hi = b + wb
	}
	if hi <= lo {
		return 0
	}
	return (hi - lo) / wNeed
}

// Traffic decomposes one edge's redistribution bytes by pass direction and
// source locality. Missing blocks available on same-node producers ride
// NVLink; the rest crosses the inter-node fabric.
type Traffic struct {
	FwdIntra, FwdInter float64
	BwdIntra, BwdInter float64
}

// Total sums all four components.
func (t Traffic) Total() float64 {
	return t.FwdIntra + t.FwdInter + t.BwdIntra + t.BwdInter
}

// EdgePlan precomputes the axis pairings of one graph edge so redistribution
// traffic can be evaluated for millions of strategy pairs cheaply.
type EdgePlan struct {
	devices int
	perNode int
	eb      float64

	dstFull float64 // consumer input tensor elements
	srcFull float64 // producer output tensor elements

	// Forward pairing: for each destination tensor axis, the destination
	// OP axis and the mapped source OP axis (-1 = derived, always covered).
	fwdDst []int
	fwdSrc []int
	// Backward pairing: for each source output tensor axis, the source OP
	// axis and the mapped destination OP axis (-1 = covered).
	bwdSrc []int
	bwdDst []int
}

// dedupAxes collects the non-negative axes of the given lists in first-seen
// order.
func dedupAxes(lists ...[]int) []int {
	seen := map[int]bool{}
	var out []int
	for _, l := range lists {
		for _, ax := range l {
			if ax >= 0 && !seen[ax] {
				seen[ax] = true
				out = append(out, ax)
			}
		}
	}
	return out
}

// SrcRelevantAxes returns the producer-op axes that influence this edge's
// traffic (mapped forward axes plus the output tensor's axes). Candidates
// identical on these axes produce identical matrix rows.
func (p *EdgePlan) SrcRelevantAxes() []int { return dedupAxes(p.fwdSrc, p.bwdSrc) }

// DstRelevantAxes returns the consumer-op axes that influence this edge's
// traffic.
func (p *EdgePlan) DstRelevantAxes() []int { return dedupAxes(p.fwdDst, p.bwdDst) }

// PlanEdge builds the traffic-evaluation plan for edge e of g.
func (m *Model) PlanEdge(g *graph.Graph, e *graph.Edge) *EdgePlan {
	srcOp, dstOp := g.Nodes[e.Src], g.Nodes[e.Dst]
	dstTensor := dstOp.Tensors[e.DstTensor]
	srcTensor := srcOp.Tensors[srcOp.OutputTensor]
	p := &EdgePlan{
		devices: m.Cluster.NumDevices,
		perNode: m.Cluster.DevicesPerNode,
		eb:      m.Cluster.Profile.ElementBytes,
		dstFull: dstOp.TensorElems(e.DstTensor),
		srcFull: srcOp.TensorElems(srcOp.OutputTensor),
	}
	revMap := make(map[int]int)
	for i, sa := range e.AxisMap {
		p.fwdDst = append(p.fwdDst, dstTensor.Axes[i])
		p.fwdSrc = append(p.fwdSrc, sa)
		if sa >= 0 {
			revMap[sa] = dstTensor.Axes[i]
		}
	}
	for _, sa := range srcTensor.Axes {
		p.bwdSrc = append(p.bwdSrc, sa)
		if dax, ok := revMap[sa]; ok {
			p.bwdDst = append(p.bwdDst, dax)
		} else {
			p.bwdDst = append(p.bwdDst, -1)
		}
	}
	return p
}

// fwdCov returns how much of consumer `dst@dDev`'s input block the producer
// `src@sDev`'s output block covers (fraction of the consumer's need).
func (p *EdgePlan) fwdCov(src, dst *Iface, sDev, dDev int) float64 {
	so, do := sDev*src.NumAxes, dDev*dst.NumAxes
	cov := 1.0
	for i, dax := range p.fwdDst {
		sa := p.fwdSrc[i]
		if sa < 0 {
			continue
		}
		cov *= overlapFrac(
			src.Fwd[so+sa], src.Width[sa],
			dst.Fwd[do+dax], dst.Width[dax],
			dst.Width[dax])
		if cov == 0 {
			return 0
		}
	}
	return cov
}

// bwdCov returns how much of producer `src@sDev`'s dOutput block the
// consumer `dst@dDev`'s dInput block covers.
func (p *EdgePlan) bwdCov(src, dst *Iface, sDev, dDev int) float64 {
	so, do := sDev*src.NumAxes, dDev*dst.NumAxes
	cov := 1.0
	for i, sa := range p.bwdSrc {
		dax := p.bwdDst[i]
		if dax < 0 {
			continue
		}
		cov *= overlapFrac(
			dst.Bwd[do+dax], dst.Width[dax],
			src.Bwd[so+sa], src.Width[sa],
			src.Width[sa])
		if cov == 0 {
			return 0
		}
	}
	return cov
}

// Measure computes the edge's redistribution traffic (Eq. 9 and its
// backward mirror) with source locality: per device, the missing fraction of
// its block is first sourced from same-node peers (producer blocks of
// distinct slices are disjoint, so same-node coverages add), and only the
// remainder crosses nodes.
//
// The forward and backward directions depend on disjoint interface state
// (src.Fwd/dst.Fwd on the forward axis pairing vs src.Bwd/dst.Bwd on the
// backward pairing), which is what lets the optimizer evaluate them on
// separately-grouped, much smaller candidate classes (see core's factored
// edge-matrix build).
func (p *EdgePlan) Measure(src, dst *Iface) Traffic {
	var t Traffic
	t.FwdIntra, t.FwdInter = p.MeasureFwd(src, dst)
	t.BwdIntra, t.BwdInter = p.MeasureBwd(src, dst)
	return t
}

// MeasureFwd computes only the forward-direction redistribution traffic
// (intra-node bytes, inter-node bytes). The result depends on src only
// through Fwd/Width on the fwdSrc axes and on dst only through Fwd/Width on
// the fwdDst axes.
//
// Accumulation runs as a volume-free partial-sum tree: each node first folds
// its devices' intra/inter coverage FRACTIONS, the per-node totals fold in
// node order, and the moved volume multiplies in exactly once at the end.
// This is the canonical summation order of the cost model — EdgeCalc's
// node-factored evaluator reproduces it operand for operand, which is what
// keeps the two bit-identical; keeping the volume out of the fold is also
// what makes the fraction pair memoizable independently of tensor sizes
// (devices is assumed to be a multiple of perNode, as the cluster
// constructors guarantee).
func (p *EdgePlan) MeasureFwd(src, dst *Iface) (intraBytes, interBytes float64) {
	vDst := p.dstFull
	for _, dax := range p.fwdDst {
		vDst *= dst.Width[dax]
	}
	var totI, totE float64
	for nodeStart := 0; nodeStart < p.devices; nodeStart += p.perNode {
		var fi, fe float64
		for dev := nodeStart; dev < nodeStart+p.perNode; dev++ {
			// Forward: consumer dev fetches what its own block misses.
			covSelf := p.fwdCov(src, dst, dev, dev)
			if missing := 1 - covSelf; missing > 0 {
				covNode := covSelf
				for d2 := nodeStart; d2 < nodeStart+p.perNode && covNode < 1; d2++ {
					if d2 == dev {
						continue
					}
					covNode += p.fwdCov(src, dst, d2, dev)
				}
				if covNode > 1 {
					covNode = 1
				}
				intra := covNode - covSelf
				if intra > missing {
					intra = missing
				}
				fi += intra
				fe += missing - intra
			}
		}
		totI += fi
		totE += fe
	}
	return vDst * totI * p.eb, vDst * totE * p.eb
}

// MeasureBwd computes only the backward-direction redistribution traffic
// (intra-node bytes, inter-node bytes). The result depends on src only
// through Bwd/Width on the bwdSrc axes and on dst only through Bwd/Width on
// the bwdDst axes.
func (p *EdgePlan) MeasureBwd(src, dst *Iface) (intraBytes, interBytes float64) {
	vSrc := p.srcFull
	for _, sa := range p.bwdSrc {
		vSrc *= src.Width[sa]
	}
	var totI, totE float64
	for nodeStart := 0; nodeStart < p.devices; nodeStart += p.perNode {
		var fi, fe float64
		for dev := nodeStart; dev < nodeStart+p.perNode; dev++ {
			// Backward: producer dev fetches missing dOutput pieces.
			covSelf := p.bwdCov(src, dst, dev, dev)
			if missing := 1 - covSelf; missing > 0 {
				covNode := covSelf
				for d2 := nodeStart; d2 < nodeStart+p.perNode && covNode < 1; d2++ {
					if d2 == dev {
						continue
					}
					covNode += p.bwdCov(src, dst, dev, d2)
				}
				if covNode > 1 {
					covNode = 1
				}
				intra := covNode - covSelf
				if intra > missing {
					intra = missing
				}
				fi += intra
				fe += missing - intra
			}
		}
		totI += fi
		totE += fe
	}
	return vSrc * totI * p.eb, vSrc * totE * p.eb
}

// RedistributeDetail converts a locality-split Traffic into latency: the
// intra-node and inter-node shares flow concurrently over their respective
// fabrics, so the wall time is the slower of the two streams.
func (m *Model) RedistributeDetail(t Traffic) float64 {
	if t.Total() == 0 {
		return 0
	}
	cl := m.Cluster
	n := float64(cl.NumDevices)
	intra := (t.FwdIntra + t.BwdIntra) / n
	inter := (t.FwdInter + t.BwdInter) / n
	var ti, te float64
	if intra > 0 {
		bw, lat := cl.IntraLink()
		ti = intra/bw + lat
	}
	if inter > 0 {
		bw, lat := cl.InterLink()
		te = inter/bw + lat
	}
	if ti > te {
		return ti
	}
	return te
}

// InterCost is interC(n1, n2, 𝒫1, 𝒫2) of the paper: redistribution latency
// between two operators under their partition strategies.
func (m *Model) InterCost(g *graph.Graph, e *graph.Edge, seq1, seq2 partition.Seq) float64 {
	src := m.OutputIface(g.Nodes[e.Src], seq1)
	dst := m.InputIface(g.Nodes[e.Dst], seq2)
	return m.RedistributeDetail(m.PlanEdge(g, e).Measure(src, dst))
}

// Overall is Eq. 10: the summed intra- and inter-operator cost of the whole
// graph with node i partitioned by seqs[i].
func (m *Model) Overall(g *graph.Graph, seqs []partition.Seq) float64 {
	total := 0.0
	for i, op := range g.Nodes {
		total += m.IntraCost(op, seqs[i]).Total(m.Alpha)
	}
	for _, e := range g.Edges {
		total += m.InterCost(g, e, seqs[e.Src], seqs[e.Dst])
	}
	return total
}
