// Package sim is the discrete-event training simulator standing in for the
// paper's 32×V100 testbed (see DESIGN.md §1). It executes one training
// iteration of a partitioned model on a per-device timeline with two
// streams — computation and communication — reproducing the behaviours the
// paper measures:
//
//   - ring point-to-point transfers of P_{2^k×2^k} run on the communication
//     stream concurrently with the previous step's kernel (double
//     buffering); compute stalls only when a transfer is late;
//   - all-reduce collectives are blocking barriers;
//   - inter-operator redistribution blocks the consumer;
//   - peak per-device memory is tracked over the whole iteration.
//
// Because execution is SPMD over homogeneous devices, a single device's
// timeline is the system timeline (the paper makes the same argument when
// profiling one GPU, §6.2/§6.3).
//
// A simulation runs in two steps. Simulator.Prepare derives everything that
// does not depend on the layer count — per-phase step, ring and all-reduce
// times, per-node memory footprints and per-edge redistribution latencies —
// and Prepared.Run replays the per-layer timeline from those constants. A
// caller that simulates one strategy at several depths (the 3D planner's
// stage evaluations) prepares it once; Simulator.Run is the two steps
// back to back. Every product keeps the association of the per-layer
// derivation (per-layer bytes first, then × layers), so reports are
// bit-identical however they are reached.
package sim

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/partition"
)

// Simulator configures the simulated execution.
type Simulator struct {
	Cluster *device.Cluster
	// Overlap enables ring/compute overlap (ablation: disable).
	Overlap bool
	// ParamBytesPerElement: training-state bytes per weight element, in
	// units of ElementBytes (see cost.Model).
	ParamBytesPerElement float64
	// ZeRO1 shards optimizer state across each weight's replica group and
	// charges the per-iteration parameter all-gather (ZeRO stage 1).
	ZeRO1 bool
	// Recompute enables full activation recomputation (gradient
	// checkpointing): only each layer's boundary activation is stashed;
	// the backward pass re-runs the layer's forward phases first. Trades
	// ~1/3 extra compute for O(layers) less activation memory (the
	// related-work technique of Korthikanti et al.).
	Recompute bool
	// RecordSegments keeps per-kernel timeline segments (Fig. 9).
	RecordSegments bool
}

// New returns a simulator with the paper's defaults.
func New(c *device.Cluster) *Simulator {
	return &Simulator{Cluster: c, Overlap: true, ParamBytesPerElement: 8}
}

// Stream identifies which hardware stream a segment ran on.
type Stream int

const (
	ComputeStream Stream = iota
	CommStream
)

// Segment is one kernel/transfer on the timeline (for Fig. 9 renderings).
type Segment struct {
	Name   string
	Phase  partition.Phase
	Kind   string // "compute", "ring", "allreduce", "redistribute"
	Stream Stream
	Start  float64
	End    float64
}

// Report summarises one simulated training iteration.
type Report struct {
	// IterationTime is the wall-clock of forward+backward+gradient for
	// all layers, in seconds.
	IterationTime float64
	// Compute is the total busy time of the compute stream.
	Compute float64
	// Collective is the total (blocking) all-reduce time.
	Collective float64
	// RingTotal and RingExposed are the total ring-communication time and
	// the part not hidden behind computation.
	RingTotal   float64
	RingExposed float64
	// Redistribution is the total inter-operator resharding time.
	Redistribution float64
	// PeakMemoryBytes is the per-device peak memory.
	PeakMemoryBytes float64
	// Segments is the kernel timeline (only when RecordSegments).
	Segments []Segment
	// PerOp attributes busy time to operators by name (summed across
	// layers): compute, all-reduce and ring seconds.
	PerOp map[string]*OpBreakdown
}

// OpBreakdown is one operator's attributed time.
type OpBreakdown struct {
	Compute    float64
	Collective float64
	Ring       float64
}

// Throughput converts the iteration latency into tokens/second.
func (r *Report) Throughput(tokensPerIteration float64) float64 {
	if r.IterationTime <= 0 {
		return 0
	}
	return tokensPerIteration / r.IterationTime
}

// CollectiveShare is the fraction of iteration time spent in all-reduce
// (paper Fig. 2a).
func (r *Report) CollectiveShare() float64 {
	if r.IterationTime <= 0 {
		return 0
	}
	return r.Collective / r.IterationTime
}

// Prepared is one (graph, strategy) pair with everything that does not
// depend on the layer count derived once: per node and phase the kernel
// steps, step time, ring step time and all-reduce durations; per node the
// working, stash, weight and double-buffer bytes and the ZeRO-1 gathers;
// and the redistribution latency of every edge into and out of each node.
// Run replays only the timeline. A Prepared holds a copy of the
// Simulator's options taken at Prepare time and no mutable state, so Runs
// are independent and may be concurrent.
type Prepared struct {
	sim           Simulator
	nodes         []prepNode
	boundaryBytes float64
	// weightBytes and stashBytes are one layer's parameter and activation
	// stash bytes, summed node by node, tensor by tensor.
	weightBytes float64
	stashBytes  float64
}

// WeightBytes is one layer's parameter bytes per device: the weight blocks
// alone, without gradients, optimizer state or ZeRO-1 sharding.
func (p *Prepared) WeightBytes() float64 { return p.weightBytes }

// StashBytes is one layer's activation stash bytes per device for one
// micro-batch.
func (p *Prepared) StashBytes() float64 { return p.stashBytes }

// prepNode is one operator's layer-independent simulation input.
type prepNode struct {
	name        string
	steps       int
	computeStep float64
	phases      [3]prepPhase // indexed by partition.Phase

	outBytes    float64
	stashBytes  float64
	weightBytes float64 // resident training state of one layer
	dbufBytes   float64
	gathers     []prepGather

	// fwdIn and bwdOut are the blocking redistribution latencies of the
	// edges into (forward) and out of (backward) the node, in edge order;
	// edges that move no bytes are dropped.
	fwdIn  []float64
	bwdOut []float64
}

// prepPhase is one phase of one operator.
type prepPhase struct {
	applicable bool
	ringStep   float64
	// trailing is the extra ring step at the end of Backward and Gradient
	// (Table 1's last-step rows).
	trailing  bool
	allReduce []float64
}

// prepGather is one ZeRO-1 parameter all-gather: the replica group and
// the shard bytes of one layer.
type prepGather struct {
	ind   device.Indicator
	bytes float64
}

// Prepare validates seqs against g and derives every layer-independent
// quantity of the simulation. The Simulator's options are copied: changing
// the Simulator afterwards does not affect the Prepared.
func (s *Simulator) Prepare(g *graph.Graph, seqs []partition.Seq) (*Prepared, error) {
	if len(seqs) != len(g.Nodes) {
		return nil, fmt.Errorf("sim: %d sequences for %d nodes", len(seqs), len(g.Nodes))
	}
	nbits := s.Cluster.Bits()
	for i, seq := range seqs {
		if err := seq.Validate(len(g.Nodes[i].Axes), nbits); err != nil {
			return nil, fmt.Errorf("sim: node %d: %w", i, err)
		}
	}
	p := &Prepared{sim: *s, nodes: make([]prepNode, len(g.Nodes))}
	cl := s.Cluster
	eb := cl.Profile.ElementBytes
	for i, op := range g.Nodes {
		n := &p.nodes[i]
		seq := seqs[i]
		n.name = op.Name
		n.steps = seq.Steps()
		perStepBytes := 0.0
		for ti := range op.Tensors {
			perStepBytes += cost.BlockElems(op, seq, ti) * eb
		}
		n.computeStep = cl.ComputeTime(op.Flops()/cost.SliceProduct(op, seq), perStepBytes)
		for _, ph := range partition.Phases {
			if cost.PhaseApplicable(op, ph) {
				n.phases[ph] = preparePhase(cl, op, seq, ph)
			}
		}
		n.outBytes = cost.BlockElems(op, seq, op.OutputTensor) * eb
		for _, ti := range op.Stash {
			b := cost.BlockElems(op, seq, ti) * eb
			n.stashBytes += b
			p.stashBytes += b
		}
		n.dbufBytes = doubleBufferBytes(op, seq, eb)

		// Resident weights with gradient and optimizer state; under ZeRO-1
		// each replicated weight shard is all-gathered once per iteration.
		w := 0.0
		for ti, t := range op.Tensors {
			if t.Kind != graph.Weight {
				continue
			}
			mult := s.ParamBytesPerElement
			if s.ZeRO1 {
				repl := cost.WeightReplication(op, seq, ti, nbits)
				mult = (s.ParamBytesPerElement - cost.OptimizerStateShare) + cost.OptimizerStateShare/repl
				if bits := seq.ReplicaBits(t.Axes, nbits); len(bits) > 0 {
					n.gathers = append(n.gathers, prepGather{ind: device.Indicator(bits), bytes: cost.BlockElems(op, seq, ti) * eb})
				}
			}
			w += cost.BlockElems(op, seq, ti) * mult
			p.weightBytes += cost.BlockElems(op, seq, ti) * eb
		}
		n.weightBytes = w * eb
	}

	// Boundary activation kept per layer under recomputation: the layer's
	// input block (the first node's input ≈ its stash).
	if s.Recompute && len(p.nodes) > 0 {
		p.boundaryBytes = p.nodes[0].stashBytes
		if p.boundaryBytes == 0 && len(p.nodes) > 1 {
			p.boundaryBytes = p.nodes[1].stashBytes
		}
	}

	// Per-edge locality-split traffic, as blocking redistribution
	// latencies on its consumer (forward) and producer (backward).
	costModel := cost.NewModel(cl)
	for _, e := range g.Edges {
		plan := costModel.PlanEdge(g, e)
		src := costModel.OutputIface(g.Nodes[e.Src], seqs[e.Src])
		dst := costModel.InputIface(g.Nodes[e.Dst], seqs[e.Dst])
		t := plan.Measure(src, dst)
		if lat, ok := redistributeTime(cl, t.FwdIntra, t.FwdInter); ok {
			p.nodes[e.Dst].fwdIn = append(p.nodes[e.Dst].fwdIn, lat)
		}
		if lat, ok := redistributeTime(cl, t.BwdIntra, t.BwdInter); ok {
			p.nodes[e.Src].bwdOut = append(p.nodes[e.Src].bwdOut, lat)
		}
	}
	return p, nil
}

// preparePhase derives one applicable phase: the ring transfer volume per
// step over all Prime tokens, and the all-reduces of the spatially-split
// reduced axes that cost anything.
func preparePhase(cl *device.Cluster, op *graph.Op, seq partition.Seq, ph partition.Phase) prepPhase {
	pp := prepPhase{applicable: true}
	eb := cl.Profile.ElementBytes
	primeBits := seq.PrimeBitPositions()
	pi := 0
	for _, tok := range seq.Tokens {
		if tok.Kind != partition.Prime {
			continue
		}
		vAxis := cost.VaryingAxis(tok, ph)
		bytes := 0.0
		for ti, t := range op.Tensors {
			for _, ax := range t.Axes {
				if ax == vAxis {
					bytes += cost.BlockElems(op, seq, ti) * eb
					break
				}
			}
		}
		pp.ringStep += cl.RingStepTime(device.Indicator(primeBits[pi]), bytes)
		pi++
	}
	pp.trailing = pp.ringStep > 0 && (ph == partition.Backward || ph == partition.Gradient)
	for _, red := range op.Reductions[ph] {
		bits := seq.SplitBitsFor(red.Over)
		if len(bits) == 0 {
			continue
		}
		bytes := cost.BlockElems(op, seq, red.Result) * eb
		if ar := cl.AllReduceTime(device.Indicator(bits), bytes); ar > 0 {
			pp.allReduce = append(pp.allReduce, ar)
		}
	}
	return pp
}

// redistributeTime is the latency of a blocking inter-operator resharding
// transfer whose intra-node and inter-node shares flow concurrently; ok is
// false when the transfer moves nothing.
func redistributeTime(cl *device.Cluster, intraBytes, interBytes float64) (float64, bool) {
	if intraBytes <= 0 && interBytes <= 0 {
		return 0, false
	}
	n := float64(cl.NumDevices)
	var ti, te float64
	if intraBytes > 0 {
		bw, lat := cl.IntraLink()
		ti = intraBytes/n/bw + lat
	}
	if interBytes > 0 {
		bw, lat := cl.InterLink()
		te = interBytes/n/bw + lat
	}
	if te > ti {
		return te, true
	}
	return ti, true
}

// Run simulates one training iteration of `layers` stacked copies of the
// layer graph g under the per-node partition strategies seqs: Prepare
// followed by Prepared.Run.
func (s *Simulator) Run(g *graph.Graph, seqs []partition.Seq, layers int) (*Report, error) {
	p, err := s.Prepare(g, seqs)
	if err != nil {
		return nil, err
	}
	return p.Run(layers)
}

// state is the running timeline of the simulated device.
type state struct {
	p        *Prepared
	computeT float64 // compute stream clock
	commT    float64 // communication stream clock
	rep      *Report
	// ops caches each node's PerOp entry once resolved; nodes sharing a
	// name share the entry.
	ops []*OpBreakdown

	curMem  float64
	peakMem float64
}

func (st *state) alloc(bytes float64) {
	st.curMem += bytes
	if st.curMem > st.peakMem {
		st.peakMem = st.curMem
	}
}

func (st *state) free(bytes float64) { st.curMem -= bytes }

// breakdown returns node i's attribution entry, creating it on first use.
func (st *state) breakdown(i int) *OpBreakdown {
	if ob := st.ops[i]; ob != nil {
		return ob
	}
	if st.rep.PerOp == nil {
		st.rep.PerOp = map[string]*OpBreakdown{}
	}
	name := st.p.nodes[i].name
	ob := st.rep.PerOp[name]
	if ob == nil {
		ob = &OpBreakdown{}
		st.rep.PerOp[name] = ob
	}
	st.ops[i] = ob
	return ob
}

func (st *state) record(name string, ph partition.Phase, kind string, stream Stream, start, end float64) {
	if !st.p.sim.RecordSegments || end <= start {
		return
	}
	st.rep.Segments = append(st.rep.Segments, Segment{
		Name: name, Phase: ph, Kind: kind, Stream: stream, Start: start, End: end,
	})
}

// barrier synchronises both streams (entering a blocking collective).
func (st *state) barrier() float64 {
	if st.commT > st.computeT {
		st.computeT = st.commT
	} else {
		st.commT = st.computeT
	}
	return st.computeT
}

// runPhase executes one phase of node i: `steps` kernels with ring
// transfers for the next step overlapping each kernel, then any all-reduce.
func (st *state) runPhase(i int, ph partition.Phase) {
	n := &st.p.nodes[i]
	pp := &n.phases[ph]
	if !pp.applicable {
		return
	}
	overlap := st.p.sim.Overlap
	computeStep, ringStep := n.computeStep, pp.ringStep
	dataReady := 0.0 // first step's data is already resident (Feature 3)
	for t := 0; t < n.steps; t++ {
		start := st.computeT
		if dataReady > start {
			start = dataReady
		}
		if !overlap && st.commT > start {
			start = st.commT
		}
		end := start + computeStep
		st.record(n.name, ph, "compute", ComputeStream, start, end)
		st.rep.Compute += computeStep
		st.breakdown(i).Compute += computeStep
		st.computeT = end

		if ringStep > 0 && t < n.steps-1 {
			// Transfer the NEXT step's blocks while this kernel runs —
			// or, with overlap disabled, only after it finishes.
			rs := st.commT
			issue := start
			if !overlap {
				issue = end
			}
			if issue > rs {
				rs = issue
			}
			re := rs + ringStep
			st.record(n.name, ph, "ring", CommStream, rs, re)
			st.rep.RingTotal += ringStep
			st.breakdown(i).Ring += ringStep
			st.commT = re
			dataReady = re
		}
	}
	// Trailing redistribution transfers (W at the end of Backward, dW at
	// the end of Gradient — Table 1's last-step rows) overlap the final
	// kernel; model them as one more ring step on the comm stream.
	if pp.trailing {
		rs := st.commT
		re := rs + ringStep
		st.record(n.name, ph, "ring", CommStream, rs, re)
		st.rep.RingTotal += ringStep
		st.breakdown(i).Ring += ringStep
		st.commT = re
	}

	// All-reduce for spatially-split reduced axes: a blocking collective.
	for _, ar := range pp.allReduce {
		start := st.barrier()
		end := start + ar
		st.record(n.name, ph, "allreduce", CommStream, start, end)
		st.rep.Collective += ar
		st.breakdown(i).Collective += ar
		st.computeT, st.commT = end, end
	}
}

// redistribute inserts blocking inter-operator resharding transfers of the
// given latencies.
func (st *state) redistribute(name string, ph partition.Phase, lats []float64) {
	for _, lat := range lats {
		start := st.barrier()
		end := start + lat
		st.record(name, ph, "redistribute", CommStream, start, end)
		st.rep.Redistribution += lat
		st.computeT, st.commT = end, end
	}
}

// Run simulates one training iteration of `layers` stacked copies of the
// prepared layer.
func (p *Prepared) Run(layers int) (*Report, error) {
	if layers < 1 {
		return nil, fmt.Errorf("sim: layers must be ≥ 1")
	}
	rep := &Report{}
	st := &state{p: p, rep: rep, ops: make([]*OpBreakdown, len(p.nodes))}
	recompute := p.sim.Recompute

	// Resident weights (with gradient and optimizer state) for all layers.
	for i := range p.nodes {
		st.alloc(p.nodes[i].weightBytes * float64(layers))
	}
	// Double buffers for Prime-partitioned operators (held for the whole
	// iteration).
	for i := range p.nodes {
		st.alloc(p.nodes[i].dbufBytes)
	}

	// ---- Forward pass ----
	for layer := 0; layer < layers; layer++ {
		for i := range p.nodes {
			n := &p.nodes[i]
			st.redistribute(n.name, partition.Forward, n.fwdIn)
			// Working output block, alive within the layer.
			st.alloc(n.outBytes)
			if recompute {
				// Activations are dropped; only the layer boundary stays.
				if i == 0 {
					st.alloc(p.boundaryBytes)
				}
			} else {
				st.alloc(n.stashBytes)
			}
			st.runPhase(i, partition.Forward)
			st.free(n.outBytes)
		}
	}

	// ---- Backward + Gradient passes (reverse layer and op order) ----
	for layer := layers - 1; layer >= 0; layer-- {
		if recompute {
			// Re-run the layer's forward phases to rebuild activations
			// (which now live only for this layer's backward).
			for i := range p.nodes {
				st.alloc(p.nodes[i].stashBytes)
				st.runPhase(i, partition.Forward)
			}
		}
		for i := len(p.nodes) - 1; i >= 0; i-- {
			n := &p.nodes[i]
			// Gradients arriving from consumers.
			st.redistribute(n.name, partition.Backward, n.bwdOut)
			st.runPhase(i, partition.Backward)
			st.runPhase(i, partition.Gradient)
			st.free(n.stashBytes)
		}
		if recompute {
			st.free(p.boundaryBytes)
		}
	}

	// ZeRO-1 optimizer step: each replica group all-gathers the freshly
	// updated parameters of its weight shards (once per iteration).
	for i := range p.nodes {
		n := &p.nodes[i]
		for _, ga := range n.gathers {
			ag := p.sim.Cluster.AllGatherTime(ga.ind, ga.bytes*float64(layers))
			start := st.barrier()
			st.record(n.name, partition.Gradient, "allreduce", CommStream, start, start+ag)
			st.rep.Collective += ag
			st.computeT, st.commT = start+ag, start+ag
		}
	}

	end := st.barrier()
	rep.IterationTime = end
	rep.RingExposed = ringExposed(rep)
	rep.PeakMemoryBytes = st.peakMem
	return rep, nil
}

// ringExposed computes ring time not hidden behind compute, from totals:
// iteration = compute + collective + redistribution + exposed ring (+ idle≈0).
func ringExposed(r *Report) float64 {
	exp := r.IterationTime - r.Compute - r.Collective - r.Redistribution
	if exp < 0 {
		return 0
	}
	if exp > r.RingTotal {
		return r.RingTotal
	}
	return exp
}

func doubleBufferBytes(op *graph.Op, seq partition.Seq, eb float64) float64 {
	worst := 0.0
	primeToks := false
	for _, tok := range seq.Tokens {
		if tok.Kind == partition.Prime {
			primeToks = true
		}
	}
	if !primeToks {
		return 0
	}
	for _, ph := range partition.Phases {
		phaseBytes := 0.0
		for _, tok := range seq.Tokens {
			if tok.Kind != partition.Prime {
				continue
			}
			vAxis := cost.VaryingAxis(tok, ph)
			for ti, t := range op.Tensors {
				for _, ax := range t.Axes {
					if ax == vAxis {
						phaseBytes += cost.BlockElems(op, seq, ti) * eb
						break
					}
				}
			}
		}
		if phaseBytes > worst {
			worst = phaseBytes
		}
	}
	return worst
}
