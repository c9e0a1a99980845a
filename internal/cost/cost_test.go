package cost

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/partition"
)

func newModel4(t *testing.T) *Model {
	t.Helper()
	return NewModel(device.MustCluster(4, 4, device.V100Profile()))
}

func linOp() *graph.Op {
	// A mid-sized linear: B=8, M=1024, N=4096, K=4096.
	return model.NewLinear("lin", 8, 1024, 4096, 4096)
}

func primeSeq() partition.Seq {
	return partition.NewSeq(partition.NewPrime(1, model.LinM, model.LinN, model.LinK))
}

func megatronRowSeq() partition.Seq {
	// Row-parallel ×4: split N twice (forward all-reduce).
	return partition.NewSeq(partition.Split(model.LinN), partition.Split(model.LinN))
}

// The headline claim: Prime eliminates all-reduce entirely and replaces it
// with overlappable ring communication.
func TestPrimeEliminatesAllReduce(t *testing.T) {
	m := newModel4(t)
	op := linOp()

	mega := m.IntraCost(op, megatronRowSeq())
	if mega.AllReduce <= 0 {
		t.Fatal("row-parallel partition must incur all-reduce")
	}
	if mega.RingTotal != 0 {
		t.Fatal("row-parallel partition must not incur ring communication")
	}

	prime := m.IntraCost(op, primeSeq())
	if prime.AllReduce != 0 {
		t.Fatalf("Prime must be collective-free, got all-reduce %v", prime.AllReduce)
	}
	if prime.RingTotal <= 0 {
		t.Fatal("Prime must incur ring communication")
	}
	// Latency: Prime ≤ Megatron for this compute-heavy shape.
	if prime.Latency() >= mega.Latency() {
		t.Fatalf("Prime latency %v should beat row-parallel %v", prime.Latency(), mega.Latency())
	}
}

// Both strategies split the same total work; compute time must match.
func TestComputeParityAcrossStrategies(t *testing.T) {
	m := newModel4(t)
	op := linOp()
	a := m.IntraCost(op, megatronRowSeq()).Compute
	b := m.IntraCost(op, primeSeq()).Compute
	// Prime runs 2 steps of half-size kernels: same flops, one extra
	// kernel launch; allow 5% slack.
	if b < a*0.95 || b > a*1.1 {
		t.Fatalf("compute should be near-equal: row=%v prime=%v", a, b)
	}
}

// Paper Fig. 2(b): conventional partitioning replicates tensors; Prime does
// not. W memory per device: DP replicates fully, row-parallel halves twice,
// Prime quarters.
func TestMemoryReplicationEffects(t *testing.T) {
	m := newModel4(t)
	op := linOp()
	wBytes := op.WeightElems() * m.Cluster.Profile.ElementBytes * m.ParamBytesPerElement

	dp := partition.NewSeq(partition.Split(model.LinB), partition.Split(model.LinB))
	dpMem := m.IntraCost(op, dp).MemoryBytes
	if dpMem < wBytes {
		t.Fatalf("data-parallel W memory %v should be the full %v (replicated)", dpMem, wBytes)
	}

	rowMem := m.IntraCost(op, megatronRowSeq()).MemoryBytes
	primeMem := m.IntraCost(op, primeSeq()).MemoryBytes
	if !(primeMem < rowMem && rowMem < dpMem) {
		t.Fatalf("want prime(%v) < row(%v) < dp(%v)", primeMem, rowMem, dpMem)
	}
}

func TestOverlapAblation(t *testing.T) {
	m := newModel4(t)
	op := linOp()
	withOverlap := m.IntraCost(op, primeSeq())
	m.Overlap = false
	without := m.IntraCost(op, primeSeq())
	if without.StepSum <= withOverlap.StepSum {
		t.Fatalf("disabling overlap must not reduce step time: %v vs %v",
			without.StepSum, withOverlap.StepSum)
	}
	// Without overlap, StepSum = Compute + RingTotal exactly.
	sum := without.Compute + without.RingTotal
	if diff := without.StepSum - sum; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("no-overlap StepSum %v != compute+ring %v", without.StepSum, sum)
	}
}

func TestExposedRingLatency(t *testing.T) {
	m := newModel4(t)
	op := linOp()
	ic := m.IntraCost(op, primeSeq())
	if ic.Exposed() < 0 {
		t.Fatalf("exposed latency cannot be negative: %v", ic.Exposed())
	}
	if ic.Exposed() > ic.RingTotal {
		t.Fatalf("exposed %v cannot exceed ring total %v", ic.Exposed(), ic.RingTotal)
	}
	// This large matmul fully hides its ring communication (paper Fig. 9).
	if ic.Exposed() != 0 {
		t.Fatalf("ring should be fully overlapped for a compute-heavy op, exposed %v", ic.Exposed())
	}
}

func TestTotalFoldsAlphaMemory(t *testing.T) {
	m := newModel4(t)
	op := linOp()
	ic := m.IntraCost(op, primeSeq())
	if got := ic.Total(0); got != ic.Latency() {
		t.Fatalf("Total(0) = %v, want %v", got, ic.Latency())
	}
	alpha := 1e-12
	if got := ic.Total(alpha); got != ic.Latency()+alpha*ic.MemoryBytes {
		t.Fatalf("Total(alpha) mismatch")
	}
}

// Identity anchors must cost nothing.
func TestIdentityIsFree(t *testing.T) {
	m := newModel4(t)
	g, err := model.BuildBlock(model.OPT6B7())
	if err != nil {
		t.Fatal(err)
	}
	ic := m.IntraCost(g.Nodes[model.NodeAnchor], partition.NewSeq())
	if ic.Latency() != 0 {
		t.Fatalf("anchor latency = %v, want 0", ic.Latency())
	}
}

// Aligned producer/consumer strategies need no redistribution: fc1 column-
// parallel feeding a matching split activation (the Megatron MLP pattern).
func TestInterCostZeroWhenAligned(t *testing.T) {
	m := newModel4(t)
	g, err := model.BuildMLP(model.OPT175B())
	if err != nil {
		t.Fatal(err)
	}
	// Edge fc1(1) → act(2). fc1 splits K twice; act splits F twice.
	e := g.Edges[1]
	seqFC1 := partition.NewSeq(partition.Split(model.LinK), partition.Split(model.LinK))
	seqAct := partition.NewSeq(partition.Split(2), partition.Split(2))
	if got := m.InterCost(g, e, seqFC1, seqAct); got != 0 {
		t.Fatalf("aligned fc1→act redistribution = %v, want 0", got)
	}
	// Mismatched: act splits batch instead → full misses.
	seqActB := partition.NewSeq(partition.Split(0), partition.Split(0))
	if got := m.InterCost(g, e, seqFC1, seqActB); got <= 0 {
		t.Fatalf("misaligned fc1→act redistribution = %v, want > 0", got)
	}
}

// Same-sequence hand-off through an identity-mapped edge is always free for
// spatial-only strategies (the producer's output block IS the consumer's
// input block).
func TestInterCostZeroForIdenticalSpatialSeqs(t *testing.T) {
	m := newModel4(t)
	g, err := model.BuildMLP(model.OPT6B7())
	if err != nil {
		t.Fatal(err)
	}
	e := g.Edges[2] // act → fc2, identity axis map
	seqAct := partition.NewSeq(partition.Split(0), partition.Split(1))
	seqFC2 := partition.NewSeq(partition.Split(model.LinB), partition.Split(model.LinM))
	if got := m.InterCost(g, e, seqAct, seqFC2); got != 0 {
		t.Fatalf("identical spatial hand-off cost = %v, want 0", got)
	}
}

// Redistribution traffic is bounded: 0 ≤ traffic ≤ need(fwd) + need(bwd).
func TestQuickInterTrafficBounds(t *testing.T) {
	m := newModel4(t)
	g, err := model.BuildMLP(model.OPT6B7())
	if err != nil {
		t.Fatal(err)
	}
	e := g.Edges[1] // fc1 → act
	srcOp, dstOp := g.Nodes[e.Src], g.Nodes[e.Dst]
	eb := m.Cluster.Profile.ElementBytes
	// Replicated interfaces may each need their own copy, so the bound
	// scales with the device count.
	bound := (dstOp.TensorElems(e.DstTensor) + srcOp.TensorElems(srcOp.OutputTensor)) *
		eb * float64(m.Cluster.NumDevices)

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s1 := randomSeqFor(rng, srcOp, 2)
		s2 := randomSeqFor(rng, dstOp, 2)
		src := m.OutputIface(srcOp, s1)
		dst := m.InputIface(dstOp, s2)
		traffic := m.PlanEdge(g, e).Measure(src, dst).Total()
		return traffic >= 0 && traffic <= bound+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func randomSeqFor(rng *rand.Rand, op *graph.Op, nbits int) partition.Seq {
	var toks []partition.Token
	remaining := nbits
	for remaining > 0 {
		if remaining >= 2 && op.PrimeApplicable() && rng.Intn(3) == 0 {
			toks = append(toks, partition.NewPrime(1, op.PrimeM, op.PrimeN, op.PrimeK))
			remaining -= 2
			continue
		}
		// Pick a splittable axis.
		ax := rng.Intn(len(op.Axes))
		if !op.Axes[ax].Splittable {
			continue
		}
		toks = append(toks, partition.Split(ax))
		remaining--
	}
	return partition.NewSeq(toks...)
}

// RedistributeDetail is free for no traffic, grows with the bytes moved,
// and prices inter-node bytes above the same bytes kept on the node.
func TestRedistributeDetailMonotone(t *testing.T) {
	m := NewModel(device.MustCluster(8, 4, device.V100Profile()))
	if m.RedistributeDetail(Traffic{}) != 0 {
		t.Fatal("zero traffic should be free")
	}
	a := m.RedistributeDetail(Traffic{FwdIntra: 1e6})
	b := m.RedistributeDetail(Traffic{FwdIntra: 2e6})
	if !(0 < a && a < b) {
		t.Fatalf("redistribution time not monotone: %v, %v", a, b)
	}
	if m.RedistributeDetail(Traffic{FwdInter: 1e6}) <= a {
		t.Fatal("inter-node redistribution should be slower per byte")
	}
}

func TestOverallSumsNodesAndEdges(t *testing.T) {
	m := newModel4(t)
	g, err := model.BuildMLP(model.OPT6B7())
	if err != nil {
		t.Fatal(err)
	}
	seqs := []partition.Seq{
		partition.NewSeq(partition.Split(0), partition.Split(1)),
		partition.NewSeq(partition.Split(model.LinB), partition.Split(model.LinM)),
		partition.NewSeq(partition.Split(0), partition.Split(1)),
		partition.NewSeq(partition.Split(model.LinB), partition.Split(model.LinM)),
	}
	want := 0.0
	for i, op := range g.Nodes {
		want += m.IntraCost(op, seqs[i]).Total(m.Alpha)
	}
	for _, e := range g.Edges {
		want += m.InterCost(g, e, seqs[e.Src], seqs[e.Dst])
	}
	if got := m.Overall(g, seqs); got != want {
		t.Fatalf("Overall = %v, want %v", got, want)
	}
	if want <= 0 {
		t.Fatal("overall cost should be positive")
	}
}

// The flattened-axis hand-off (QKV's K axis → attention's H axis) costs
// nothing when both sides split heads consistently.
func TestFlattenedAxisHandoffAligned(t *testing.T) {
	m := newModel4(t)
	g, err := model.BuildBlock(model.OPT6B7())
	if err != nil {
		t.Fatal(err)
	}
	var qkvToQKT *graph.Edge
	for _, e := range g.Edges {
		if e.Src == model.NodeQKV && e.Dst == model.NodeQKT && e.DstTensor == 0 {
			qkvToQKT = e
		}
	}
	if qkvToQKT == nil {
		t.Fatal("missing qkv→qkt edge")
	}
	seqQKV := partition.NewSeq(partition.Split(model.LinK), partition.Split(model.LinK))
	seqQKT := partition.NewSeq(partition.Split(model.AttH), partition.Split(model.AttH))
	if got := m.InterCost(g, qkvToQKT, seqQKV, seqQKT); got != 0 {
		t.Fatalf("head-aligned qkv→qkt cost = %v, want 0", got)
	}
	// Splitting sequence on the consumer instead must redistribute.
	seqQKTSeq := partition.NewSeq(partition.Split(model.AttSq), partition.Split(model.AttSq))
	if got := m.InterCost(g, qkvToQKT, seqQKV, seqQKTSeq); got <= 0 {
		t.Fatalf("misaligned qkv→qkt cost = %v, want > 0", got)
	}
}

func TestZeRO1MemoryModel(t *testing.T) {
	m := newModel4(t)
	op := linOp()
	dp := partition.NewSeq(partition.Split(model.LinB), partition.Split(model.LinB))
	base := m.IntraCost(op, dp).MemoryBytes
	m.ZeRO1 = true
	sharded := m.IntraCost(op, dp).MemoryBytes
	if sharded >= base {
		t.Fatalf("ZeRO-1 did not shrink memory: %v vs %v", sharded, base)
	}
	// Replication-free strategies have nothing to shard: memory unchanged.
	prime := primeSeq()
	m.ZeRO1 = false
	basePrime := m.IntraCost(op, prime).MemoryBytes
	m.ZeRO1 = true
	if got := m.IntraCost(op, prime).MemoryBytes; got != basePrime {
		t.Fatalf("ZeRO-1 changed replication-free memory: %v vs %v", got, basePrime)
	}
}

func TestWeightReplication(t *testing.T) {
	op := linOp()
	nbits := 2
	cases := []struct {
		seq  partition.Seq
		want float64
	}{
		{partition.NewSeq(partition.Split(model.LinB), partition.Split(model.LinB)), 4}, // pure DP
		{partition.NewSeq(partition.Split(model.LinN), partition.Split(model.LinK)), 1}, // fully sharded
		{primeSeq(), 1}, // prime shards W
		{partition.NewSeq(partition.Split(model.LinB)), 4}, // DP + unused bit
	}
	for _, c := range cases {
		if got := WeightReplication(op, c.seq, 1, nbits); got != c.want {
			t.Fatalf("seq %v: replication %v, want %v", c.seq, got, c.want)
		}
	}
}

// The locality split: misses whose blocks live on same-node producers are
// classified intra-node; the sum matches the aggregate traffic.
func TestTrafficLocalitySplit(t *testing.T) {
	cl := device.MustCluster(8, 4, device.V100Profile())
	m := NewModel(cl)
	g, err := model.BuildMLP(model.OPT175B())
	if err != nil {
		t.Fatal(err)
	}
	e := g.Edges[1] // fc1 → act
	plan := m.PlanEdge(g, e)

	// Prime on intra-node bits (2,3) feeding a spatial act: the diagonal
	// redistribution stays inside each node.
	seqFC1 := partition.NewSeq(partition.Split(model.LinB), partition.NewPrime(1, model.LinM, model.LinN, model.LinK))
	seqAct := partition.NewSeq(partition.Split(0), partition.Split(1), partition.Split(1))
	src := m.OutputIface(g.Nodes[e.Src], seqFC1)
	dst := m.InputIface(g.Nodes[e.Dst], seqAct)
	tr := plan.Measure(src, dst)
	if tr.Total() <= 0 {
		t.Fatal("expected redistribution traffic entering the prime boundary")
	}
	if tr.FwdInter > 1e-9 {
		t.Fatalf("intra-node prime boundary classified as inter-node: %+v", tr)
	}
	// Splitting across the node bit must shift traffic to inter-node.
	seqActCross := partition.NewSeq(partition.Split(2), partition.Split(2), partition.Split(2))
	dst2 := m.InputIface(g.Nodes[e.Dst], seqActCross)
	tr2 := plan.Measure(src, dst2)
	if tr2.FwdInter <= 0 {
		t.Fatalf("cross-node redistribution not detected: %+v", tr2)
	}
}

func TestEdgePlanRelevantAxes(t *testing.T) {
	m := newModel4(t)
	g, err := model.BuildBlock(model.OPT6B7())
	if err != nil {
		t.Fatal(err)
	}
	// qkv→qkt: source-relevant axes are qkv's B, M, K (the mapped ones).
	for _, e := range g.Edges {
		if e.Src == model.NodeQKV && e.Dst == model.NodeQKT && e.DstTensor == 0 {
			plan := m.PlanEdge(g, e)
			src := plan.SrcRelevantAxes()
			want := map[int]bool{model.LinB: true, model.LinM: true, model.LinK: true}
			if len(src) != 3 {
				t.Fatalf("src relevant axes = %v", src)
			}
			for _, ax := range src {
				if !want[ax] {
					t.Fatalf("unexpected relevant axis %d", ax)
				}
			}
			// All four tensor axes are relevant on the consumer side:
			// even the derived E axis scales the block volume.
			dst := plan.DstRelevantAxes()
			if len(dst) != 4 {
				t.Fatalf("dst relevant axes = %v", dst)
			}
			return
		}
	}
	t.Fatal("edge not found")
}
