package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/calibrate"
	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/partition"
)

func optimizerFor(t *testing.T, devices, perNode int) *Optimizer {
	t.Helper()
	m := cost.NewModel(device.MustCluster(devices, perNode, device.V100Profile()))
	return NewOptimizer(m)
}

// noPrime is the spatial-only candidate mask (baseline.SpatialOnly).
func noPrime(_ int, s partition.Seq) bool { return !s.HasPrime() }

func TestCandidatesCountsLinear(t *testing.T) {
	op := model.NewLinear("lin", 1024, 1024, 4096, 4096)
	opts := DefaultOptions()
	// Exact-length counts follow f(n) = 4f(n−1) + f(n−2) [P_{2×2}] +
	// f(n−4) [P_{4×4}]: 1, 4, 17, 72, 306, 1300. The space is
	// prefix-closed (trailing bits replicate), so |P| at n bits is the
	// cumulative sum.
	if got := len(Candidates(op, 2, opts)); got != 1+4+17 {
		t.Fatalf("|P| at 2 bits = %d, want 22", got)
	}
	if got := len(Candidates(op, 3, opts)); got != 1+4+17+72 {
		t.Fatalf("|P| at 3 bits = %d, want 94", got)
	}
	if got := len(Candidates(op, 5, opts)); got != 1+4+17+72+306+1300 {
		t.Fatalf("|P| at 5 bits = %d, want 1700", got)
	}
}

func TestCandidatesRespectAxisSizes(t *testing.T) {
	// Batch of 2 admits at most one batch split.
	op := model.NewLinear("lin", 2, 1024, 4096, 4096)
	got := len(Candidates(op, 2, DefaultOptions()))
	if got != 21 { // 22 minus the "B,B" sequence
		t.Fatalf("|P| with B=2 at 2 bits = %d, want 21", got)
	}
	for _, s := range Candidates(op, 3, DefaultOptions()) {
		if s.NumSlices(model.LinB) > 2 {
			t.Fatalf("sequence %v over-splits the batch axis", s)
		}
	}
}

func TestCandidatesOptionGates(t *testing.T) {
	op := model.NewLinear("lin", 1024, 1024, 4096, 4096)
	spatial := 0
	for _, s := range Candidates(op, 2, DefaultOptions()) {
		if !s.HasPrime() {
			spatial++
		}
	}
	if spatial != 1+4+16 {
		t.Fatalf("spatial-only |P| at 2 bits = %d, want 21", spatial)
	}
	noBatch := DefaultOptions()
	noBatch.AllowBatchSplit = false
	for _, s := range Candidates(op, 3, noBatch) {
		if s.NumSlices(model.LinB) != 1 {
			t.Fatalf("AllowBatchSplit=false produced %v", s)
		}
	}
}

func TestCandidatesSkipUnsplittableAxes(t *testing.T) {
	g, err := model.BuildBlock(model.OPT6B7())
	if err != nil {
		t.Fatal(err)
	}
	softmax := g.Nodes[model.NodeSoftmax]
	for _, s := range Candidates(softmax, 3, DefaultOptions()) {
		if s.NumSlices(3) != 1 { // Sk is the softmax axis
			t.Fatalf("softmax axis split by %v", s)
		}
		if s.HasPrime() {
			t.Fatalf("softmax cannot take Prime: %v", s)
		}
	}
	qkt := g.Nodes[model.NodeQKT]
	for _, s := range Candidates(qkt, 3, DefaultOptions()) {
		if s.NumSlices(model.AttE) != 1 {
			t.Fatalf("head-embed axis split by %v", s)
		}
	}
}

// Candidates never exceed the machine's bits, are all valid, and include
// the fully-replicated (empty) and the Megatron-replicated-norm styles.
func TestCandidatesWithinBudgetAndPrefixClosed(t *testing.T) {
	op := model.NewLinear("lin", 1024, 1024, 4096, 4096)
	cands := Candidates(op, 4, DefaultOptions())
	seen := map[string]bool{}
	for _, s := range cands {
		if s.Bits() > 4 {
			t.Fatalf("candidate %v uses %d bits > 4", s, s.Bits())
		}
		if err := s.Validate(4, 4); err != nil {
			t.Fatalf("invalid candidate %v: %v", s, err)
		}
		if seen[s.Key()] {
			t.Fatalf("duplicate candidate %v", s)
		}
		seen[s.Key()] = true
	}
	if !seen[partition.NewSeq().Key()] {
		t.Fatal("fully-replicated candidate missing")
	}
	if !seen[partition.NewSeq(partition.Split(model.LinB)).Key()] {
		t.Fatal("partial (replicating) candidate missing")
	}
}

// The segmented DP must match the exhaustive oracle (paper §5.2 optimality).
func TestDPMatchesExhaustiveOnMLP(t *testing.T) {
	o := optimizerFor(t, 4, 4)
	g, err := model.BuildMLP(model.OPT6B7())
	if err != nil {
		t.Fatal(err)
	}
	dp, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := o.Exhaustive(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dp.TotalCost-ex.TotalCost) > 1e-9*ex.TotalCost {
		t.Fatalf("DP cost %v != exhaustive cost %v", dp.TotalCost, ex.TotalCost)
	}
	// The reconstructed strategy must actually achieve the reported cost.
	if got := o.Cost.Overall(g, dp.Seqs); math.Abs(got-dp.TotalCost) > 1e-9*dp.TotalCost {
		t.Fatalf("strategy replays to %v, DP reported %v", got, dp.TotalCost)
	}
}

func TestDPMatchesExhaustiveWithMemoryWeight(t *testing.T) {
	o := optimizerFor(t, 4, 4)
	o.Cost.Alpha = 1e-10
	g, err := model.BuildMLP(model.OPT6B7())
	if err != nil {
		t.Fatal(err)
	}
	dp, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := o.Exhaustive(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dp.TotalCost-ex.TotalCost) > 1e-9*ex.TotalCost {
		t.Fatalf("DP cost %v != exhaustive cost %v (alpha > 0)", dp.TotalCost, ex.TotalCost)
	}
}

// Full 13-node block with extended edges and segment merging, against the
// oracle on a 2-device machine (batch splits disabled on both sides to keep
// the oracle's joint space enumerable).
func TestDPMatchesExhaustiveOnFullBlock(t *testing.T) {
	o := optimizerFor(t, 2, 2)
	o.Opts.AllowBatchSplit = false
	g, err := model.BuildBlock(model.OPT6B7())
	if err != nil {
		t.Fatal(err)
	}
	dp, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := o.Exhaustive(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dp.TotalCost-ex.TotalCost) > 1e-9*ex.TotalCost {
		t.Fatalf("DP cost %v != exhaustive %v on full block", dp.TotalCost, ex.TotalCost)
	}
	if got := o.Cost.Overall(g, dp.Seqs); math.Abs(got-dp.TotalCost) > 1e-9*dp.TotalCost {
		t.Fatalf("block strategy replays to %v, DP reported %v", got, dp.TotalCost)
	}
}

// TestLayerStacking pins the periodic rule: a stackable block's answer is
// one layer that every layer runs, so Seqs and LayerCost are bit-identical
// at every layer count and TotalCost is exactly float64(L)·LayerCost.
func TestLayerStacking(t *testing.T) {
	o := optimizerFor(t, 4, 4)
	o.Cache = nil // every layer count runs a full search
	g, err := model.BuildBlock(model.OPT6B7())
	if err != nil {
		t.Fatal(err)
	}
	var one *Strategy
	for _, layers := range []int{1, 2, 3, 8, 31} {
		s, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: layers})
		if err != nil {
			t.Fatalf("layers=%d: %v", layers, err)
		}
		if s.TotalCost != float64(layers)*s.LayerCost {
			t.Fatalf("layers=%d: total %v != %d × layer cost %v", layers, s.TotalCost, layers, s.LayerCost)
		}
		if one == nil {
			one = s
			continue
		}
		if math.Float64bits(s.LayerCost) != math.Float64bits(one.LayerCost) {
			t.Fatalf("layers=%d: layer cost %v, at 1 layer %v", layers, s.LayerCost, one.LayerCost)
		}
		for i := range s.Seqs {
			if s.Seqs[i].Key() != one.Seqs[i].Key() {
				t.Fatalf("layers=%d: node %d runs %v, at 1 layer %v", layers, i, s.Seqs[i], one.Seqs[i])
			}
		}
	}
}

// TestReturnedPlanRealizesTotalCost pins that the returned plan is the plan
// that was priced, on the Table 2 cells (V100, 4 per node, α = 1e-12): the
// head and tail carry the same candidate, so every layer can run Seqs, and
// L × the model cost of Seqs (node totals plus in-layer edges) is TotalCost.
// Under -short only the 4- and 8-device cells run. Before the periodic rule,
// four cells returned a head layer that differed from the layer the other
// L−1 layers ran: Llama2-70B@8 and, without -short, Llama2-70B@16,
// OPT-175B@32 and BLOOM-176B@32.
func TestReturnedPlanRealizesTotalCost(t *testing.T) {
	scales := []int{4, 8}
	if !testing.Short() {
		scales = append(scales, 16, 32)
	}
	for _, cfg := range []model.Config{model.OPT175B(), model.Llama2_70B(), model.BLOOM176B()} {
		g, err := model.BuildBlock(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, scale := range scales {
			m := cost.NewModel(device.MustCluster(scale, 4, device.V100Profile()))
			m.Alpha = 1e-12
			o := NewOptimizer(m)
			o.Cache = NewSearchCache()
			s, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: cfg.Layers})
			if err != nil {
				t.Fatalf("%s@%d: %v", cfg.Name, scale, err)
			}
			n := len(g.Nodes)
			if head, tail := s.Seqs[0], s.Seqs[n-1]; head.Key() != tail.Key() {
				t.Errorf("%s@%d: head runs %v but tail %v; the next layer cannot start where this one ends",
					cfg.Name, scale, head, tail)
			}
			got := float64(cfg.Layers) * o.Cost.Overall(g, s.Seqs)
			if math.Abs(got-s.TotalCost) > 1e-12*s.TotalCost {
				t.Errorf("%s@%d: %d × the returned layer costs %v, TotalCost %v (rel %.3g)",
					cfg.Name, scale, cfg.Layers, got, s.TotalCost, (got-s.TotalCost)/s.TotalCost)
			}
		}
	}
}

// TestLayerStackingCheck drives the head/tail check that guards stacking: a
// two-node graph stacks only when its head and tail candidate spaces are
// index-identical. A tail whose batch axis cannot split has a shorter space;
// a tail with its Prime M and N dims swapped has a space of the same length
// that differs at the one Prime candidate 4 devices allow. Both must be
// refused, naming the lengths or the index.
func TestLayerStackingCheck(t *testing.T) {
	cases := []struct {
		name    string
		edit    func(tail *graph.Op)
		wantErr string
	}{
		{"stacks", nil, ""},
		{"lengths differ", func(tail *graph.Op) { tail.Axes[model.LinB].Splittable = false }, "spaces differ"},
		{"sequence differs", func(tail *graph.Op) { tail.PrimeM, tail.PrimeN = tail.PrimeN, tail.PrimeM }, "disagree at candidate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := &graph.Graph{Name: "stack-check"}
			head := model.NewLinear("head", 2, 8, 8, 8)
			tail := model.NewLinear("tail", 2, 8, 8, 8)
			if tc.edit != nil {
				tc.edit(tail)
			}
			g.AddNode(head)
			g.AddNode(tail)
			g.Connect(0, 1, 0, []int{model.LinB, model.LinM, model.LinK})
			o := optimizerFor(t, 4, 4)
			o.Cache = NewSearchCache()
			nbits := o.Cost.Cluster.Bits()
			hs, ts := Candidates(head, nbits, o.Opts), Candidates(tail, nbits, o.Opts)

			strat, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: 2})
			switch {
			case tc.wantErr == "":
				if err != nil {
					t.Fatalf("index-identical spaces refused: %v", err)
				}
				if strat.Layers != 2 {
					t.Fatalf("stacked %d layers, want 2", strat.Layers)
				}
				return
			case err == nil:
				t.Fatalf("stacked head and tail spaces that are not index-identical")
			case !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
			if len(hs) != len(ts) {
				if want := fmt.Sprintf("(%d vs %d)", len(hs), len(ts)); !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not name the lengths %s", err, want)
				}
				return
			}
			var diff []int
			for i := range hs {
				if hs[i].Key() != ts[i].Key() {
					diff = append(diff, i)
				}
			}
			if len(diff) != 1 {
				t.Fatalf("spaces differ at %v, want exactly one index", diff)
			}
			if want := fmt.Sprintf("candidate %d ", diff[0]); !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name %q", err, want)
			}
		})
	}
}

// Enlarging the space with the Prime primitive can only improve the optimum,
// and on a multi-node machine it strictly improves it (the paper's headline).
// The spatial-only search masks the Prime candidates out of the same space,
// so on one optimizer it reuses the layer the first search prepared.
func TestPrimeSpaceDominatesSpatialOnly(t *testing.T) {
	g, err := model.BuildMLP(model.OPT175B())
	if err != nil {
		t.Fatal(err)
	}
	for _, devs := range []struct{ n, per int }{{4, 4}, {8, 4}} {
		o := optimizerFor(t, devs.n, devs.per)
		o.Cache = NewSearchCache()
		withPrime, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: 1})
		if err != nil {
			t.Fatal(err)
		}
		spatial, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: 1, Keep: noPrime})
		if err != nil {
			t.Fatal(err)
		}
		if st := spatial.Stats; st.NodeEvals != 0 || st.EdgeMatsBuilt != 0 || st.CrossCallPlanHits != 0 {
			t.Fatalf("%d devices: the masked search did not reuse the prepared layer: %+v", devs.n, st)
		}
		for _, s := range spatial.Seqs {
			if s.HasPrime() {
				t.Fatalf("%d devices: the spatial-only plan uses %v", devs.n, s)
			}
		}
		if withPrime.TotalCost > spatial.TotalCost+1e-12 {
			t.Fatalf("%d devices: prime space cost %v exceeds spatial-only %v",
				devs.n, withPrime.TotalCost, spatial.TotalCost)
		}
		if devs.n == 8 && withPrime.TotalCost >= spatial.TotalCost {
			t.Fatalf("8 devices: prime should strictly beat spatial-only (%v vs %v)",
				withPrime.TotalCost, spatial.TotalCost)
		}
	}
}

// The optimizer must actually deploy the novel primitive on the big MLP
// linears when it wins (paper Fig. 9 shows P_{2×2} on fc1/fc2 at 8 GPUs).
func TestOptimalStrategyUsesPrimeOnBigLinears(t *testing.T) {
	o := optimizerFor(t, 8, 4)
	g, err := model.BuildMLP(model.OPT175B())
	if err != nil {
		t.Fatal(err)
	}
	s, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: 1})
	if err != nil {
		t.Fatal(err)
	}
	fc1 := s.Seqs[1]
	fc2 := s.Seqs[3]
	if !fc1.HasPrime() && !fc2.HasPrime() {
		t.Fatalf("expected Prime on fc1 or fc2; got fc1=%v fc2=%v",
			fc1.Format(g.Nodes[1].AxisNames()), fc2.Format(g.Nodes[3].AxisNames()))
	}
}

func TestOptimizeRejectsBadInput(t *testing.T) {
	o := optimizerFor(t, 4, 4)
	g, err := model.BuildMLP(model.OPT6B7())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: 0}); err == nil {
		t.Fatal("layers=0 accepted")
	}
}

// An operator with nothing to split gets the fully-replicated strategy.
func TestOptimizeDegenerateOpReplicates(t *testing.T) {
	o := optimizerFor(t, 4, 4)
	g := &graph.Graph{}
	op := model.NewLinear("tiny", 1, 1, 1, 1)
	for i := range op.Axes {
		op.Axes[i].Size = 1
	}
	g.AddNode(op)
	g.AddNode(model.NewLinear("ok", 8, 64, 64, 64))
	g.Connect(0, 1, 0, []int{0, 1, 2})
	s, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Seqs[0].Bits() != 0 {
		t.Fatalf("degenerate op assigned %v, want the replicated strategy", s.Seqs[0])
	}
}

// Exhaustive must refuse absurdly large spaces rather than hang.
func TestExhaustiveRefusesHugeSpace(t *testing.T) {
	o := optimizerFor(t, 32, 4)
	g, err := model.BuildBlock(model.OPT175B())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Exhaustive(g, nil); err == nil {
		t.Fatal("exhaustive accepted a 32-device full block")
	}
}

// Strategies returned for stacked layers must be internally consistent:
// every node assigned, spaces reported, intra matching seqs.
func TestStrategyConsistency(t *testing.T) {
	o := optimizerFor(t, 8, 4)
	g, err := model.BuildBlock(model.OPT6B7())
	if err != nil {
		t.Fatal(err)
	}
	s, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Seqs) != len(g.Nodes) || len(s.Intra) != len(g.Nodes) {
		t.Fatalf("strategy arity mismatch")
	}
	for i, seq := range s.Seqs {
		if seq.Bits() > o.Cost.Cluster.Bits() {
			t.Fatalf("node %d assigned %v (%d bits)", i, seq, seq.Bits())
		}
		ic := o.Cost.IntraCost(g.Nodes[i], seq)
		if math.Abs(ic.Latency()-s.Intra[i].Latency()) > 1e-12 {
			t.Fatalf("node %d intra mismatch", i)
		}
		if s.SpaceSizes[i] <= 0 {
			t.Fatalf("node %d space size %d", i, s.SpaceSizes[i])
		}
	}
}

// Deterministic: repeated optimization returns identical costs/strategies.
func TestOptimizeDeterministic(t *testing.T) {
	o := optimizerFor(t, 8, 4)
	g, err := model.BuildMLP(model.OPT6B7())
	if err != nil {
		t.Fatal(err)
	}
	a, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalCost != b.TotalCost {
		t.Fatalf("nondeterministic cost: %v vs %v", a.TotalCost, b.TotalCost)
	}
	for i := range a.Seqs {
		if a.Seqs[i].Key() != b.Seqs[i].Key() {
			t.Fatalf("nondeterministic strategy at node %d", i)
		}
	}
}

var _ = partition.NewSeq // keep import when tests shrink

// The grouped edge matrix must agree with dense per-pair evaluation — the
// grouping is a lossless compression, not an approximation.
func TestGroupedEdgeMatrixMatchesDense(t *testing.T) {
	o := optimizerFor(t, 8, 4)
	g, err := model.BuildBlock(model.OPT6B7())
	if err != nil {
		t.Fatal(err)
	}
	cands := make([]*nodeEntry, len(g.Nodes))
	for i, op := range g.Nodes {
		cands[i] = o.evalNode(op, 1)
	}
	// One edge phase for all four edges, as a search builds them.
	picked := []int{0, 2, 6, 9} // a mix of edge shapes
	edges := make([]*graph.Edge, len(picked))
	for k, e := range picked {
		edges[k] = g.Edges[e]
	}
	mats, _, err := o.buildEdgeMats(context.Background(), g, edges, cands, o.newOverlapTables(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for k, e := range picked {
		edge, em := edges[k], mats[k]
		src, dst := cands[edge.Src], cands[edge.Dst]
		plan := o.Cost.PlanEdge(g, edge)
		// Spot-check a grid of pairs.
		for i := 0; i < len(src.seqs); i += 37 {
			for j := 0; j < len(dst.seqs); j += 41 {
				want := o.Cost.RedistributeDetail(plan.Measure(src.out[i], dst.in[j]))
				if got := em.at(int32(i), int32(j)); math.Abs(got-want) > 1e-15 {
					t.Fatalf("edge %d pair (%d,%d): grouped %v, dense %v", e, i, j, got, want)
				}
			}
		}
	}
}

// sumEdgeMats with two different matrices refines groups correctly.
func TestSumEdgeMatsRefinement(t *testing.T) {
	o := optimizerFor(t, 4, 4)
	g, err := model.BuildBlock(model.OPT6B7())
	if err != nil {
		t.Fatal(err)
	}
	// The two QKV→QKT edges (Q and K destinations) share endpoints.
	var edges []*graph.Edge
	for _, e := range g.Edges {
		if e.Src == model.NodeQKV && e.Dst == model.NodeQKT {
			edges = append(edges, e)
		}
	}
	if len(edges) != 2 {
		t.Fatalf("want 2 qkv→qkt edges, got %d", len(edges))
	}
	cands := make([]*nodeEntry, len(g.Nodes))
	src := o.evalNode(g.Nodes[model.NodeQKV], 1)
	dst := o.evalNode(g.Nodes[model.NodeQKT], 1)
	cands[model.NodeQKV], cands[model.NodeQKT] = src, dst
	mats, _, err := o.buildEdgeMats(context.Background(), g, edges, cands, o.newOverlapTables(), 1)
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := mats[0], mats[1]
	sum := sumEdgeMats([]*edgeMat{m1, m2})
	for i := 0; i < len(src.seqs); i += 11 {
		for j := 0; j < len(dst.seqs); j += 13 {
			want := m1.at(int32(i), int32(j)) + m2.at(int32(i), int32(j))
			if got := sum.at(int32(i), int32(j)); math.Abs(got-want) > 1e-15 {
				t.Fatalf("pair (%d,%d): sum %v, want %v", i, j, got, want)
			}
		}
	}
}

// Searching with the calibrated latency book (paper §4 methodology) yields
// the same optimum as the analytic formulas it was fitted from.
func TestCalibratedBookSearchEquivalence(t *testing.T) {
	g, err := model.BuildMLP(model.OPT175B())
	if err != nil {
		t.Fatal(err)
	}
	analytic := optimizerFor(t, 8, 4)
	a, err := analytic.Plan(context.Background(), PlanRequest{Graph: g, Layers: 1})
	if err != nil {
		t.Fatal(err)
	}
	calibrated := optimizerFor(t, 8, 4)
	book, err := calibrate.Profile(calibrated.Cost.Cluster, calibrate.Noise{})
	if err != nil {
		t.Fatal(err)
	}
	calibrated.Cost.Book = book
	c, err := calibrated.Plan(context.Background(), PlanRequest{Graph: g, Layers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.TotalCost-c.TotalCost)/a.TotalCost > 1e-6 {
		t.Fatalf("calibrated cost %v != analytic %v", c.TotalCost, a.TotalCost)
	}
	for i := range a.Seqs {
		if a.Seqs[i].Key() != c.Seqs[i].Key() {
			t.Fatalf("node %d: calibrated search picked %v, analytic %v", i, c.Seqs[i], a.Seqs[i])
		}
	}
}
