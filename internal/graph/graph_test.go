package graph

import (
	"strings"
	"testing"

	"repro/internal/partition"
)

func testOp(name string, sizes ...int) *Op {
	axes := make([]Axis, len(sizes))
	allAxes := make([]int, len(sizes))
	for i, s := range sizes {
		axes[i] = Axis{Name: string(rune('a' + i)), Size: s, Splittable: true}
		allAxes[i] = i
	}
	return &Op{
		Name:         name,
		Kind:         OpElementwise,
		Axes:         axes,
		Tensors:      []Tensor{{Name: "x", Kind: Output, Axes: allAxes}},
		Reductions:   map[partition.Phase][]Reduction{},
		PrimeM:       -1,
		PrimeN:       -1,
		PrimeK:       -1,
		FlopFactor:   1,
		OutputTensor: 0,
	}
}

func TestOpVolumeAndFlops(t *testing.T) {
	op := testOp("x", 2, 3, 4)
	if op.Volume() != 24 {
		t.Fatalf("Volume = %v, want 24", op.Volume())
	}
	op.FlopFactor = 2
	if op.Flops() != 48 {
		t.Fatalf("Flops = %v, want 48", op.Flops())
	}
}

func TestTensorAccounting(t *testing.T) {
	op := &Op{
		Name: "lin",
		Axes: []Axis{{Name: "M", Size: 4}, {Name: "N", Size: 8}, {Name: "K", Size: 2}},
		Tensors: []Tensor{
			{Name: "I", Kind: Input, Axes: []int{0, 1}},
			{Name: "W", Kind: Weight, Axes: []int{1, 2}},
			{Name: "O", Kind: Output, Axes: []int{0, 2}},
		},
		Reductions:   map[partition.Phase][]Reduction{},
		Stash:        []int{0},
		OutputTensor: 2,
	}
	if got := op.TensorElems(1); got != 16 {
		t.Fatalf("TensorElems(W) = %v, want 16", got)
	}
	if got := op.WeightElems(); got != 16 {
		t.Fatalf("WeightElems = %v, want 16", got)
	}
	if got := op.StashElems(); got != 32 {
		t.Fatalf("StashElems = %v, want 32", got)
	}
	if got := op.TotalElems(); got != 32+16+8 {
		t.Fatalf("TotalElems = %v, want 56", got)
	}
}

func TestPrimeApplicable(t *testing.T) {
	op := testOp("m", 2, 4, 8)
	op.PrimeM, op.PrimeN, op.PrimeK = 0, 1, 2
	if !op.PrimeApplicable() {
		t.Fatal("all-splittable matmul should accept Prime")
	}
	op.Axes[1].Splittable = false
	if op.PrimeApplicable() {
		t.Fatal("Prime must be rejected when a role axis is unsplittable")
	}
	op.PrimeM = -1
	if op.PrimeApplicable() {
		t.Fatal("Prime must be rejected without role axes")
	}
}

func TestValidateCatchesBadEdges(t *testing.T) {
	g := &Graph{}
	a := g.AddNode(testOp("a", 4))
	b := g.AddNode(testOp("b", 4))
	g.Connect(a, b, 0, []int{0})
	if err := g.Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}

	// Non-topological edge.
	g2 := &Graph{}
	a2 := g2.AddNode(testOp("a", 4))
	b2 := g2.AddNode(testOp("b", 4))
	g2.Connect(b2, a2, 0, []int{0})
	if err := g2.Validate(); err == nil {
		t.Fatal("non-topological edge accepted")
	}

	// Wrong axis-map arity.
	g3 := &Graph{}
	a3 := g3.AddNode(testOp("a", 4))
	b3 := g3.AddNode(testOp("b", 4))
	g3.Connect(a3, b3, 0, []int{0, 1})
	if err := g3.Validate(); err == nil {
		t.Fatal("edge with wrong axis-map arity accepted")
	}
}

func TestInOutEdges(t *testing.T) {
	g := &Graph{}
	a := g.AddNode(testOp("a", 4))
	b := g.AddNode(testOp("b", 4))
	c := g.AddNode(testOp("c", 4))
	g.Connect(a, b, 0, []int{0})
	g.Connect(a, c, 0, []int{0})
	g.Connect(b, c, 0, []int{0})
	if n := len(g.OutEdges(a)); n != 2 {
		t.Fatalf("OutEdges(a) = %d, want 2", n)
	}
	if n := len(g.InEdges(c)); n != 2 {
		t.Fatalf("InEdges(c) = %d, want 2", n)
	}
	if n := len(g.InEdges(a)); n != 0 {
		t.Fatalf("InEdges(a) = %d, want 0", n)
	}
}

// A 5-node chain with an extended edge 0→3 must cut at 0, 3 and the end.
func TestSegmentCuts(t *testing.T) {
	g := &Graph{}
	for i := 0; i < 5; i++ {
		g.AddNode(testOp("n", 4))
	}
	for i := 0; i < 4; i++ {
		g.Connect(i, i+1, 0, []int{0})
	}
	g.Connect(0, 3, 0, []int{0})
	cuts := g.SegmentCuts()
	want := []int{0, 4}
	_ = want
	if len(cuts) != 2 || cuts[0] != 0 || cuts[1] != 4 {
		t.Fatalf("cuts = %v, want [0 4]", cuts)
	}
	if err := g.CheckSegmentAssumptions(); err != nil {
		t.Fatalf("assumptions should hold (edge from segment head): %v", err)
	}
}

func TestSegmentAssumptionViolation(t *testing.T) {
	// Extended edge 1→3 where 1 is not a cut head and 3 is not a cut.
	g := &Graph{}
	for i := 0; i < 5; i++ {
		g.AddNode(testOp("n", 4))
	}
	for i := 0; i < 4; i++ {
		g.Connect(i, i+1, 0, []int{0})
	}
	g.Connect(1, 3, 0, []int{0})
	// Node 1 becomes a cut (it has an extended edge), so [1,?] segment
	// starts there and 1→3 is fine. Build a genuinely bad case instead:
	// two crossing extended edges 1→4 and 2→3 make 2→3's source a cut,
	// but 1→4 then crosses the cut at 2 while 4 is not a cut... SegmentCuts
	// marks both 1 and 2, and 4 is the last node (a cut), so assumptions
	// still hold. The segmentation scheme is robust for DAGs whose
	// extended edges originate at cut points — verify that property.
	if err := g.CheckSegmentAssumptions(); err != nil {
		t.Fatalf("unexpected violation: %v", err)
	}
}

// cutChain returns an n-node chain with the extended edges ext, each a
// source and destination pair.
func cutChain(n int, ext [][2]int) *Graph {
	g := &Graph{}
	for i := 0; i < n; i++ {
		g.AddNode(testOp("n", 4))
	}
	for i := 0; i+1 < n; i++ {
		g.Connect(i, i+1, 0, []int{0})
	}
	for _, e := range ext {
		g.Connect(e[0], e[1], 0, []int{0})
	}
	return g
}

// TestSegmentAssumptionsPriceEveryEdge pins the check on the cuts {0, 2, 4,
// 6} of a 7-node chain: 2→4 and 4→6 start at the last cut before their
// destinations and 0→6 at node 0, so each is priced and the graph passes;
// 2→6 joins two cuts but no step or merge prices it, so adding it fails,
// naming it.
func TestSegmentAssumptionsPriceEveryEdge(t *testing.T) {
	ok := [][2]int{{2, 4}, {4, 6}, {0, 6}}
	g := cutChain(7, ok)
	if cuts := g.SegmentCuts(); len(cuts) != 4 || cuts[0] != 0 || cuts[1] != 2 || cuts[2] != 4 || cuts[3] != 6 {
		t.Fatalf("cuts = %v, want [0 2 4 6]", cuts)
	}
	if err := g.CheckSegmentAssumptions(); err != nil {
		t.Fatalf("priced edges rejected: %v", err)
	}
	err := cutChain(7, append(ok, [2]int{2, 6})).CheckSegmentAssumptions()
	if err == nil || !strings.Contains(err.Error(), "2→6") {
		t.Fatalf("an unpriced 2→6 gave %v, want an error naming it", err)
	}
}

// FuzzSegmentAssumptions checks CheckSegmentAssumptions against the DP's
// compositions, enumerated the way the layer DP runs them: per segment
// [a, b] its first step prices the edges a→a+1 and each later step j the
// edges j−1→j and a→j, and the merge closing each segment after the first
// prices the edges 0→b. The check must pass exactly when every edge is
// priced. Layout: node count 3–10, then source and destination bytes of
// the added edges, each taken modulo the node count; a pair that is not an
// extended edge is dropped.
func FuzzSegmentAssumptions(f *testing.F) {
	f.Add([]byte{4, 2, 4, 4, 6, 0, 6})       // cuts {0, 2, 4, 6}: 2→4, 4→6, 0→6, all priced
	f.Add([]byte{4, 2, 4, 4, 6, 0, 6, 2, 6}) // ... plus 2→6, which nothing prices
	f.Add([]byte{1, 0, 2, 1, 3})             // crossed 0→2 and 1→3
	f.Add([]byte{6, 0, 5, 5, 8, 1, 3})       // a residual-like 0→5 and a later segment
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 3 + int(data[0])%8
		var ext [][2]int
		for i := 1; i+1 < len(data); i += 2 {
			if s, d := int(data[i])%n, int(data[i+1])%n; d > s+1 {
				ext = append(ext, [2]int{s, d})
			}
		}
		g := cutChain(n, ext)
		priced := make(map[*Edge]int)
		price := func(from, to int) {
			for _, e := range g.Edges {
				if e.Src == from && e.Dst == to {
					priced[e]++
				}
			}
		}
		cuts := g.SegmentCuts()
		for s := 1; s < len(cuts); s++ {
			a, b := cuts[s-1], cuts[s]
			price(a, a+1)
			for j := a + 2; j <= b; j++ {
				price(j-1, j)
				price(a, j)
			}
			if s > 1 {
				price(0, b)
			}
		}
		all := true
		for _, e := range g.Edges {
			if priced[e] > 1 {
				t.Fatalf("edge %d→%d priced %d times", e.Src, e.Dst, priced[e])
			}
			all = all && priced[e] == 1
		}
		if err := g.CheckSegmentAssumptions(); (err == nil) != all {
			t.Fatalf("cuts %v, extended edges %v: check gave %v, every edge priced: %v", cuts, ext, err, all)
		}
	})
}

func TestIsExtended(t *testing.T) {
	e := &Edge{Src: 2, Dst: 3}
	if e.IsExtended() {
		t.Fatal("adjacent edge reported extended")
	}
	e = &Edge{Src: 2, Dst: 5}
	if !e.IsExtended() {
		t.Fatal("skipping edge not reported extended")
	}
}

func TestOpValidateErrors(t *testing.T) {
	bad := testOp("bad", 4)
	bad.Tensors[0].Axes = []int{7}
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range tensor axis accepted")
	}
	bad2 := testOp("bad2", 4)
	bad2.OutputTensor = 5
	if err := bad2.Validate(); err == nil {
		t.Fatal("out-of-range output tensor accepted")
	}
	bad3 := testOp("bad3", 4)
	bad3.Reductions[partition.Forward] = []Reduction{{Over: []int{9}, Result: 0}}
	if err := bad3.Validate(); err == nil {
		t.Fatal("out-of-range reduction axis accepted")
	}
	bad4 := testOp("bad4", 4)
	bad4.Reductions[partition.Forward] = []Reduction{{Over: []int{0}, Result: 9}}
	if err := bad4.Validate(); err == nil {
		t.Fatal("out-of-range reduction result accepted")
	}
}

func TestGraphValidatePropagatesNodeErrors(t *testing.T) {
	g := &Graph{}
	bad := testOp("bad", 4)
	bad.OutputTensor = -1
	g.AddNode(bad)
	if err := g.Validate(); err == nil {
		t.Fatal("invalid node accepted")
	}
	// Edge endpoints out of range.
	g2 := &Graph{}
	g2.AddNode(testOp("a", 4))
	g2.Edges = append(g2.Edges, &Edge{Src: 0, Dst: 7, DstTensor: 0, AxisMap: []int{0}})
	if err := g2.Validate(); err == nil {
		t.Fatal("dangling edge accepted")
	}
	// Destination tensor out of range.
	g3 := &Graph{}
	a := g3.AddNode(testOp("a", 4))
	b := g3.AddNode(testOp("b", 4))
	g3.Connect(a, b, 5, []int{0})
	if err := g3.Validate(); err == nil {
		t.Fatal("bad destination tensor accepted")
	}
	// Axis map referencing a nonexistent source axis.
	g4 := &Graph{}
	a4 := g4.AddNode(testOp("a", 4))
	b4 := g4.AddNode(testOp("b", 4))
	g4.Connect(a4, b4, 0, []int{9})
	if err := g4.Validate(); err == nil {
		t.Fatal("bad axis map accepted")
	}
}

func TestAxisNamesAndKindString(t *testing.T) {
	op := testOp("x", 2, 3)
	names := op.AxisNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("AxisNames = %v", names)
	}
	if OpKind(99).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}
