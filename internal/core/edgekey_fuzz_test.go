package core

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
)

// byteReader consumes fuzz input, yielding zeros once exhausted so every
// input decodes to SOME valid pair of edge configurations.
type byteReader struct {
	data []byte
	pos  int
}

func (r *byteReader) next() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *byteReader) intn(n int) int { return int(r.next()) % n }

var fuzzAxisNames = []string{"B", "M", "N", "K", "S", "X"}

// opFromBytes decodes a small but fully populated operator from the stream:
// every field that participates in the full signature varies.
func opFromBytes(r *byteReader) *graph.Op {
	nAxes := 1 + r.intn(4)
	op := &graph.Op{
		Name:   "fuzz",
		Kind:   graph.OpKind(r.intn(4)),
		PrimeM: -1,
		PrimeN: -1,
		PrimeK: -1,
	}
	for i := 0; i < nAxes; i++ {
		op.Axes = append(op.Axes, graph.Axis{
			Name:       fuzzAxisNames[r.intn(len(fuzzAxisNames))],
			Size:       1 << r.intn(4),
			Splittable: r.next()&1 == 0,
		})
	}
	if nAxes >= 3 && r.next()&1 == 0 {
		op.PrimeM, op.PrimeN, op.PrimeK = 0, 1, 2
	}
	op.FlopFactor = float64(r.intn(3))
	// One output tensor over a non-empty axis subset, plus an input tensor.
	outAxes := []int{r.intn(nAxes)}
	if r.next()&1 == 0 && nAxes > 1 {
		outAxes = append(outAxes, r.intn(nAxes))
	}
	inAxes := []int{r.intn(nAxes)}
	op.Tensors = []graph.Tensor{
		{Name: "I", Kind: graph.Input, Axes: inAxes},
		{Name: "O", Kind: graph.Output, Axes: outAxes},
	}
	op.OutputTensor = 1
	op.Reductions = map[partition.Phase][]graph.Reduction{}
	if r.next()&1 == 0 {
		op.Reductions[partition.Forward] = []graph.Reduction{{Result: 1, Over: []int{r.intn(nAxes)}}}
	}
	if r.next()&1 == 0 {
		op.Stash = []int{0}
	}
	return op
}

// edgeConfigFromBytes decodes one (src op, dst op, dst tensor, axis map)
// configuration.
func edgeConfigFromBytes(r *byteReader) (src, dst *graph.Op, dstTensor int, axisMap []int) {
	src = opFromBytes(r)
	dst = opFromBytes(r)
	dstTensor = r.intn(len(dst.Tensors))
	axisMap = make([]int, len(dst.Tensors[dstTensor].Axes))
	for i := range axisMap {
		axisMap[i] = r.intn(len(src.Axes)+1) - 1 // -1 = unmapped
	}
	return src, dst, dstTensor, axisMap
}

// spaceShape is the exact set of fields appendSpaceSig claims to capture.
type spaceShape struct {
	axes                   []graph.Axis
	primeM, primeN, primeK int
}

func shapeOf(op *graph.Op) spaceShape {
	return spaceShape{op.Axes, op.PrimeM, op.PrimeN, op.PrimeK}
}

// FuzzEdgeKeyInjectivity decodes two edge configurations from one input and
// checks the edge-matrix cache key both ways:
//
//   - injectivity: equal keys ⇒ the structures the matrix is computed from
//     are identical (space shapes, tensor-axis selections, axis map). A
//     collision here would silently reuse a wrong cost matrix.
//   - completeness: identical structures ⇒ equal keys, so legitimate sharing
//     (the whole point of the cache) can never flake.
func FuzzEdgeKeyInjectivity(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	// Identical halves: forces the equal-key path through both checks.
	half := []byte{3, 1, 0, 4, 2, 1, 1, 0, 0, 2, 1, 7, 0, 1, 1, 2, 0, 3, 1, 0}
	f.Add(append(append([]byte{}, half...), half...))
	// Axis-name swap: the retired string key ignored names and collided here.
	f.Add([]byte{2, 0, 4, 0, 1, 4, 0, 9, 9, 2, 1, 4, 0, 0, 4, 0, 9, 9})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := &byteReader{data: data}
		srcA, dstA, dtA, mapA := edgeConfigFromBytes(r)
		srcB, dstB, dtB, mapB := edgeConfigFromBytes(r)

		g := &graph.Graph{Name: "fuzz"}
		g.AddNode(srcA)
		g.AddNode(dstA)
		g.AddNode(srcB)
		g.AddNode(dstB)
		eA := g.Connect(0, 1, dtA, mapA)
		eB := g.Connect(2, 3, dtB, mapB)

		in := &sigInterner{}
		kA := edgeKeyOf(in, g, eA)
		kB := edgeKeyOf(in, g, eB)

		sameSel := reflect.DeepEqual(srcA.Tensors[srcA.OutputTensor].Axes, srcB.Tensors[srcB.OutputTensor].Axes) &&
			reflect.DeepEqual(dstA.Tensors[dtA].Axes, dstB.Tensors[dtB].Axes) &&
			reflect.DeepEqual(mapA, mapB)
		sameSpace := reflect.DeepEqual(shapeOf(srcA), shapeOf(srcB)) &&
			reflect.DeepEqual(shapeOf(dstA), shapeOf(dstB))

		wantEqual := sameSel && sameSpace
		if (kA == kB) != wantEqual {
			t.Fatalf("key equality = %v, structural equality = %v\nsrcA=%+v\nsrcB=%+v\ndstA=%+v\ndstB=%+v\nmapA=%v dtA=%d mapB=%v dtB=%d",
				kA == kB, wantEqual, srcA, srcB, dstA, dstB, mapA, dtA, mapB, dtB)
		}
	})
}

// TestEdgeKeyDistinguishesAxisNames pins the regression the structured key
// fixes: two sources that differ ONLY in which axis is named "B" (the name
// Candidates gates batch splitting on) must get distinct keys. The retired
// string key ignored axis names and aliased them.
func TestEdgeKeyDistinguishesAxisNames(t *testing.T) {
	mk := func(n0, n1 string) *graph.Op {
		return &graph.Op{
			Name: "src",
			Axes: []graph.Axis{
				{Name: n0, Size: 4, Splittable: true},
				{Name: n1, Size: 4, Splittable: true},
			},
			Tensors:      []graph.Tensor{{Name: "O", Kind: graph.Output, Axes: []int{0, 1}}},
			Reductions:   map[partition.Phase][]graph.Reduction{},
			PrimeM:       -1,
			PrimeN:       -1,
			PrimeK:       -1,
			OutputTensor: 0,
		}
	}
	g := &graph.Graph{Name: "names"}
	g.AddNode(mk("B", "X"))
	g.AddNode(mk("B", "X"))
	g.AddNode(mk("X", "B"))
	g.AddNode(mk("B", "X"))
	e1 := g.Connect(0, 1, 0, []int{0, 1})
	e2 := g.Connect(2, 3, 0, []int{0, 1})
	in := &sigInterner{}
	if k1, k2 := edgeKeyOf(in, g, e1), edgeKeyOf(in, g, e2); k1 == k2 {
		t.Fatalf("axis-name swap produced identical keys: %+v", k1)
	}
}

// TestEdgeKeySharing pins the sharing side of the cache contract: ops that
// differ only in cost-model structure (kind, reductions) legitimately SHARE
// a matrix, while the node memo still tells them apart.
func TestEdgeKeySharing(t *testing.T) {
	mkDst := func(kind graph.OpKind, flops float64) *graph.Op {
		op := &graph.Op{
			Name: "dst",
			Kind: kind,
			Axes: []graph.Axis{
				{Name: "B", Size: 4, Splittable: true},
				{Name: "D", Size: 8, Splittable: true},
			},
			Tensors: []graph.Tensor{
				{Name: "I", Kind: graph.Input, Axes: []int{0, 1}},
				{Name: "O", Kind: graph.Output, Axes: []int{0, 1}},
			},
			Reductions:   map[partition.Phase][]graph.Reduction{},
			FlopFactor:   flops,
			PrimeM:       -1,
			PrimeN:       -1,
			PrimeK:       -1,
			OutputTensor: 1,
		}
		return op
	}
	src := mkDst(graph.OpIdentity, 0)
	g := &graph.Graph{Name: "share"}
	g.AddNode(src)
	g.AddNode(mkDst(graph.OpElementwise, 1))
	g.AddNode(mkDst(graph.OpSoftmax, 5))
	e1 := g.Connect(0, 1, 0, []int{0, 1})
	e2 := g.Connect(0, 2, 0, []int{0, 1})
	in := &sigInterner{}
	if k1, k2 := edgeKeyOf(in, g, e1), edgeKeyOf(in, g, e2); k1 != k2 {
		t.Fatalf("same-space edges must share keys: %+v vs %+v", k1, k2)
	}
	if in.fullID(g.Nodes[1]) == in.fullID(g.Nodes[2]) {
		t.Fatal("differently-structured endpoints must get distinct node signatures")
	}
}
