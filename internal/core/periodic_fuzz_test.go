package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/model"
)

// FuzzPeriodicPlanMatchesExhaustive pins the periodic rule against brute
// force. It decodes a small stackable chain (periodicChain), a layer count
// in [1, 64], an α in [0, 1e-9] and 2 or 4 devices. Plan's LayerCost must
// equal the periodic Exhaustive optimum (tail pinned to the head's
// candidate) to 1e-9 relative, whatever the layer count; its head and tail
// must carry the same candidate, TotalCost must be exactly
// float64(L)·LayerCost, and L × the model cost of the returned Seqs must
// replay to TotalCost.
//
// Byte layout: b, m, k, length-1, one width byte per linear, layers-1, two
// α bytes (little-endian, scaled to [0, 1e-9]), devices, then (length ≥ 2)
// an ext flag (even = ext edge) and its target, then a gap byte (withGap) —
// each taken modulo its range, missing bytes read as zero.
func FuzzPeriodicPlanMatchesExhaustive(f *testing.F) {
	f.Add([]byte{})                                       // minimal chain, 1 layer, α = 0
	f.Add([]byte{1, 1, 1, 2, 2, 3, 0, 31, 0, 0, 1})       // length 3, 32 layers, 4 devices
	f.Add([]byte{0, 0, 0, 1, 3, 0, 63, 255, 255, 1, 0})   // length 2, 64 layers, α = 1e-9, ext edge
	f.Add([]byte{1, 0, 1, 2, 1, 0, 2, 7, 16, 0, 0, 0, 1}) // length 3, 8 layers, 2 devices, ext edge at 3
	f.Add([]byte{0, 1, 1, 2, 3, 3, 3, 95, 128, 64, 1, 1}) // length 3, 32 layers, no ext edge
	f.Add([]byte{1, 1, 0, 0, 2, 2, 1, 2, 1, 0, 0, 0})     // length 1, 3 layers
	// Wide linears at α ≈ 1e-10: the free optimum of one layer is not
	// periodic here, so a free pick fails this seed.
	f.Add([]byte{0, 0, 2, 2, 3, 3, 0, 11, 0x9a, 0x19, 1, 1})
	// The ext-edge seed with a gap: no edge 0→1 (the segment's first step),
	// then no edge 2→3 (a Bellman step that still takes the ext edge 0→3).
	f.Add([]byte{1, 0, 1, 2, 1, 0, 2, 7, 16, 0, 0, 0, 1, 1})
	f.Add([]byte{1, 0, 1, 2, 1, 0, 2, 7, 16, 0, 0, 0, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &byteReader{data: data}
		g, mdl, layers, label := periodicCase(t, r)
		label = withGap(r, g, label)
		o := NewOptimizer(mdl)
		o.Cache = NewSearchCache()
		s, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: layers})
		if err != nil {
			t.Fatalf("%s: plan: %v", label, err)
		}
		ex, err := NewOptimizer(mdl).Exhaustive(g, nil)
		if err != nil {
			t.Fatalf("%s: exhaustive: %v", label, err)
		}
		if d := math.Abs(s.LayerCost - ex.LayerCost); d > 1e-9*ex.LayerCost {
			t.Errorf("%s: layer cost %v, periodic exhaustive %v", label, s.LayerCost, ex.LayerCost)
		}
		n := len(g.Nodes)
		if s.Seqs[0].Key() != s.Seqs[n-1].Key() || ex.Seqs[0].Key() != ex.Seqs[n-1].Key() {
			t.Errorf("%s: head/tail differ: plan %v/%v, exhaustive %v/%v",
				label, s.Seqs[0], s.Seqs[n-1], ex.Seqs[0], ex.Seqs[n-1])
		}
		if s.TotalCost != float64(layers)*s.LayerCost {
			t.Errorf("%s: total %v != %d × layer cost %v", label, s.TotalCost, layers, s.LayerCost)
		}
		if got := float64(layers) * mdl.Overall(g, s.Seqs); math.Abs(got-s.TotalCost) > 1e-9*s.TotalCost {
			t.Errorf("%s: the returned layer replays to %v, TotalCost %v", label, got, s.TotalCost)
		}
	})
}

// periodicCase decodes FuzzPeriodicPlanMatchesExhaustive's case from r: a
// periodicChain, its cost model and a layer count, with a label naming them.
func periodicCase(t *testing.T, r *byteReader) (*graph.Graph, *cost.Model, int, string) {
	t.Helper()
	b, m, k := 2<<r.intn(2), 4<<r.intn(2), 4<<(2*r.intn(3))
	widths := make([]int, 1+r.intn(3))
	for i := range widths {
		widths[i] = 4 << (2 * r.intn(4))
	}
	layers := 1 + r.intn(64)
	alpha := 1e-9 * float64(uint16(r.next())|uint16(r.next())<<8) / math.MaxUint16
	devices := []int{2, 4}[r.intn(2)]
	ext := 0
	if len(widths) >= 2 && r.next()&1 == 0 {
		ext = 2 + r.intn(len(widths)-1)
	}
	g := periodicChain(t, b, m, k, widths, ext)
	mdl := cost.NewModel(device.MustCluster(devices, devices, device.V100Profile()))
	mdl.Alpha = alpha
	label := fmt.Sprintf("b=%d m=%d k=%d widths=%v ext=%d layers=%d α=%g devices=%d",
		b, m, k, widths, ext, layers, alpha, devices)
	return g, mdl, layers, label
}

// withGap reads a gap byte from r and, unless it is zero, drops one adjacent
// edge of the chain g: byte k drops i→i+1 for i = (k−1) mod (|V|−1), so the
// segment's first step or a Bellman step runs without an edge. It returns
// label naming the gap.
func withGap(r *byteReader, g *graph.Graph, label string) string {
	k := int(r.next())
	if k == 0 {
		return label
	}
	i := (k - 1) % (len(g.Nodes) - 1)
	g.Edges = slices.DeleteFunc(g.Edges, func(e *graph.Edge) bool { return e.Src == i && e.Dst == i+1 })
	return fmt.Sprintf("%s gap=%d→%d", label, i, i+1)
}

// periodicChain is deltaGraph's chain with its own width per linear: an
// identity anchor [b, m, k], linears whose output widths are widths (the
// last forced to k, so the tail identity shares the anchor's space), and an
// optional extended edge anchor→ext (whose input width is forced to k).
// Unequal widths make head and tail prefer different partitions, so the
// free optimum of a layer is often not periodic.
func periodicChain(t *testing.T, b, m, k int, widths []int, ext int) *graph.Graph {
	t.Helper()
	widths[len(widths)-1] = k
	if ext > 0 {
		widths[ext-2] = k
	}
	g := &graph.Graph{Name: "periodic-fuzz"}
	anchor := newFuzzAnchor(b, m, k)
	g.AddNode(anchor)
	in := k
	for _, w := range widths {
		g.AddNode(model.NewLinear("lin", b, m, in, w))
		in = w
	}
	g.Connect(0, 1, 0, []int{0, 1, 2})
	for i := 1; i < len(widths); i++ {
		g.Connect(i, i+1, 0, []int{model.LinB, model.LinM, model.LinK})
	}
	if ext > 0 {
		g.Connect(0, ext, 0, []int{0, 1, 2})
	}
	tail := *anchor
	tail.Name = "tail"
	g.AddNode(&tail)
	g.Connect(len(widths), len(widths)+1, 0, []int{model.LinB, model.LinM, model.LinK})
	if err := g.Validate(); err != nil {
		t.Fatalf("generated graph invalid: %v", err)
	}
	return g
}
