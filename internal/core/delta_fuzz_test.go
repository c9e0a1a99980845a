// Delta-equivalence fuzzing: the contract of delta.go is that planning
// against a cache warmed by a DIFFERENT request is invisible in the result —
// only in the stats. The fuzzer decodes a base request plus a single-
// dimension perturbation (α shift, device-count change, one graph edit,
// layer-count change), warms a shared cache with the base request, delta-
// plans the perturbed one against it, and demands bit-identity with the
// uncached reference plan (referencePlan) of the perturbed request.
// Per-dimension reuse assertions pin the frontier matrix: an α shift must
// not re-evaluate nodes, a layer change must be served from the layer table
// by stacking alone, an appended op must hit the signature memo. The
// perturbed request is then replayed once more: the identical repeat must be
// a plan hit, still bit-identical to the reference.
package core

import (
	"context"
	"testing"

	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/partition"
)

// newFuzzAnchor builds the splittable identity anchor the fuzz chains hang
// off.
func newFuzzAnchor(b, m, k int) *graph.Op {
	return &graph.Op{
		Name: "anchor",
		Kind: graph.OpIdentity,
		Axes: []graph.Axis{
			{Name: "B", Size: b, Splittable: true},
			{Name: "M", Size: m, Splittable: true},
			{Name: "K", Size: k, Splittable: true},
		},
		Tensors:      []graph.Tensor{{Name: "O", Kind: graph.Output, Axes: []int{0, 1, 2}}},
		Reductions:   map[partition.Phase][]graph.Reduction{},
		PrimeM:       -1,
		PrimeN:       -1,
		PrimeK:       -1,
		OutputTensor: 0,
	}
}

// deltaAlphas are the α values the fuzzer picks from; all bit-distinct, so
// any two different indices exercise the α frontier.
var deltaAlphas = []float64{1e-12, 1e-10, 0}

// deltaParams is a decoded plan request, held in a struct so the base and
// perturbed requests can share it.
type deltaParams struct {
	b, m, k  int
	length   int
	ext      int // extended-edge target in [2, length]; 0 = none
	layers   int
	alphaIdx int
	devices  int
}

// Perturbation dimensions.
const (
	deltaDimAlpha = iota
	deltaDimDevices
	deltaDimGraphEdit
	deltaDimLayers
)

// deltaParamsFromBytes decodes a base request and a single-dimension
// perturbation of it. The zero stream decodes to the smallest chain with an
// α-shift perturbation.
func deltaParamsFromBytes(r *byteReader) (base, pert deltaParams, dim int) {
	base = deltaParams{
		b:        2 << r.intn(2),
		m:        4 << r.intn(2),
		k:        4 << r.intn(2),
		length:   1 + r.intn(6),
		layers:   1 + r.intn(2),
		alphaIdx: r.intn(3),
		devices:  4,
	}
	if base.length >= 2 && r.next()&1 == 0 {
		base.ext = 2 + r.intn(base.length-1)
	}
	dim = r.intn(4)
	pert = base
	switch dim {
	case deltaDimAlpha:
		pert.alphaIdx = (base.alphaIdx + 1 + r.intn(2)) % 3
	case deltaDimDevices:
		pert.devices = 2
	case deltaDimGraphEdit:
		// One graph edit: append one more linear before the tail. The
		// extended-edge target (≤ base.length) stays valid.
		pert.length++
	case deltaDimLayers:
		pert.layers += 1 + r.intn(2)
	}
	return base, pert, dim
}

// deltaGraph materializes the chain a deltaParams describes: an identity
// anchor, length linears, an optional extended edge anchor→ext and a tail
// identity in the anchor's space (so the chain stacks). Built from the
// struct, base and perturbed graphs differ by exactly the perturbed field.
func deltaGraph(t *testing.T, p deltaParams) *graph.Graph {
	t.Helper()
	g := &graph.Graph{Name: "delta-fuzz"}
	anchor := newFuzzAnchor(p.b, p.m, p.k)
	g.AddNode(anchor)
	for i := 0; i < p.length; i++ {
		g.AddNode(model.NewLinear("lin", p.b, p.m, p.k, p.k))
	}
	g.Connect(0, 1, 0, []int{0, 1, 2})
	for i := 1; i < p.length; i++ {
		g.Connect(i, i+1, 0, []int{model.LinB, model.LinM, model.LinK})
	}
	if p.ext > 0 {
		g.Connect(0, p.ext, 0, []int{0, 1, 2})
	}
	tail := *anchor
	tail.Name = "tail"
	g.AddNode(&tail)
	g.Connect(p.length, p.length+1, 0, []int{model.LinB, model.LinM, model.LinK})
	if err := g.Validate(); err != nil {
		t.Fatalf("generated graph invalid: %v", err)
	}
	return g
}

// deltaPlan runs one request. cache == nil selects the uncached reference
// (referencePlan); otherwise the shared cross-call cache is attached.
func deltaPlan(t *testing.T, p deltaParams, cache *SearchCache) *Strategy {
	t.Helper()
	per := 4
	if p.devices < per {
		per = p.devices
	}
	mdl := cost.NewModel(device.MustCluster(p.devices, per, device.V100Profile()))
	mdl.Alpha = deltaAlphas[p.alphaIdx]
	o := NewOptimizer(mdl)
	o.Cache = cache
	g := deltaGraph(t, p)
	var strat *Strategy
	var err error
	if cache == nil {
		strat, err = referencePlan(o, g, p.layers)
	} else {
		strat, err = o.Plan(context.Background(), PlanRequest{Graph: g, Layers: p.layers})
	}
	if err != nil {
		t.Fatalf("plan %+v: %v", p, err)
	}
	return strat
}

func FuzzDeltaPlanEquivalence(f *testing.F) {
	f.Add([]byte{})                             // minimal chain, α shift
	f.Add([]byte{2, 0, 1, 1, 0, 0, 0, 0, 0, 1}) // length 2, ext edge, α shift to index 2
	f.Add([]byte{0, 0, 0, 3, 0, 0, 1, 1})       // length 4, device-count change
	f.Add([]byte{1, 1, 1, 4, 1, 1, 0, 2, 2})    // length 5, ext edge at 4, graph edit
	f.Add([]byte{0, 1, 0, 2, 0, 2, 1, 3, 0})    // length 3, α=0 base, layer change
	f.Add([]byte{1, 2, 0, 5, 1, 1, 0, 3, 3, 1}) // length 6, ext edge, layer change
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &byteReader{data: data}
		base, pert, dim := deltaParamsFromBytes(r)

		shared := NewSearchCache()
		deltaPlan(t, base, shared) // warm the cache with the base request

		delta := deltaPlan(t, pert, shared)
		cold := deltaPlan(t, pert, nil)
		sameStrategy(t, "delta-vs-cold", delta, cold)

		again := deltaPlan(t, pert, shared)
		sameStrategy(t, "plan-hit-vs-cold", again, cold)
		if s := again.Stats; s.CrossCallPlanHits != 1 || s.SegTablesBuilt != 0 || s.EntriesScanned != 0 ||
			s.NodeEvals != 0 || s.EdgeMatsBuilt != 0 {
			t.Errorf("identical repeat missed the plan tier: %+v", s)
		}

		s := delta.Stats
		switch dim {
		case deltaDimAlpha:
			// α is excluded from node and edge keys but folded into the
			// table key: the quadratic stages hit, the DP re-runs.
			if s.NodeEvals != 0 || s.EdgeMatsBuilt != 0 {
				t.Errorf("α shift re-ran quadratic stages: %+v", s)
			}
			if s.CrossCallNodeHits == 0 {
				t.Errorf("α shift missed the node tier: %+v", s)
			}
			if s.CrossCallTableHits != 0 || s.SegTablesBuilt == 0 {
				t.Errorf("α shift must rebuild the layer table: %+v", s)
			}
		case deltaDimLayers:
			// A layer change misses only the plan tier: the layer table
			// hits, and stacking is all that re-runs.
			if s.NodeEvals != 0 || s.EdgeMatsBuilt != 0 || s.CrossCallEdgeHits != 0 {
				t.Errorf("layer change consulted the edge stage: %+v", s)
			}
			if s.SegTablesBuilt != 0 || s.CrossCallTableHits != 1 {
				t.Errorf("layer change missed the layer table: %+v", s)
			}
		case deltaDimGraphEdit:
			// The appended linear shares its signature with the existing
			// ones, so no node re-evaluates; with ≥ 2 linears in the base,
			// every edge kind was seen too.
			if s.NodeEvals != 0 {
				t.Errorf("appended duplicate op re-evaluated nodes: %+v", s)
			}
			if base.length >= 2 && s.EdgeMatsBuilt != 0 {
				t.Errorf("appended duplicate op rebuilt edges: %+v", s)
			}
		case deltaDimDevices:
			// A device-count change invalidates the environment prefix:
			// only bit-identity is claimed, no reuse.
		}
	})
}
