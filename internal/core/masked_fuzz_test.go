package core

import (
	"context"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/partition"
)

// FuzzMaskedPlanMatchesExhaustive pins the candidate mask (PlanRequest.Keep)
// against brute force over the same masked space. It decodes
// FuzzPeriodicPlanMatchesExhaustive's case (periodicCase), then one mask
// byte per node (fuzzMask), then a gap byte (withGap). Plan with the mask
// must fail exactly when Exhaustive with the same predicate finds no
// assignment, and then name the node left empty. Otherwise its LayerCost
// must equal the masked Exhaustive optimum to 1e-9 relative, every returned
// sequence must be kept at its node, the head and tail must carry one
// candidate, SpaceSizes must count the masked spaces (a head or tail
// candidate is kept only when kept at both), TotalCost must be exactly
// float64(L)·LayerCost, and L × the model cost of the returned Seqs must
// replay to TotalCost.
func FuzzMaskedPlanMatchesExhaustive(f *testing.F) {
	f.Add([]byte{})                                                 // minimal chain, every candidate kept
	f.Add([]byte{1, 1, 1, 2, 2, 3, 0, 31, 0, 0, 1, 0, 5, 2, 9, 0})  // length 3, 4 devices, ~3/4 and ~1/2 of two spaces
	f.Add([]byte{0, 0, 0, 1, 3, 0, 63, 255, 255, 1, 0, 3, 7, 11})   // length 2, ext edge, ~1/4 kept
	f.Add([]byte{1, 0, 1, 2, 1, 0, 2, 7, 16, 0, 0, 0, 1, 2, 2, 2})  // length 3, 2 devices, ext edge at 3
	f.Add([]byte{0, 1, 1, 2, 3, 3, 3, 95, 128, 64, 1, 1, 0, 6, 0})  // length 3, no ext edge, one interior mask
	f.Add([]byte{0, 0, 2, 2, 3, 3, 0, 11, 0x9a, 0x19, 1, 1, 13, 1}) // wide linears, head and tail masked differently
	// Only the tail masked: the head must drop the candidates the tail
	// drops, or the layer it returns does not stack.
	f.Add([]byte("000000000001"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &byteReader{data: data}
		g, mdl, layers, label := periodicCase(t, r)
		keep := fuzzMask(r, len(g.Nodes))
		label = withGap(r, g, label)
		o := NewOptimizer(mdl)
		o.Cache = NewSearchCache()
		s, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: layers, Keep: keep})
		ex, exErr := NewOptimizer(mdl).Exhaustive(g, keep)
		if exErr != nil {
			if err == nil {
				t.Fatalf("%s: exhaustive found no masked assignment (%v), Plan returned one", label, exErr)
			}
			if !strings.Contains(err.Error(), "keeps no candidate of") {
				t.Fatalf("%s: Plan's error %q does not name an empty node", label, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("%s: plan: %v", label, err)
		}
		if d := math.Abs(s.LayerCost - ex.LayerCost); d > 1e-9*ex.LayerCost {
			t.Errorf("%s: layer cost %v, masked exhaustive %v", label, s.LayerCost, ex.LayerCost)
		}
		n := len(g.Nodes)
		for v, q := range s.Seqs {
			if !keep(v, q) {
				t.Errorf("%s: node %d runs %v, which the mask drops", label, v, q)
			}
		}
		if s.Seqs[0].Key() != s.Seqs[n-1].Key() {
			t.Errorf("%s: head/tail differ: %v/%v", label, s.Seqs[0], s.Seqs[n-1])
		}
		if want := maskedSizes(g, mdl.Cluster.Bits(), keep); !slices.Equal(s.SpaceSizes, want) {
			t.Errorf("%s: SpaceSizes %v, masked spaces %v", label, s.SpaceSizes, want)
		}
		if s.TotalCost != float64(layers)*s.LayerCost {
			t.Errorf("%s: total %v != %d × layer cost %v", label, s.TotalCost, layers, s.LayerCost)
		}
		if got := float64(layers) * mdl.Overall(g, s.Seqs); math.Abs(got-s.TotalCost) > 1e-9*s.TotalCost {
			t.Errorf("%s: the returned layer replays to %v, TotalCost %v", label, got, s.TotalCost)
		}
	})
}

// fuzzMask decodes one mask byte per node of an n-node graph from r, missing
// bytes reading as zero. A byte's low two bits set the share of the node's
// space kept (0: all, 1: about 3/4, 2: about 1/2, 3: about 1/4); a hash of the
// whole byte and the sequence key picks which candidates.
func fuzzMask(r *byteReader, n int) func(int, partition.Seq) bool {
	bs := make([]byte, n)
	for v := range bs {
		bs[v] = r.next()
	}
	return func(v int, s partition.Seq) bool {
		d := bs[v] & 3
		if d == 0 {
			return true
		}
		h := fnv.New32a()
		h.Write([]byte{bs[v]})
		h.Write([]byte(s.Key()))
		return byte(h.Sum32()&3) >= d
	}
}

// maskedSizes counts, per node of the stackable graph g, the candidates keep
// accepts, the head's and tail's only where it accepts them at both.
func maskedSizes(g *graph.Graph, nbits int, keep func(int, partition.Seq) bool) []int {
	n := len(g.Nodes)
	sizes := make([]int, n)
	for v, op := range g.Nodes {
		for _, s := range Candidates(op, nbits, DefaultOptions()) {
			if (v == 0 || v == n-1) && !(keep(0, s) && keep(n-1, s)) {
				continue
			}
			if keep(v, s) {
				sizes[v]++
			}
		}
	}
	return sizes
}

// TestMaskedPlanCases pins the mask's edges on a stackable chain at 4
// devices: a mask that empties an interior node, or the head only through
// the tail (each side keeps candidates, but none at both), is an error that
// names the node, as Exhaustive finds no assignment; and an all-true mask
// returns the unmasked Plan's answer bit for bit while neither reading nor
// writing the plan tier.
func TestMaskedPlanCases(t *testing.T) {
	g := periodicChain(t, 4, 8, 16, []int{64, 16, 16}, 0)
	n := len(g.Nodes)
	mdl := cost.NewModel(device.MustCluster(4, 4, device.V100Profile()))
	mdl.Alpha = 1e-12
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		keep func(int, partition.Seq) bool
		want string
	}{
		{"interior node emptied", func(v int, _ partition.Seq) bool { return v != 2 }, "node 2 (lin)"},
		{"head emptied through the tail", func(v int, s partition.Seq) bool {
			switch v {
			case 0:
				return s.Bits() == 0
			case n - 1:
				return s.Bits() > 0
			}
			return true
		}, "layer head, node 0"},
	} {
		o := NewOptimizer(mdl)
		o.Cache = NewSearchCache()
		_, err := o.Plan(ctx, PlanRequest{Graph: g, Layers: 4, Keep: tc.keep})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: Plan error %v, want one naming %q", tc.name, err, tc.want)
		}
		if _, err := o.Exhaustive(g, tc.keep); err == nil {
			t.Fatalf("%s: Exhaustive found an assignment the mask empties", tc.name)
		}
	}

	all := func(int, partition.Seq) bool { return true }
	cache := NewSearchCache()
	o := NewOptimizer(mdl)
	o.Cache = cache
	masked, err := o.Plan(ctx, PlanRequest{Graph: g, Layers: 4, Keep: all})
	if err != nil {
		t.Fatal(err)
	}
	if cache.PlanEntries() != 0 {
		t.Fatalf("a masked search published %d plans", cache.PlanEntries())
	}
	plain, err := o.Plan(ctx, PlanRequest{Graph: g, Layers: 4})
	if err != nil {
		t.Fatal(err)
	}
	sameStrategy(t, "all-true mask", masked, plain)
	if !slices.Equal(masked.SpaceSizes, plain.SpaceSizes) {
		t.Fatalf("all-true mask: space sizes %v, unmasked %v", masked.SpaceSizes, plain.SpaceSizes)
	}
	if plain.Stats.NodeEvals != 0 || cache.PlanEntries() != 1 {
		t.Fatalf("the unmasked search after a masked one: %d node evals, %d plans", plain.Stats.NodeEvals, cache.PlanEntries())
	}
	again, err := o.Plan(ctx, PlanRequest{Graph: g, Layers: 4, Keep: all})
	if err != nil {
		t.Fatal(err)
	}
	if st := again.Stats; st.CrossCallPlanHits != 0 || st.NodeEvals != 0 || st.EdgeMatsBuilt != 0 {
		t.Fatalf("a masked repeat read the plan tier or prepared again: %+v", st)
	}
	sameStrategy(t, "masked repeat", again, plain)
}
