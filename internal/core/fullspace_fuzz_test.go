// Full-space fuzzing: the DP is exact over the whole (post-beam) candidate
// space with no pre-filter and no scan bound. The two fuzzers keep the names
// and seed corpora of the fuzzers that pinned the deleted dominance
// pre-filter (DESIGN.md §5.7) and two-level scan exit (§5.8) against their
// Disable* references; with both mechanisms gone they pin the same chains
// against the SerialUncached reference, and pin that the counters the
// mechanisms fed stay at zero.
package core

import (
	"context"
	"testing"

	"repro/internal/cost"
	"repro/internal/device"
)

// decodeFullSpace decodes a chain, layer count, α (including the tie-heavy
// α = 0) and device count: b, m, k, length-1, layers-1, α, devices, then
// (length ≥ 2) an ext flag (even = ext edge) and its target — each byte taken
// modulo its range, missing bytes read as zero.
func decodeFullSpace(r *byteReader) deltaParams {
	p := deltaParams{
		b:        2 << r.intn(2),
		m:        4 << r.intn(2),
		k:        4 << r.intn(2),
		length:   1 + r.intn(6),
		layers:   1 + r.intn(3),
		alphaIdx: r.intn(3),
		devices:  []int{4, 8, 2}[r.intn(3)],
	}
	if p.length >= 2 && r.next()&1 == 0 {
		p.ext = 2 + r.intn(p.length-1)
	}
	return p
}

// fullSpacePlans plans p with the production configuration (cache + workers,
// on a private cache) and with the SerialUncached reference, both at the given
// beam width, and fails unless the two are bit-identical.
func fullSpacePlans(t *testing.T, p deltaParams, beam int) (prod, ref *Strategy) {
	t.Helper()
	per := 4
	if p.devices < per {
		per = p.devices
	}
	mdl := cost.NewModel(device.MustCluster(p.devices, per, device.V100Profile()))
	mdl.Alpha = deltaAlphas[p.alphaIdx]
	g := deltaGraph(t, p)

	o := NewOptimizer(mdl)
	o.Cache = NewSearchCache()
	o.Opts.Beam = beam
	prod, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: p.layers})
	if err != nil {
		t.Fatalf("plan %+v (beam=%d): %v", p, beam, err)
	}
	r := NewOptimizer(mdl)
	r.Opts = r.Opts.SerialUncached()
	r.Opts.Beam = beam
	ref, err = r.Plan(context.Background(), PlanRequest{Graph: g, Layers: p.layers})
	if err != nil {
		t.Fatalf("reference %+v (beam=%d): %v", p, beam, err)
	}
	sameStrategy(t, "production-vs-reference", prod, ref)
	return prod, ref
}

// FuzzDominanceEquivalence pins that no candidate is filtered out of the
// space: for any decoded chain the production plan is bit-identical to the
// SerialUncached one, CandsTotal is exactly the sum of the reported space
// sizes on both sides, and CandsPruned reads zero.
func FuzzDominanceEquivalence(f *testing.F) {
	f.Add([]byte{})                          // minimal chain
	f.Add([]byte{1, 1, 1, 3, 0, 0, 0, 1})    // length 4
	f.Add([]byte{0, 0, 0, 2, 1, 2, 0, 0})    // α = 0 ties, ext edge at 2, 2 layers
	f.Add([]byte{2, 1, 0, 5, 1, 1, 1, 1, 2}) // length 6, 2 layers, 8 devices
	f.Add([]byte{0, 2, 1, 1, 0, 1, 2, 1})    // 2 devices
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeFullSpace(&byteReader{data: data})
		prod, ref := fullSpacePlans(t, p, 0)
		for _, s := range []*Strategy{prod, ref} {
			total := 0
			for _, n := range s.SpaceSizes {
				total += n
			}
			if total == 0 || s.Stats.CandsTotal != total {
				t.Errorf("CandsTotal %d, space sizes sum to %d", s.Stats.CandsTotal, total)
			}
			if s.Stats.CandsPruned != 0 {
				t.Errorf("CandsPruned = %d, want 0", s.Stats.CandsPruned)
			}
		}
	})
}

// FuzzBoundPruneEquivalence pins that the Bellman folds scan every entry:
// for any decoded chain and beam width (beamed spaces shift the rows-vs-cols
// kernel choice and exercise the class-0 probe reuse on small matrices) the
// production plan is bit-identical to the SerialUncached one,
// EntriesBoundSkipped reads zero on both sides, and the cached production run
// never scans more entries than the reference.
func FuzzBoundPruneEquivalence(f *testing.F) {
	// Layout: decodeFullSpace's, then the beam.
	f.Add([]byte{})                             // minimal chain, no beam
	f.Add([]byte{1, 1, 1, 3, 0, 0, 0, 1, 0})    // length 4
	f.Add([]byte{0, 0, 0, 2, 1, 2, 0, 0, 1})    // α = 0 ties, ext edge at 3, 2 layers
	f.Add([]byte{2, 1, 0, 5, 1, 1, 1, 1, 2, 2}) // length 6, 2 layers, 8 devices, beam 16
	f.Add([]byte{0, 2, 1, 1, 0, 1, 2, 1, 0})    // 2 devices
	f.Add([]byte{0, 0, 0, 4, 2, 0, 1, 0, 1})    // length 5, 3 layers, 8 devices, ext edge at 3
	f.Add([]byte{0, 0, 0, 4, 1, 2, 0, 1, 1})    // α = 0 ties, length 5, beam 8
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &byteReader{data: data}
		p := decodeFullSpace(r)
		beam := []int{0, 8, 16}[r.intn(3)]
		prod, ref := fullSpacePlans(t, p, beam)
		if prod.Stats.EntriesBoundSkipped != 0 || ref.Stats.EntriesBoundSkipped != 0 {
			t.Errorf("EntriesBoundSkipped = %d / %d, want 0",
				prod.Stats.EntriesBoundSkipped, ref.Stats.EntriesBoundSkipped)
		}
		if prod.Stats.EntriesScanned > ref.Stats.EntriesScanned {
			t.Errorf("production scanned %d entries, reference only %d",
				prod.Stats.EntriesScanned, ref.Stats.EntriesScanned)
		}
	})
}
