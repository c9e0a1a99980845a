// Full-space fuzzing: the DP is exact over the whole candidate space, and
// the bound pruning (bound.go) drops only candidates that cannot change the
// answer. The two fuzzers keep the names and seed corpora of the fuzzers
// that pinned the deleted dominance pre-filter (DESIGN.md §5.7) and
// two-level scan exit (§5.8) against their Disable* references; they pin the
// same chains against the uncached reference (referencePlan), whose layer DP
// runs unpruned, so bit-identity pins pruned ≡ unpruned. CandsPruned now
// counts the bound's drops; EntriesBoundSkipped stays at zero.
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

// fullSpaceModel is the cost model p decodes to.
func fullSpaceModel(p deltaParams) *cost.Model {
	per := 4
	if p.devices < per {
		per = p.devices
	}
	mdl := cost.NewModel(device.MustCluster(p.devices, per, device.V100Profile()))
	mdl.Alpha = deltaAlphas[p.alphaIdx]
	return mdl
}

// fullSpacePlans plans p with the production configuration (cache + workers,
// on a private cache) and with the uncached reference, and fails unless
// the two are bit-identical.
func fullSpacePlans(t *testing.T, p deltaParams) (prod, ref *Strategy) {
	t.Helper()
	mdl := fullSpaceModel(p)
	g := deltaGraph(t, p)

	o := NewOptimizer(mdl)
	o.Cache = NewSearchCache()
	prod, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: p.layers})
	if err != nil {
		t.Fatalf("plan %+v: %v", p, err)
	}
	ref, err = referencePlan(NewOptimizer(mdl), g, p.layers)
	if err != nil {
		t.Fatalf("reference %+v: %v", p, err)
	}
	sameStrategy(t, "production-vs-reference", prod, ref)
	return prod, ref
}

// prunedCount is Σ(|P| − survivors) over p's layer graph: the candidates
// the bound passes (prune) drop, recomputed from p's prepared inputs.
func prunedCount(t *testing.T, p deltaParams) int {
	t.Helper()
	g := deltaGraph(t, p)
	o := NewOptimizer(fullSpaceModel(p))
	o.Cache = NewSearchCache()
	in, err := o.prepare(context.Background(), g, &SearchStats{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cands, mats := in.cands(o.Cost.Alpha), in.edgeMats(g)
	periodic := checkStackable(cands[0], cands[len(cands)-1]) == nil
	keep, _, _, err := o.prune(context.Background(), g, in, cands, mats, nil, periodic, &SearchStats{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for v, c := range cands {
		n += len(c.seqs) - len(keep[v])
	}
	return n
}

// FuzzDominanceEquivalence pins that the bound pruning drops no candidate
// the answer needs: for any decoded chain the production plan, whose DP
// runs on the survivors, is bit-identical to the reference one, whose DP
// runs on the full space; CandsTotal is exactly the sum of the reported
// space sizes on both sides; production's CandsPruned is Σ(|P| −
// survivors) and the reference's reads zero.
func FuzzDominanceEquivalence(f *testing.F) {
	f.Add([]byte{})                          // minimal chain
	f.Add([]byte{1, 1, 1, 3, 0, 0, 0, 1})    // length 4
	f.Add([]byte{0, 0, 0, 2, 1, 2, 0, 0})    // α = 0 ties, ext edge at 2, 2 layers
	f.Add([]byte{2, 1, 0, 5, 1, 1, 1, 1, 2}) // length 6, 2 layers, 8 devices
	f.Add([]byte{0, 2, 1, 1, 0, 1, 2, 1})    // 2 devices
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeFullSpace(&byteReader{data: data})
		prod, ref := fullSpacePlans(t, p)
		for _, s := range []*Strategy{prod, ref} {
			total := 0
			for _, n := range s.SpaceSizes {
				total += n
			}
			if total == 0 || s.Stats.CandsTotal != total {
				t.Errorf("CandsTotal %d, space sizes sum to %d", s.Stats.CandsTotal, total)
			}
		}
		if want := prunedCount(t, p); prod.Stats.CandsPruned != want {
			t.Errorf("production CandsPruned = %d, want Σ(|P| − survivors) = %d", prod.Stats.CandsPruned, want)
		}
		if ref.Stats.CandsPruned != 0 {
			t.Errorf("reference CandsPruned = %d, want 0", ref.Stats.CandsPruned)
		}
	})
}

// FuzzBoundPruneEquivalence pins that the Bellman folds scan every entry:
// for any decoded chain the production plan is bit-identical to the
// reference one, EntriesBoundSkipped reads zero on both sides, and the
// cached production run never scans more entries than the reference.
func FuzzBoundPruneEquivalence(f *testing.F) {
	// Layout: decodeFullSpace's, then one byte that chose a beam width for
	// the deleted approximate search. It is read and ignored, so the seeds
	// and the checked-in corpus decode the same chains as before and run
	// exact; their names still say "beam".
	f.Add([]byte{})                             // minimal chain
	f.Add([]byte{1, 1, 1, 3, 0, 0, 0, 1, 0})    // length 4
	f.Add([]byte{0, 0, 0, 2, 1, 2, 0, 0, 1})    // α = 0 ties, ext edge at 3, 2 layers
	f.Add([]byte{2, 1, 0, 5, 1, 1, 1, 1, 2, 2}) // length 6, 2 layers, 8 devices
	f.Add([]byte{0, 2, 1, 1, 0, 1, 2, 1, 0})    // 2 devices
	f.Add([]byte{0, 0, 0, 4, 2, 0, 1, 0, 1})    // length 5, 3 layers, 8 devices, ext edge at 3
	f.Add([]byte{0, 0, 0, 4, 1, 2, 0, 1, 1})    // α = 0 ties, length 5
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &byteReader{data: data}
		p := decodeFullSpace(r)
		r.next() // the ignored beam byte
		prod, ref := fullSpacePlans(t, p)
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
