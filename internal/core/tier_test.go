package core

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/partition"
)

// checkTier drives one tier through its contract: entries up to the cap
// coexist, a present key is never overwritten, an insert past the cap
// flushes the tier and keeps the new entry, reset empties it, and merge
// inserts in sorted key order, so the entries that survive a flush do not
// depend on map order. mk returns a fresh value pinning the given cells.
func checkTier[V comparable](t *testing.T, tr *tier[V], mk func(cells int) V) {
	t.Helper()
	tr.cap = 10
	a, b := mk(4), mk(4)
	tr.put("a", a)
	tr.put("b", b)
	if tr.len() != 2 || tr.cells != 8 {
		t.Fatalf("two inserts under the cap: %d entries, %d cells; want 2, 8", tr.len(), tr.cells)
	}
	tr.put("b", mk(1))
	if tr.get("b") != b || tr.cells != 8 {
		t.Fatal("a second insert under a present key replaced it")
	}
	c := mk(3)
	tr.put("c", c)
	if tr.len() != 1 || tr.get("c") != c || tr.cells != 3 {
		t.Fatalf("insert past the cap left %d entries (%d cells); want only the new one", tr.len(), tr.cells)
	}
	tr.reset()
	if tr.len() != 0 || tr.cells != 0 {
		t.Fatalf("reset left %d entries, %d cells", tr.len(), tr.cells)
	}

	// x and y fill the cap; z, merged last, flushes them.
	z := mk(4)
	tr.merge(map[string]V{"z": z, "y": mk(4), "x": mk(4)})
	if tr.len() != 1 || tr.get("z") != z {
		t.Fatalf("merge past the cap kept %d entries; want only the last key in sorted order", tr.len())
	}
}

// TestSearchCacheTiers runs checkTier over all three tiers of a SearchCache,
// each with values its own size function counts as the given cells.
func TestSearchCacheTiers(t *testing.T) {
	t.Run("nodes", func(t *testing.T) {
		checkTier(t, NewSearchCache().nodes, func(n int) *nodeEntry {
			return &nodeEntry{out: []*cost.Iface{{Width: make([]float64, n)}}}
		})
	})
	t.Run("edges", func(t *testing.T) {
		checkTier(t, NewSearchCache().edges, func(n int) *edgeMat { return &edgeMat{nr: n, nc: 1} })
	})
	t.Run("plans", func(t *testing.T) {
		checkTier(t, NewSearchCache().plans, func(n int) *cachedPlan { return &cachedPlan{sizes: make([]int32, n)} })
	})
}

// TestNodeCells pins the node tier's size function on a real entry: per
// candidate five Intra words, six per token and every interface float.
func TestNodeCells(t *testing.T) {
	ifc := func() *cost.Iface {
		return &cost.Iface{NumAxes: 1, Fwd: make([]float64, 2), Bwd: make([]float64, 2), Width: make([]float64, 1)}
	}
	e := &nodeEntry{
		seqs:  []partition.Seq{{Tokens: make([]partition.Token, 2)}},
		intra: make([]cost.Intra, 1),
		out:   []*cost.Iface{ifc()},
		in:    []*cost.Iface{ifc()},
	}
	if got, want := nodeCells(e), int64(5+2*6+2*5); got != want {
		t.Fatalf("nodeCells = %d, want %d", got, want)
	}
}

// TestPlanCells pins the plan tier's size function: per node six words per
// token, five Intra words and one for its space size.
func TestPlanCells(t *testing.T) {
	e := &cachedPlan{
		seqs:  []partition.Seq{{Tokens: make([]partition.Token, 2)}, {}},
		intra: make([]cost.Intra, 2),
		sizes: make([]int32, 2),
	}
	if got, want := planCells(e), int64(2*6+2*5+2); got != want {
		t.Fatalf("planCells = %d, want %d", got, want)
	}
}
