// Regression coverage for scratch-buffer ownership in the DP worker pool.
//
// The sorted-scan kernels thread a *sortScratch through sortAsc; the Bellman
// fold and the tree DP's segment merges run those kernels from parallelChunks
// bands. The ownership rule is: every band allocates its OWN scratch inside
// the band closure (dp.go), and the shared sortedCols built by sortCols is
// written once, serially, before any band starts. A scratch captured outside
// the closure — or one reused across the sequential merges of a segment tree
// while another search's bands are still draining — would alias the counting
// sort's cnt/keys arrays across goroutines: the race detector sees the write
// overlap and, worse, the bucket permutation (and with it witness selection)
// would silently depend on the schedule.
//
// TestTreeDPSharedCacheRace is the -race regression for that rule: several
// searches race over ONE SearchCache with the worker pool forced wide via
// PRIMEPAR_WORKERS, so per-search pool bands, cross-call cache publication
// and the tree DP's merge scratch all overlap. Results must stay
// bit-identical to a serial uncached reference regardless of schedule.
package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/model"
)

func TestTreeDPSharedCacheRace(t *testing.T) {
	t.Setenv(WorkersEnv, "4")

	cfg := model.OPT6B7()
	g, err := model.BuildBlock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cluster := device.MustCluster(8, 4, device.V100Profile())

	ref := NewOptimizer(cost.NewModel(cluster))
	ref.Cost.Alpha = 1e-12
	ref.Opts.Parallelism = 1
	ref.Opts.DisableCache = true
	want, err := ref.Plan(context.Background(), PlanRequest{Graph: g, Layers: cfg.Layers})
	if err != nil {
		t.Fatal(err)
	}

	shared := NewSearchCache()
	const searches = 4
	got := make([]*Strategy, searches)
	errs := make([]error, searches)
	var wg sync.WaitGroup
	for i := 0; i < searches; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Parallelism left unset: the PRIMEPAR_WORKERS override applies,
			// so every search spreads its Bellman and merge bands across the
			// pool while racing the others for the shared cache.
			o := NewOptimizer(cost.NewModel(cluster))
			o.Cost.Alpha = 1e-12
			o.Cache = shared
			got[i], errs[i] = o.Plan(context.Background(), PlanRequest{Graph: g, Layers: cfg.Layers})
		}(i)
	}
	wg.Wait()
	for i := 0; i < searches; i++ {
		if errs[i] != nil {
			t.Fatalf("search %d: %v", i, errs[i])
		}
		sameStrategy(t, "racing-vs-serial", got[i], want)
	}
}
