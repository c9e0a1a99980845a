package core

import (
	"context"
	"math"
	"os"
	"runtime"
	"testing"

	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/partition"
)

// equivScales returns the device scales the equivalence matrix runs at.
// Scales 4 and 8 always run; 16 is skipped under -short; 32 costs a full
// uncached 32-device search per model (~40 s each) and only runs when
// PRIMEPAR_EQUIV_FULL=1.
func equivScales(t *testing.T) []int {
	t.Helper()
	scales := []int{4, 8}
	if !testing.Short() {
		scales = append(scales, 16)
	}
	if os.Getenv("PRIMEPAR_EQUIV_FULL") == "1" {
		scales = append(scales, 32)
	}
	return scales
}

func sameStrategy(t *testing.T, label string, a, b *Strategy) {
	t.Helper()
	if a.TotalCost != b.TotalCost || a.LayerCost != b.LayerCost {
		t.Fatalf("%s: costs differ: total %v vs %v, layer %v vs %v",
			label, a.TotalCost, b.TotalCost, a.LayerCost, b.LayerCost)
	}
	if len(a.Seqs) != len(b.Seqs) {
		t.Fatalf("%s: strategy lengths differ: %d vs %d", label, len(a.Seqs), len(b.Seqs))
	}
	for i := range a.Seqs {
		if a.Seqs[i].Key() != b.Seqs[i].Key() {
			t.Fatalf("%s: node %d assignment differs: %v vs %v", label, i, a.Seqs[i], b.Seqs[i])
		}
		if a.Intra[i] != b.Intra[i] {
			t.Fatalf("%s: node %d intra cost differs: %+v vs %+v", label, i, a.Intra[i], b.Intra[i])
		}
	}
}

// TestSearchEquivalenceSerialUncached runs the production search (signature
// memo + edge cache + table-driven edge evaluator + worker pool) against the
// uncached reference (referencePlan) on all six paper models and asserts
// BIT-IDENTICAL strategies and costs — the caches and the fast evaluator
// must be invisible.
func TestSearchEquivalenceSerialUncached(t *testing.T) {
	for _, cfg := range model.All() {
		g, err := model.BuildBlock(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, scale := range equivScales(t) {
			m := cost.NewModel(device.MustCluster(scale, 4, device.V100Profile()))
			m.Alpha = 1e-12
			fast := NewOptimizer(m)
			fast.Opts.Parallelism = 4
			fast.Cache = NewSearchCache() // a cold search, whatever ran before
			got, err := fast.Plan(context.Background(), PlanRequest{Graph: g, Layers: cfg.Layers})
			if err != nil {
				t.Fatalf("%s@%d fast: %v", cfg.Name, scale, err)
			}
			want, err := referencePlan(NewOptimizer(m), g, cfg.Layers)
			if err != nil {
				t.Fatalf("%s@%d reference: %v", cfg.Name, scale, err)
			}
			sameStrategy(t, cfg.Name, got, want)

			// The production run must actually have used the caches the
			// reference bypassed: the block repeats norms and residuals
			// and duplicates residual/attention edges.
			if got.Stats.NodeCacheHits == 0 {
				t.Errorf("%s@%d: no node-cache hits on a block with repeated ops", cfg.Name, scale)
			}
			if got.Stats.EdgeCacheHits == 0 {
				t.Errorf("%s@%d: no edge-cache hits on a block with duplicate edges", cfg.Name, scale)
			}
			if want.Stats.NodeCacheHits != 0 || want.Stats.EdgeCacheHits != 0 {
				t.Errorf("%s@%d: reference reported cache hits", cfg.Name, scale)
			}
		}
	}
}

// searchCounters strips from s what legitimately varies with the worker
// count: wall times and the recorded pool width.
func searchCounters(s SearchStats) SearchStats {
	s.Workers = 0
	s.NodeEvalTime, s.EdgeMatTime, s.DPTime, s.StackTime, s.TotalTime = 0, 0, 0, 0, 0
	return s
}

// linearChain is six structurally identical linears joined by identical
// edges: one node-evaluation slot and one edge build, so both outer pool
// loops have a single task and pass every worker on to the inner row and
// band loops, while the chain's Bellman steps run min-plus products (on 16
// devices, some of them two-sided).
func linearChain() *graph.Graph {
	g := &graph.Graph{Name: "linear-chain"}
	for i := 0; i < 6; i++ {
		g.AddNode(model.NewLinear("lin", 64, 1024, 1024, 1024))
		if i > 0 {
			g.Connect(i-1, i, 0, []int{model.LinB, model.LinM, model.LinK})
		}
	}
	return g
}

// TestSearchDeterminismAcrossWorkers pins scheduling-independence: one
// worker vs many must produce identical strategies, costs and work counts
// (all parallel writes land in disjoint slots). It covers both fan-out
// branches of the pool: a block search, whose node and edge loops have many
// tasks that each run inline, and a graph whose outer loops have one task
// each, so the inner loops fan out instead. The unpruned layer DP of both
// runs long min-plus products on the two-sided kernel: its per-product
// choice and the sampled rows' reused answers must not depend on the bands
// either.
func TestSearchDeterminismAcrossWorkers(t *testing.T) {
	block, err := model.BuildBlock(model.OPT175B())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		g       *graph.Graph
		devices int
		oneTask bool
	}{
		{"many-outer-tasks", block, 8, false},
		{"one-outer-task", linearChain(), 16, true},
	} {
		m := cost.NewModel(device.MustCluster(tc.devices, 4, device.V100Profile()))
		plan := func(workers int) *Strategy {
			o := NewOptimizer(m)
			o.Cache = NewSearchCache() // isolate: warm cross-call entries would zero the work counts
			o.Opts.Parallelism = workers
			s, err := o.Plan(context.Background(), PlanRequest{Graph: tc.g, Layers: 3})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			return s
		}
		a := plan(1)
		if single := a.Stats.NodeEvals == 1 && a.Stats.EdgeMatsBuilt == 1; single != tc.oneTask {
			t.Fatalf("%s: %d node evals, %d edge builds; one-task branch = %v, want %v",
				tc.name, a.Stats.NodeEvals, a.Stats.EdgeMatsBuilt, single, tc.oneTask)
		}
		// The bound leaves Plan's DP too few candidates for a long product,
		// so the two-sided kernel is pinned on the unpruned layer DP of the
		// same inputs.
		fullDP := func(workers int) *Strategy {
			o := NewOptimizer(m)
			o.Opts.Parallelism = workers
			return unprunedPlan(t, o, tc.g, 3)
		}
		fa := fullDP(1)
		if fa.Stats.DPTwoSidedProducts == 0 {
			t.Fatalf("%s: no product of the unpruned layer DP ran the two-sided kernel", tc.name)
		}
		for _, workers := range []int{2, 4, 7} {
			b := plan(workers)
			sameStrategy(t, tc.name, a, b)
			if searchCounters(a.Stats) != searchCounters(b.Stats) {
				t.Fatalf("%s workers=%d: work counts differ:\n%+v\n%+v", tc.name, workers, a.Stats, b.Stats)
			}
			fb := fullDP(workers)
			sameStrategy(t, tc.name+" unpruned", fa, fb)
			if searchCounters(fa.Stats) != searchCounters(fb.Stats) {
				t.Fatalf("%s workers=%d: unpruned work counts differ:\n%+v\n%+v", tc.name, workers, fa.Stats, fb.Stats)
			}
			if b.Stats.Workers != workers {
				t.Fatalf("%s: Stats.Workers = %d, want %d", tc.name, b.Stats.Workers, workers)
			}
		}
	}
}

// TestWorkersEnvOverride covers the PRIMEPAR_WORKERS resolution order
// (Opts.Parallelism wins, then the environment, then GOMAXPROCS) and the
// invalid-override diagnostic: a bad value falls back to GOMAXPROCS AND is
// reported once, never silently ignored.
func TestWorkersEnvOverride(t *testing.T) {
	o := optimizerFor(t, 4, 4)
	t.Setenv(WorkersEnv, "3")
	if got := o.Workers(); got != 3 {
		t.Fatalf("Workers() = %d with %s=3, want 3", got, WorkersEnv)
	}
	o.Opts.Parallelism = 2
	if got := o.Workers(); got != 2 {
		t.Fatalf("Workers() = %d, Opts.Parallelism must take precedence", got)
	}

	def := runtime.GOMAXPROCS(0)
	for _, bad := range []string{"not-a-number", "0", "-3", "1.5", ""} {
		o.Opts.Parallelism = 0
		workersEnvWarned.Store(false)
		t.Setenv(WorkersEnv, bad)
		if got := o.Workers(); got != def {
			t.Fatalf("Workers() = %d with %s=%q, want GOMAXPROCS fallback %d", got, WorkersEnv, bad, def)
		}
		if bad == "" {
			// Unset is not a misconfiguration; no warning.
			if workersEnvWarned.Load() {
				t.Fatalf("empty %s warned", WorkersEnv)
			}
			continue
		}
		if !workersEnvWarned.Load() {
			t.Fatalf("invalid %s=%q was silently ignored", WorkersEnv, bad)
		}
		// Opts.Parallelism still wins over a broken environment.
		o.Opts.Parallelism = 5
		if got := o.Workers(); got != 5 {
			t.Fatalf("Workers() = %d with %s=%q and Parallelism=5", got, WorkersEnv, bad)
		}
	}
}

// TestParseWorkersEnv pins the diagnostics themselves.
func TestParseWorkersEnv(t *testing.T) {
	if n, warn := parseWorkersEnv("8"); n != 8 || warn != "" {
		t.Fatalf("parseWorkersEnv(8) = %d, %q", n, warn)
	}
	for _, bad := range []string{"x", "0", "-1", "2.0", " 3"} {
		if n, warn := parseWorkersEnv(bad); warn == "" {
			t.Fatalf("parseWorkersEnv(%q) = %d with no diagnostic", bad, n)
		}
	}
}

// repeatedLinearChain builds anchor → lin → lin → lin with an extended
// residual edge anchor→lin3: three structurally identical nodes and two
// structurally identical edges, so both memo caches must fire.
func repeatedLinearChain() *graph.Graph {
	g := &graph.Graph{Name: "repeated-chain"}
	anchor := &graph.Op{
		Name: "anchor",
		Kind: graph.OpIdentity,
		Axes: []graph.Axis{
			{Name: "B", Size: 4, Splittable: true},
			{Name: "M", Size: 8, Splittable: true},
			{Name: "K", Size: 8, Splittable: true},
		},
		Tensors:      []graph.Tensor{{Name: "O", Kind: graph.Output, Axes: []int{0, 1, 2}}},
		Reductions:   map[partition.Phase][]graph.Reduction{},
		PrimeM:       -1,
		PrimeN:       -1,
		PrimeK:       -1,
		OutputTensor: 0,
	}
	g.AddNode(anchor)
	for i := 0; i < 3; i++ {
		g.AddNode(model.NewLinear("lin", 4, 8, 8, 8))
	}
	g.Connect(0, 1, 0, []int{0, 1, 2})
	g.Connect(1, 2, 0, []int{model.LinB, model.LinM, model.LinK})
	g.Connect(2, 3, 0, []int{model.LinB, model.LinM, model.LinK})
	g.Connect(0, 3, 0, []int{0, 1, 2}) // extended residual hand-off
	return g
}

// TestDPMatchesExhaustiveRepeatedNodes extends the oracle coverage to the
// memoized path: repeated identical nodes sharing one nodeCands, duplicate
// edges sharing one matrix, and an extended edge — against both the
// exhaustive oracle and the uncached reference.
func TestDPMatchesExhaustiveRepeatedNodes(t *testing.T) {
	g := repeatedLinearChain()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	o := optimizerFor(t, 4, 4)
	dp, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if dp.Stats.NodeCacheHits < 2 {
		t.Errorf("node cache hits = %d, want ≥ 2 (three identical linears)", dp.Stats.NodeCacheHits)
	}
	if dp.Stats.EdgeCacheHits < 1 {
		t.Errorf("edge cache hits = %d, want ≥ 1 (lin→lin repeats)", dp.Stats.EdgeCacheHits)
	}
	ex, err := o.Exhaustive(g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dp.TotalCost-ex.TotalCost) > 1e-9*ex.TotalCost {
		t.Fatalf("DP cost %v != exhaustive cost %v", dp.TotalCost, ex.TotalCost)
	}
	if got := o.Cost.Overall(g, dp.Seqs); math.Abs(got-dp.TotalCost) > 1e-9*dp.TotalCost {
		t.Fatalf("strategy replays to %v, DP reported %v", got, dp.TotalCost)
	}
	want, err := referencePlan(optimizerFor(t, 4, 4), g, 1)
	if err != nil {
		t.Fatal(err)
	}
	sameStrategy(t, "repeated-chain", dp, want)
}

// TestDPMatchesExhaustiveRepeatedNodesStacked runs the repeated chain through
// layer stacking so shared boundary states ride the memoized path too. The
// chain gets a tail identity (same space as the anchor) so head/tail
// candidate sets line up for stacking — and it duplicates the anchor's
// signature, giving another node-cache hit.
func TestDPMatchesExhaustiveRepeatedNodesStacked(t *testing.T) {
	g := repeatedLinearChain()
	tail := *g.Nodes[0]
	tail.Name = "tail"
	g.AddNode(&tail)
	g.Connect(3, 4, 0, []int{model.LinB, model.LinM, model.LinK})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	o := optimizerFor(t, 4, 4)
	dp, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: 5})
	if err != nil {
		t.Fatal(err)
	}
	want, err := referencePlan(optimizerFor(t, 4, 4), g, 5)
	if err != nil {
		t.Fatal(err)
	}
	sameStrategy(t, "repeated-chain stacked", dp, want)
}
