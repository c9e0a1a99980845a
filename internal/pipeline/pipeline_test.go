package pipeline

import (
	"context"
	"testing"

	"repro/internal/device"
	"repro/internal/model"
)

func cluster32() *device.Cluster {
	return device.MustCluster(32, 4, device.V100Profile())
}

func TestConfig3DValidate(t *testing.T) {
	good := Config3D{P: 4, D: 2, M: 4, Microbatch: 2, GlobalBatch: 64}
	if err := good.Validate(32, 96); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config3D{
		{P: 4, D: 2, M: 2, Microbatch: 2, GlobalBatch: 64},  // 16 ≠ 32
		{P: 3, D: 2, M: 4, Microbatch: 2, GlobalBatch: 64},  // not power of two (and 24≠32)
		{P: 4, D: 2, M: 4, Microbatch: 2, GlobalBatch: 3},   // not divisible
		{P: 4, D: 16, M: 1, Microbatch: 2, GlobalBatch: 16}, // zero microbatches... d*mb=32>16
	}
	for i, c := range bad {
		if err := c.Validate(32, 96); err == nil {
			t.Errorf("bad config %d (%v) accepted", i, c)
		}
	}
	// p capped by layer count.
	if err := (Config3D{P: 8, D: 2, M: 2, Microbatch: 2, GlobalBatch: 64}).Validate(32, 4); err == nil {
		t.Error("p > layers accepted")
	}
}

func TestMicrobatches(t *testing.T) {
	c := Config3D{P: 2, D: 4, M: 4, Microbatch: 2, GlobalBatch: 64}
	if got := c.Microbatches(); got != 8 {
		t.Fatalf("Microbatches = %d, want 8", got)
	}
}

// The paper's Fig. 10 sweep on 32 GPUs: all (p,d,m) with p > 1.
func TestAllConfigsSweep(t *testing.T) {
	configs := AllConfigs(32, 96, 64, 2)
	if len(configs) == 0 {
		t.Fatal("no configurations")
	}
	seen := map[string]bool{}
	for _, c := range configs {
		if c.P <= 1 {
			t.Fatalf("config %v has p ≤ 1", c)
		}
		if c.P*c.D*c.M != 32 {
			t.Fatalf("config %v does not fill the machine", c)
		}
		if seen[c.String()] {
			t.Fatalf("duplicate config %v", c)
		}
		seen[c.String()] = true
	}
	// Must include the paper's highlighted configurations.
	for _, want := range []string{"(2,1,16)", "(2,4,4)", "(4,1,8)"} {
		if !seen[want] {
			t.Errorf("sweep missing %s (have %v)", want, configs)
		}
	}
}

func TestEvaluateMegatronAndPrimePar(t *testing.T) {
	cfg := model.OPT6B7()
	c3 := Config3D{P: 2, D: 2, M: 2, Microbatch: 2, GlobalBatch: 32}
	o := NewOptimizer(device.MustCluster(8, 4, device.V100Profile()))

	mega, err := o.Plan3D(context.Background(), Plan3DRequest{Model: cfg, System: Megatron, Config: &c3})
	if err != nil {
		t.Fatal(err)
	}
	prime, err := o.Plan3D(context.Background(), Plan3DRequest{Model: cfg, System: PrimePar, Config: &c3})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Plan3D{mega, prime} {
		if r.IterationTime <= 0 || r.Throughput <= 0 || r.PeakMemoryBytes <= 0 {
			t.Fatalf("%v: degenerate result %+v", r.System, r)
		}
		if bf := r.Breakdown.BubbleFraction; bf <= 0 || bf >= 1 {
			t.Fatalf("%v: bubble fraction %v out of (0,1)", r.System, bf)
		}
	}
	// Identical (p,d,m): PrimePar's searched strategy must not lose.
	if prime.Throughput < mega.Throughput*0.999 {
		t.Fatalf("PrimePar %v below Megatron %v at same (p,d,m)",
			prime.Throughput, mega.Throughput)
	}
	// PrimePar must not partition the batch axis (d controlled externally).
	for i, s := range prime.Stages[0].Seqs {
		for ax, a := range cfgAxes(prime, i) {
			if a == "B" && s.NumSlices(ax) > 1 {
				t.Fatalf("PrimePar split batch axis at node %d", i)
			}
		}
	}
}

// cfgAxes returns node i's axis names from the evaluated strategy's graph
// shape (rebuild the block; names are stable).
func cfgAxes(r *Plan3D, node int) []string {
	g, err := model.BuildBlock(model.OPT6B7().WithBatch(r.Config.Microbatch))
	if err != nil {
		panic(err)
	}
	return g.Nodes[node].AxisNames()
}

// Degenerate tensor parallelism (m=1): both systems collapse to pure
// pipeline+data parallelism and must agree.
func TestEvaluateM1(t *testing.T) {
	cfg := model.OPT6B7()
	c3 := Config3D{P: 4, D: 2, M: 1, Microbatch: 2, GlobalBatch: 64}
	o := NewOptimizer(device.MustCluster(8, 4, device.V100Profile()))
	mega, err := o.Plan3D(context.Background(), Plan3DRequest{Model: cfg, System: Megatron, Config: &c3})
	if err != nil {
		t.Fatal(err)
	}
	prime, err := o.Plan3D(context.Background(), Plan3DRequest{Model: cfg, System: PrimePar, Config: &c3})
	if err != nil {
		t.Fatal(err)
	}
	if mega.IterationTime != prime.IterationTime {
		t.Fatalf("m=1: systems diverge (%v vs %v)", mega.IterationTime, prime.IterationTime)
	}
}

// More microbatches shrink the bubble (GPipe/1F1B arithmetic).
func TestBubbleShrinksWithMicrobatches(t *testing.T) {
	cfg := model.OPT6B7()
	o := NewOptimizer(device.MustCluster(8, 4, device.V100Profile()))
	small := Config3D{P: 4, D: 1, M: 2, Microbatch: 2, GlobalBatch: 16}
	big := Config3D{P: 4, D: 1, M: 2, Microbatch: 2, GlobalBatch: 128}
	a, err := o.Plan3D(context.Background(), Plan3DRequest{Model: cfg, System: Megatron, Config: &small})
	if err != nil {
		t.Fatal(err)
	}
	b, err := o.Plan3D(context.Background(), Plan3DRequest{Model: cfg, System: Megatron, Config: &big})
	if err != nil {
		t.Fatal(err)
	}
	if b.Breakdown.BubbleFraction >= a.Breakdown.BubbleFraction {
		t.Fatalf("bubble did not shrink: %v → %v", a.Breakdown.BubbleFraction, b.Breakdown.BubbleFraction)
	}
	if b.Throughput <= a.Throughput {
		t.Fatalf("throughput did not improve with more microbatches")
	}
}

// An unpinned Plan3D scans every grid configuration: none of them may beat
// its answer.
func TestBestScansConfigs(t *testing.T) {
	cfg := model.OPT6B7()
	o := NewOptimizer(device.MustCluster(8, 4, device.V100Profile()))
	best, err := o.Plan3D(context.Background(), Plan3DRequest{
		Model: cfg, System: Megatron, GlobalBatch: 64, Microbatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	configs := AllConfigs(8, cfg.Layers, 64, 2)
	if len(configs) < 2 {
		t.Fatalf("expected several configs, got %d", len(configs))
	}
	for _, c3 := range configs {
		c3 := c3
		r, err := o.Plan3D(context.Background(), Plan3DRequest{Model: cfg, System: Megatron, Config: &c3})
		if err != nil {
			t.Fatal(err)
		}
		if r.Throughput > best.Throughput {
			t.Fatalf("Plan3D missed config %v (%v > %v)", c3, r.Throughput, best.Throughput)
		}
	}
}

func TestSystemString(t *testing.T) {
	if Megatron.String() == "" || PrimePar.String() == "" {
		t.Fatal("empty system names")
	}
	if Megatron.String() == PrimePar.String() {
		t.Fatal("system names collide")
	}
}

var _ = cluster32 // used by longer-running benches in the repo root
