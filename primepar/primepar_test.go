package primepar

import (
	"context"
	"strings"
	"testing"
)

func TestModelsAndLookup(t *testing.T) {
	if len(Models()) != 6 {
		t.Fatalf("Models() = %d entries, want 6", len(Models()))
	}
	cfg, err := ModelByName("Llama2-70B")
	if err != nil || cfg.Layers != 80 {
		t.Fatalf("ModelByName: %+v, %v", cfg, err)
	}
	if _, err := ModelByName("nope"); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestNewCluster(t *testing.T) {
	c, err := NewCluster(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumDevices != 8 || c.NumNodes() != 2 {
		t.Fatalf("cluster misbuilt: %+v", c)
	}
	if _, err := NewCluster(5, 4); err == nil {
		t.Fatal("non-power-of-two accepted")
	}
}

func TestSearchSimulateDescribe(t *testing.T) {
	cluster, err := NewCluster(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Search(OPT6B7(), cluster)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Seqs) != 13 {
		t.Fatalf("plan has %d node strategies", len(plan.Seqs))
	}
	if plan.PredictedCost <= 0 {
		t.Fatal("non-positive predicted cost")
	}
	rep, err := plan.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if rep.IterationTime <= 0 {
		t.Fatal("degenerate simulation")
	}
	desc := plan.Describe()
	for _, want := range []string{"PrimePar", "fc1", "qkv", "𝒫"} {
		if !strings.Contains(desc, want) {
			t.Fatalf("Describe missing %q:\n%s", want, desc)
		}
	}
	if plan.TokensPerIteration() != float64(8*2048) {
		t.Fatalf("TokensPerIteration = %v", plan.TokensPerIteration())
	}
}

func TestSearchOptions(t *testing.T) {
	cluster, err := NewCluster(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	spatial, err := Search(OPT175B(), cluster, Options{SpatialOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if spatial.UsesPrime() {
		t.Fatal("spatial-only plan uses Prime")
	}
	full, err := Search(OPT175B(), cluster)
	if err != nil {
		t.Fatal(err)
	}
	if full.PredictedCost > spatial.PredictedCost {
		t.Fatalf("full space (%v) worse than spatial-only (%v)",
			full.PredictedCost, spatial.PredictedCost)
	}
	noBatch, err := Search(OPT6B7(), cluster, Options{NoBatchSplit: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range noBatch.Seqs {
		// Batch axis is axis 0 on every node of the block graph.
		if s.NumSlices(0) > 1 {
			t.Fatal("NoBatchSplit violated")
		}
	}
}

func TestMegatronPlan(t *testing.T) {
	cluster, err := NewCluster(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := MegatronPlan(OPT6B7(), cluster, -1)
	if err != nil {
		t.Fatal(err)
	}
	if auto.UsesPrime() {
		t.Fatal("Megatron plan uses Prime")
	}
	fixed, err := MegatronPlan(OPT6B7(), cluster, 1)
	if err != nil {
		t.Fatal(err)
	}
	if auto.PredictedCost > fixed.PredictedCost+1e-12 {
		t.Fatal("auto-selected Megatron worse than a fixed configuration")
	}
	if _, err := MegatronPlan(OPT6B7(), cluster, 9); err == nil {
		t.Fatal("absurd dBits accepted")
	}
}

func TestEvaluate3D(t *testing.T) {
	cluster, err := NewCluster(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	c3 := Config3D{P: 2, D: 2, M: 2, Microbatch: 2, GlobalBatch: 32}
	prime, err := Plan3D(ctx, OPT6B7(), cluster, Plan3DRequest{System: SystemPrimePar, Config: &c3})
	if err != nil {
		t.Fatal(err)
	}
	mega, err := Plan3D(ctx, OPT6B7(), cluster, Plan3DRequest{System: SystemMegatron, Config: &c3})
	if err != nil {
		t.Fatal(err)
	}
	if prime.Throughput < mega.Throughput*0.999 {
		t.Fatalf("PrimePar 3D (%v) below Megatron (%v)", prime.Throughput, mega.Throughput)
	}
	best, err := Plan3D(ctx, OPT6B7(), cluster, Plan3DRequest{System: SystemPrimePar, GlobalBatch: 64, Microbatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	if best.Throughput < prime.Throughput*0.999 {
		t.Fatal("Plan3D returned a sub-optimal configuration")
	}
}

func TestSearchRejectsMultipleOptions(t *testing.T) {
	cluster, _ := NewCluster(4, 4)
	if _, err := Search(OPT6B7(), cluster, Options{}, Options{}); err == nil {
		t.Fatal("multiple Options accepted")
	}
}

func TestVerifyTraining(t *testing.T) {
	for k := 1; k <= 2; k++ {
		maxErr, err := VerifyTraining(k, 8, 8, 8)
		if err != nil {
			t.Fatal(err)
		}
		if maxErr > 1e-9 {
			t.Fatalf("k=%d: semantics deviation %g", k, maxErr)
		}
	}
	if _, err := VerifyTraining(1, 7, 8, 8); err == nil {
		t.Fatal("non-divisible size accepted")
	}
}

func TestPlanCheck(t *testing.T) {
	cluster, err := NewCluster(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	// A small model on few devices fits comfortably: no memory warning,
	// but OPT's batch of 8 may legitimately slice unevenly — assert only
	// that Check runs and the memory warning logic fires for a huge model.
	small, err := Search(OPT6B7(), cluster)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := small.Check(); err != nil {
		t.Fatal(err)
	}
	big, err := Search(OPT175B(), cluster)
	if err != nil {
		t.Fatal(err)
	}
	warns, err := big.Check()
	if err != nil {
		t.Fatal(err)
	}
	foundMem := false
	for _, w := range warns {
		if strings.Contains(w, "capacity") {
			foundMem = true
		}
	}
	if !foundMem {
		t.Fatalf("175B without pipeline must overflow 32 GiB; warnings: %v", warns)
	}
	// Arity errors are hard failures, not warnings.
	broken := *big
	broken.Seqs = big.Seqs[:3]
	if _, err := broken.Check(); err == nil {
		t.Fatal("truncated plan accepted")
	}
}

func TestPlanExplain(t *testing.T) {
	cluster, err := NewCluster(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Search(OPT175B(), cluster)
	if err != nil {
		t.Fatal(err)
	}
	out, err := plan.Explain()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fc1", "qkv", "𝒫", "memory"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Explain missing %q:\n%s", want, out)
		}
	}
}
