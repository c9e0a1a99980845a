package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/calibrate"
	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/model"
)

// TestPlanTierRepeatBitIdentical pins the plan tier on the quick Table-2
// cells (OPT-6.7B and Llama2-70B at 4 and 8 devices): an identical repeat
// must return the same Strategy in everything but Stats, and do so from the
// plan tier — no segment table built and no min-plus entry scanned.
func TestPlanTierRepeatBitIdentical(t *testing.T) {
	for _, cfg := range []model.Config{model.OPT6B7(), model.Llama2_70B()} {
		g, err := model.BuildBlock(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, scale := range []int{4, 8} {
			m := cost.NewModel(device.MustCluster(scale, 4, device.V100Profile()))
			m.Alpha = 1e-12
			o := NewOptimizer(m)
			o.Cache = NewSearchCache()
			req := PlanRequest{Graph: g, Layers: cfg.Layers}
			first, err := o.Plan(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			second, err := o.Plan(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s@%d", cfg.Name, scale)
			if s := second.Stats; s.SegTablesBuilt != 0 || s.EntriesScanned != 0 || s.CrossCallPlanHits != 1 ||
				s.NodeEvals != 0 || s.EdgeMatsBuilt != 0 {
				t.Errorf("%s: repeat not served from the plan tier: %+v", label, s)
			}
			if first.Stats.CrossCallPlanHits != 0 {
				t.Errorf("%s: cold search reported a plan hit", label)
			}
			a, b := *first, *second
			a.Stats, b.Stats = SearchStats{}, SearchStats{}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s: plan-tier repeat differs from the search that published it", label)
			}
		}
	}
}

// withBook attaches a calibration Book profiled on o's cluster: the one
// configuration that bypasses the cross-call cache.
func withBook(t *testing.T, o *Optimizer) *Optimizer {
	t.Helper()
	book, err := calibrate.Profile(o.Cost.Cluster, calibrate.Noise{})
	if err != nil {
		t.Fatal(err)
	}
	o.Cost.Book = book
	return o
}

// TestPlanTierBypass: a calibrated optimizer publishes nothing and never
// hits, like every other tier.
func TestPlanTierBypass(t *testing.T) {
	g := repeatedLinearChain()
	o := withBook(t, optimizerFor(t, 4, 4))
	o.Cache = NewSearchCache()
	for i := 0; i < 2; i++ {
		s, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if s.Stats.CrossCallPlanHits != 0 {
			t.Fatalf("calibrated repeat hit the plan tier: %+v", s.Stats)
		}
	}
	if n := o.Cache.PlanEntries(); n != 0 {
		t.Fatalf("calibrated optimizer published %d plans", n)
	}
}

// TestPlanKeyBytesStable pins the plan key's bytes on an OPT-6.7B block:
// PPSC files store plans under these keys, so a change to the environment
// prefix or the whole-graph signature would silently turn every persisted
// plan into a miss without a format bump. The v12 key is the v11 key without
// the environment prefix's AllowPrime byte.
func TestPlanKeyBytesStable(t *testing.T) {
	g, err := model.BuildBlock(model.OPT6B7())
	if err != nil {
		t.Fatal(err)
	}
	m := cost.NewModel(device.MustCluster(8, 4, device.V100Profile()))
	m.Alpha = 1e-12
	o := NewOptimizer(m)
	key := o.appendPlanCrossKey(o.appendEnvSig(nil), g)
	const want = "80384a25f6bfada7735e5fb66bff6342cb4c455233cff47f92723fa7401352b3"
	if got := fmt.Sprintf("%x", sha256.Sum256(key)); got != want {
		t.Errorf("plan key sha256 %s, want %s", got, want)
	}
}

// TestPlanTierUnstackableLayers: a graph whose head and tail spaces differ
// plans one layer, and its answer is published like any other. Asking the
// same cache for two layers must not be served from that entry: it falls
// through to the full path and returns the "cannot stack" error, and the
// estimator promises no plan hit. The one-layer repeat stays a plan hit.
func TestPlanTierUnstackableLayers(t *testing.T) {
	g := &graph.Graph{Name: "unstackable"}
	head := model.NewLinear("head", 2, 8, 8, 8)
	tail := model.NewLinear("tail", 2, 8, 8, 8)
	tail.Axes[model.LinB].Splittable = false
	g.AddNode(head)
	g.AddNode(tail)
	g.Connect(0, 1, 0, []int{model.LinB, model.LinM, model.LinK})
	o := optimizerFor(t, 4, 4)
	o.Cache = NewSearchCache()
	one, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if o.Cache.PlanEntries() != 1 {
		t.Fatalf("one-layer plan published %d plans, want 1", o.Cache.PlanEntries())
	}
	est, err := o.EstimatePlan(PlanRequest{Graph: g, Layers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if est.PlanHit {
		t.Error("estimator promised a plan hit for two layers of an unstackable graph")
	}
	if _, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: 2}); err == nil ||
		!strings.Contains(err.Error(), "cannot stack") {
		t.Fatalf("two layers of an unstackable graph: error %v, want \"cannot stack\"", err)
	}
	again, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if again.Stats.CrossCallPlanHits != 1 {
		t.Fatalf("one-layer repeat missed the plan tier: %+v", again.Stats)
	}
	sameStrategy(t, "one-layer repeat", again, one)
}
