package primepar

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPlanSaveLoadRoundTrip(t *testing.T) {
	cluster, err := NewCluster(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Search(OPT175B(), cluster)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := plan.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPlan(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Model.Name != plan.Model.Name || loaded.Cluster.NumDevices != 8 {
		t.Fatalf("round-trip lost identity: %+v", loaded.Model)
	}
	if len(loaded.Seqs) != len(plan.Seqs) {
		t.Fatalf("round-trip lost strategies")
	}
	for i := range plan.Seqs {
		if loaded.Seqs[i].Key() != plan.Seqs[i].Key() {
			t.Fatalf("node %d strategy changed: %v vs %v", i, loaded.Seqs[i], plan.Seqs[i])
		}
	}
	if loaded.PredictedCost != plan.PredictedCost {
		t.Fatal("round-trip lost predicted cost")
	}
	if loaded.LayerCost != plan.LayerCost {
		t.Fatal("round-trip lost layer cost")
	}
	if loaded.Digest() != plan.Digest() {
		t.Fatalf("round-trip changed digest: %s vs %s", loaded.Digest(), plan.Digest())
	}
	// The loaded plan must simulate identically.
	a, err := plan.Report()
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Report()
	if err != nil {
		t.Fatal(err)
	}
	if a.Sim.IterationTime != b.Sim.IterationTime {
		t.Fatalf("loaded plan simulates differently: %v vs %v", a.Sim.IterationTime, b.Sim.IterationTime)
	}
}

// TestLoadPlanDetectsTamper: a saved plan embeds a digest over its strategy
// content; editing any digested field after Save must fail the load.
func TestLoadPlanDetectsTamper(t *testing.T) {
	cluster, err := NewCluster(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Search(OPT6B7(), cluster)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Digest() == "" {
		t.Fatal("searched plan has empty digest")
	}
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := plan.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	raw["predicted_cost"] = raw["predicted_cost"].(float64) * 2
	edited, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, edited, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPlan(path); err == nil {
		t.Fatal("edited plan accepted")
	} else if !strings.Contains(err.Error(), "digest") {
		t.Fatalf("tamper error does not mention the digest: %v", err)
	}
	// Files without a digest (older saves within version 1) still load.
	delete(raw, "digest")
	raw["predicted_cost"] = plan.PredictedCost
	legacy, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPlan(path); err != nil {
		t.Fatalf("digest-less file rejected: %v", err)
	}
}

func TestLoadPlanRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPlan(bad); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadPlan(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	// Wrong version.
	v := filepath.Join(dir, "v.json")
	if err := os.WriteFile(v, []byte(`{"format_version":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPlan(v); err == nil {
		t.Fatal("wrong version accepted")
	}
	// Unknown model.
	m := filepath.Join(dir, "m.json")
	if err := os.WriteFile(m, []byte(`{"format_version":1,"model":"GPT-9","devices":4,"devices_per_node":4}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPlan(m); err == nil {
		t.Fatal("unknown model accepted")
	}
}
