package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/model"
)

// TestGoldenOPT175B64 plans the widest cell the daemon accepts, OPT-175B on
// 64 V100s (4 per node, α = 1e-12), cold, and checks its strategy digest
// against the OPT-175B@64 entry of golden/table2_digest.json, so a change to
// the search's edge or DP code cannot move the 64-device answer unseen. It
// takes tens of seconds and about 3 GB of heap, so -short skips it.
func TestGoldenOPT175B64(t *testing.T) {
	if testing.Short() {
		t.Skip("a cold 64-device search takes tens of seconds and ~3 GB")
	}
	s := DefaultSetup()
	cfg := model.OPT175B()
	g, err := model.BuildBlock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	strat, err := s.optimizer(s.cluster(64)).Plan(context.Background(), core.PlanRequest{Graph: g, Layers: cfg.Layers})
	if err != nil {
		t.Fatal(err)
	}
	row := Table2Row{Model: cfg.Name, Scale: 64, Stats: strat.Stats, Digest: StrategyDigest(strat)}
	if err := CheckGoldenDigests(filepath.Join("..", "..", "golden", "table2_digest.json"), []Table2Row{row}); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenAlpaDigests pins the spatial-only baseline: on the three golden
// profiles, the six paper models and 4 and 8 devices (4 per node, α =
// 1e-12), baseline.Alpa's strategy digest must equal its entry in
// golden/alpa_digest.json, keyed "profile/model@devices". The file was
// written by the search that enumerated its own spatial-only space, before
// that search became a mask on PrimePar's space, so it pins the two as one.
func TestGoldenAlpaDigests(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "golden", "alpa_digest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	cells := 0
	for _, name := range []string{"v100-cluster", "a100-superpod", "mixed-a100-v100"} {
		prof, err := device.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range model.All() {
			g, err := model.BuildBlock(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, scale := range claimScales {
				m := cost.NewModel(device.MustCluster(scale, 4, prof))
				m.Alpha = DefaultSetup().Alpha
				strat, err := baseline.Alpa(m, g, cfg.Layers)
				if err != nil {
					t.Fatal(err)
				}
				key := fmt.Sprintf("%s/%s@%d", name, cfg.Name, scale)
				cells++
				if got := StrategyDigest(strat); got != want[key] {
					t.Errorf("%s: digest %s, golden %q", key, got, want[key])
				}
			}
		}
	}
	if cells != len(want) {
		t.Errorf("checked %d cells, golden file has %d", cells, len(want))
	}
}

// TestMixedGoldensEqualV100 pins what the CI comment on the mixed-fleet
// goldens promises: SPMD steps run at the slowest class's speed on identical
// links, so every cell of golden/table2_mixed_digest.json carries the same
// digest as its cell in golden/table2_digest.json.
func TestMixedGoldensEqualV100(t *testing.T) {
	read := func(name string) map[string]string {
		data, err := os.ReadFile(filepath.Join("..", "..", "golden", name))
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]string
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	v100, mixed := read("table2_digest.json"), read("table2_mixed_digest.json")
	if len(mixed) == 0 {
		t.Fatal("table2_mixed_digest.json has no cell")
	}
	for key, d := range mixed {
		if want, ok := v100[key]; !ok {
			t.Errorf("%s: in the mixed goldens but not in the V100 goldens", key)
		} else if d != want {
			t.Errorf("%s: mixed digest %s, V100 digest %s", key, d, want)
		}
	}
}
