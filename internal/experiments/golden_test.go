package experiments

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/core"
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
