package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/report"
)

// Table2Row is one cell of Table 2: the optimization wall time for a model
// structure at one parallelism size, plus the search instrumentation.
type Table2Row struct {
	Model string
	Scale int
	Time  time.Duration
	Stats core.SearchStats
	// Digest fingerprints the chosen strategy (see StrategyDigest) for the
	// golden-answer check in CI.
	Digest string
}

// Table2 reproduces the optimization-time measurement: run the segmented DP
// for the OPT, Llama2 and BLOOM structures at parallelism sizes 4–32 and
// report wall time (the paper runs single-threaded on a Xeon 5218; ours
// runs on however many cores the host grants).
func Table2(s Setup) ([]Table2Row, string, error) {
	structures := []model.Config{model.OPT175B(), model.Llama2_70B(), model.BLOOM176B()}
	var rows []Table2Row
	t := report.NewTable("Table 2 — Optimization time (ms)", "model", "4", "8", "16", "32")
	for _, cfg := range structures {
		g, err := model.BuildBlock(cfg)
		if err != nil {
			return nil, "", err
		}
		cells := []interface{}{cfg.Name}
		for _, scale := range s.Scales {
			o := s.optimizer(s.cluster(scale))
			start := time.Now()
			strat, err := o.Plan(context.Background(), core.PlanRequest{Graph: g, Layers: cfg.Layers})
			if err != nil {
				return nil, "", err
			}
			el := time.Since(start)
			rows = append(rows, Table2Row{Model: cfg.Name, Scale: scale, Time: el,
				Stats: strat.Stats, Digest: StrategyDigest(strat)})
			cells = append(cells, fmt.Sprintf("%.1f", float64(el.Microseconds())/1000))
		}
		for len(cells) < 5 {
			cells = append(cells, "-")
		}
		t.AddRow(cells...)
	}
	return rows, t.String(), nil
}

// Table2JSONRow is one BENCH_table2.json measurement.
type Table2JSONRow struct {
	Model string  `json:"model"`
	Scale int     `json:"scale"`
	Ms    float64 `json:"ms"`
	// Stats is present for runs made after the search-performance layer
	// landed; baseline rows predate the instrumentation.
	Stats *core.SearchStats `json:"stats,omitempty"`
}

// Table2JSON is the BENCH_table2.json artifact: the pre-optimization
// baseline next to the current measurement, so the search-time trajectory
// stays visible across changes.
type Table2JSON struct {
	Baseline []Table2JSONRow `json:"baseline,omitempty"`
	Current  []Table2JSONRow `json:"current"`
}

// WriteTable2JSON writes rows as the `current` measurement of path,
// preserving an existing `baseline` section. If the file exists without a
// baseline, its previous `current` becomes the baseline — so the first
// rewrite after a change keeps the before/after pair intact.
func WriteTable2JSON(path string, rows []Table2Row) error {
	var doc Table2JSON
	if prev, err := os.ReadFile(path); err == nil {
		var old Table2JSON
		if err := json.Unmarshal(prev, &old); err != nil {
			return fmt.Errorf("experiments: existing %s is not valid: %w", path, err)
		}
		doc.Baseline = old.Baseline
		if doc.Baseline == nil {
			doc.Baseline = old.Current
		}
	}
	for _, r := range rows {
		st := r.Stats
		doc.Current = append(doc.Current, Table2JSONRow{
			Model: r.Model,
			Scale: r.Scale,
			Ms:    float64(r.Time.Microseconds()) / 1000,
			Stats: &st,
		})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
