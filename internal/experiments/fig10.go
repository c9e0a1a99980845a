package experiments

import (
	"context"
	"fmt"

	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/report"
)

// Fig10Row is one (model, p, d, m) pair of bars.
type Fig10Row struct {
	Model              string
	Config             pipeline.Config3D
	MegatronThroughput float64
	PrimeThroughput    float64
}

// Fig10Result aggregates the 3D-parallelism sweep of one model.
type Fig10Result struct {
	Model string
	Rows  []Fig10Row
	// BestMegatron and BestPrime are the per-system best configs.
	BestMegatron, BestPrime Fig10Row
	// PeakSpeedup is best-Prime / best-Megatron (the paper's 1.46× etc.).
	PeakSpeedup float64
}

// Fig10 reproduces the 3D-parallelism evaluation: every (p,d,m)
// configuration with p·d·m = devices and p > 1, Megatron vs PrimePar model
// parallelism of size m, pipeline and data parallelism held identical.
func Fig10(s Setup, devices, globalBatch, microbatch int) ([]Fig10Result, string, error) {
	full := s.cluster(devices)
	var results []Fig10Result
	t := report.NewTable(fmt.Sprintf("Fig. 10 — 3D parallelism throughput on %d GPUs (normalized per model)", devices),
		"model", "(p,d,m)", "Megatron", "PrimePar", "PrimePar/Megatron")
	opt := pipeline.NewOptimizer(full)
	ctx := context.Background()
	fixed := func(cfg model.Config, c3 pipeline.Config3D, sys pipeline.System) (*pipeline.Plan3D, error) {
		return opt.Plan3D(ctx, pipeline.Plan3DRequest{Model: cfg, System: sys, Config: &c3})
	}
	for _, cfg := range s.Models {
		res := Fig10Result{Model: cfg.Name}
		configs := pipeline.AllConfigs(devices, cfg.Layers, globalBatch, microbatch)
		var maxTp float64
		for _, c3 := range configs {
			mega, err := fixed(cfg, c3, pipeline.Megatron)
			if err != nil {
				continue
			}
			prime, err := fixed(cfg, c3, pipeline.PrimePar)
			if err != nil {
				continue
			}
			row := Fig10Row{
				Model:              cfg.Name,
				Config:             c3,
				MegatronThroughput: mega.Throughput,
				PrimeThroughput:    prime.Throughput,
			}
			res.Rows = append(res.Rows, row)
			if mega.Throughput > res.BestMegatron.MegatronThroughput {
				res.BestMegatron = row
			}
			if prime.Throughput > res.BestPrime.PrimeThroughput {
				res.BestPrime = row
			}
			if mega.Throughput > maxTp {
				maxTp = mega.Throughput
			}
			if prime.Throughput > maxTp {
				maxTp = prime.Throughput
			}
		}
		if len(res.Rows) == 0 {
			return nil, "", fmt.Errorf("experiments: no feasible 3D configs for %s", cfg.Name)
		}
		if res.BestMegatron.MegatronThroughput > 0 {
			res.PeakSpeedup = res.BestPrime.PrimeThroughput / res.BestMegatron.MegatronThroughput
		}
		results = append(results, res)

		for _, row := range res.Rows {
			ratio := 0.0
			if row.MegatronThroughput > 0 {
				ratio = row.PrimeThroughput / row.MegatronThroughput
			}
			t.AddRow(cfg.Name, row.Config.String(),
				row.MegatronThroughput/maxTp, row.PrimeThroughput/maxTp,
				fmt.Sprintf("%.2f", ratio))
		}
		t.AddRow(cfg.Name, "best", res.BestMegatron.Config.String()+"→"+res.BestPrime.Config.String(),
			"", fmt.Sprintf("peak speedup %.2f", res.PeakSpeedup))
	}
	return results, t.String(), nil
}

// ensure model import used
var _ = model.All
