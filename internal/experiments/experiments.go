// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) on the simulated cluster: Fig. 2 (motivation), Fig. 4 /
// Table 1 (orchestration), Fig. 7 (throughput), Fig. 8 (peak memory),
// Fig. 9 (latency breakdown), Fig. 10 (3D parallelism), Table 2
// (optimization time), plus the ablations called out in DESIGN.md §5.
//
// Each experiment returns a data structure plus a rendered text table so the
// same code backs cmd/primebench and the root bench_test.go.
package experiments

import (
	"fmt"
	"sort"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/report"
	"repro/internal/sim"
)

// Setup fixes the simulated environment of an experiment run.
type Setup struct {
	// DevicesPerNode mirrors the paper's testbed (4 × V100 per node).
	DevicesPerNode int
	Profile        device.Profile
	// Alpha is the Eq. 7 latency↔memory weight used by the searches.
	Alpha float64
	// Models and Scales bound the sweep (tests use subsets; the full
	// evaluation uses the paper's six models on 4–32 GPUs).
	Models []model.Config
	Scales []int
}

// DefaultSetup reproduces the paper's environment.
func DefaultSetup() Setup {
	return Setup{
		DevicesPerNode: 4,
		Profile:        device.V100Profile(),
		Alpha:          1e-12,
		Models:         model.All(),
		Scales:         []int{4, 8, 16, 32},
	}
}

// QuickSetup is a reduced sweep for tests: two models, two scales.
func QuickSetup() Setup {
	s := DefaultSetup()
	s.Models = []model.Config{model.OPT6B7(), model.Llama2_70B()}
	s.Scales = []int{4, 8}
	return s
}

func (s Setup) cluster(devices int) *device.Cluster {
	return device.MustCluster(devices, s.DevicesPerNode, s.Profile)
}

// System labels the three compared systems.
type System string

const (
	SysMegatron System = "Megatron-LM"
	SysAlpa     System = "Alpa"
	SysPrimePar System = "PrimePar"
)

// Systems lists them in the paper's presentation order.
var Systems = []System{SysMegatron, SysAlpa, SysPrimePar}

// Run is one (model, scale, system) measurement.
type Run struct {
	Model  string
	Scale  int
	System System
	// Throughput in tokens/second (Fig. 7 metric).
	Throughput float64
	// PeakMemoryBytes per device (Fig. 8 metric).
	PeakMemoryBytes float64
	// Breakdown of the simulated iteration.
	Report *sim.Report
	// Seqs is the per-node strategy of one layer.
	Seqs []partition.Seq
}

// evaluate measures one (model, scale, system) cell.
func (s Setup) evaluate(cfg model.Config, scale int, system System) (*Run, error) {
	cl := s.cluster(scale)
	g, err := model.BuildBlock(cfg)
	if err != nil {
		return nil, err
	}
	m := cost.NewModel(cl)
	m.Alpha = s.Alpha

	var seqs []partition.Seq
	switch system {
	case SysMegatron:
		// The paper's protocol: enumerate d, keep the best-performing.
		best, err := bestMegatronBySim(cl, g, cfg.Layers)
		if err != nil {
			return nil, err
		}
		seqs = best
	case SysAlpa:
		strat, err := baseline.Alpa(m, g, cfg.Layers)
		if err != nil {
			return nil, err
		}
		seqs = strat.Seqs
	case SysPrimePar:
		strat, err := baseline.PrimePar(m, g, cfg.Layers)
		if err != nil {
			return nil, err
		}
		seqs = strat.Seqs
	default:
		return nil, fmt.Errorf("experiments: unknown system %q", system)
	}

	rep, err := sim.New(cl).Run(g, seqs, cfg.Layers)
	if err != nil {
		return nil, err
	}
	tokens := float64(cfg.Batch) * float64(cfg.SeqLen)
	return &Run{
		Model:           cfg.Name,
		Scale:           scale,
		System:          system,
		Throughput:      rep.Throughput(tokens),
		PeakMemoryBytes: rep.PeakMemoryBytes,
		Report:          rep,
		Seqs:            seqs,
	}, nil
}

// bestMegatronBySim picks the data-parallel degree with the highest
// simulated throughput (§6.1: "select the configuration that exhibits the
// best performance").
func bestMegatronBySim(cl *device.Cluster, g *graph.Graph, layers int) ([]partition.Seq, error) {
	sm := sim.New(cl)
	var best []partition.Seq
	bestTime := 0.0
	for d := 0; d <= cl.Bits(); d++ {
		seqs, err := baseline.Megatron(g, cl.Bits(), d)
		if err != nil {
			continue
		}
		rep, err := sm.Run(g, seqs, layers)
		if err != nil {
			continue
		}
		if best == nil || rep.IterationTime < bestTime {
			best, bestTime = seqs, rep.IterationTime
		}
	}
	if best == nil {
		return nil, fmt.Errorf("experiments: no feasible Megatron configuration")
	}
	return best, nil
}

// ThroughputData holds the Fig. 7 + Fig. 8 sweep (shared computation).
type ThroughputData struct {
	Setup Setup
	Runs  []*Run
}

// RunThroughputSweep evaluates every (model, scale, system) cell.
func RunThroughputSweep(s Setup) (*ThroughputData, error) {
	data := &ThroughputData{Setup: s}
	for _, cfg := range s.Models {
		for _, scale := range s.Scales {
			for _, sys := range Systems {
				r, err := s.evaluate(cfg, scale, sys)
				if err != nil {
					return nil, fmt.Errorf("%s@%d/%s: %w", cfg.Name, scale, sys, err)
				}
				data.Runs = append(data.Runs, r)
			}
		}
	}
	return data, nil
}

// Get returns the run of one cell.
func (d *ThroughputData) Get(modelName string, scale int, sys System) *Run {
	for _, r := range d.Runs {
		if r.Model == modelName && r.Scale == scale && r.System == sys {
			return r
		}
	}
	return nil
}

// Speedups returns PrimePar-vs-Megatron throughput ratios at one scale.
func (d *ThroughputData) Speedups(scale int) map[string]float64 {
	out := map[string]float64{}
	for _, cfg := range d.Setup.Models {
		mega := d.Get(cfg.Name, scale, SysMegatron)
		prime := d.Get(cfg.Name, scale, SysPrimePar)
		if mega != nil && prime != nil && mega.Throughput > 0 {
			out[cfg.Name] = prime.Throughput / mega.Throughput
		}
	}
	return out
}

// GeoMeanSpeedup is the paper's headline aggregate at one scale.
func (d *ThroughputData) GeoMeanSpeedup(scale int) float64 {
	sp := d.Speedups(scale)
	vals := make([]float64, 0, len(sp))
	keys := make([]string, 0, len(sp))
	for k := range sp {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		vals = append(vals, sp[k])
	}
	return report.GeoMean(vals)
}

// Fig7Table renders the normalized-throughput table of Fig. 7.
func (d *ThroughputData) Fig7Table() string {
	t := report.NewTable("Fig. 7 — Normalized training throughput (per model+scale, max = 1)",
		"model", "gpus", "Megatron", "Alpa", "PrimePar", "PrimePar/Megatron")
	for _, cfg := range d.Setup.Models {
		for _, scale := range d.Setup.Scales {
			var vals []float64
			for _, sys := range Systems {
				r := d.Get(cfg.Name, scale, sys)
				if r == nil {
					vals = append(vals, 0)
					continue
				}
				vals = append(vals, r.Throughput)
			}
			n := report.Normalize(vals)
			speed := 0.0
			if vals[0] > 0 {
				speed = vals[2] / vals[0]
			}
			t.AddRow(cfg.Name, scale, n[0], n[1], n[2], speed)
		}
	}
	return t.String()
}

// Fig8Table renders the normalized peak-memory table of Fig. 8.
func (d *ThroughputData) Fig8Table() string {
	t := report.NewTable("Fig. 8 — Normalized peak memory occupancy (Megatron = 1)",
		"model", "gpus", "Megatron", "Alpa", "PrimePar", "PrimePar/Megatron")
	for _, cfg := range d.Setup.Models {
		for _, scale := range d.Setup.Scales {
			mega := d.Get(cfg.Name, scale, SysMegatron)
			if mega == nil || mega.PeakMemoryBytes == 0 {
				continue
			}
			row := []float64{}
			for _, sys := range Systems {
				r := d.Get(cfg.Name, scale, sys)
				if r == nil {
					row = append(row, 0)
					continue
				}
				row = append(row, r.PeakMemoryBytes/mega.PeakMemoryBytes)
			}
			t.AddRow(cfg.Name, scale, row[0], row[1], row[2], row[2])
		}
	}
	return t.String()
}

// optimizer builds the PrimePar optimizer for a cluster. Optimizers share
// the process-wide cross-call search cache (core.DefaultSearchCache), so a
// repeated experiment pass or a layer-count change is a plan hit, and an α
// sweep of one layer graph reuses its node evaluations and edge matrices
// (the layer tier) instead of recomputing them.
func (s Setup) optimizer(cl *device.Cluster) *core.Optimizer {
	m := cost.NewModel(cl)
	m.Alpha = s.Alpha
	return core.NewOptimizer(m)
}
