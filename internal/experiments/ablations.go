package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/report"
	"repro/internal/sim"
)

// AblationNoOverlap quantifies how much of PrimePar's win comes from
// overlapping ring communication with computation: the same searched
// strategy simulated with and without overlap.
func AblationNoOverlap(s Setup, cfg model.Config, scale int) (withOverlap, withoutOverlap float64, table string, err error) {
	cl := s.cluster(scale)
	g, err := model.BuildBlock(cfg)
	if err != nil {
		return 0, 0, "", err
	}
	m := cost.NewModel(cl)
	m.Alpha = s.Alpha
	strat, err := baseline.PrimePar(m, g, cfg.Layers)
	if err != nil {
		return 0, 0, "", err
	}
	tokens := float64(cfg.Batch) * float64(cfg.SeqLen)

	sm := sim.New(cl)
	on, err := sm.Run(g, strat.Seqs, cfg.Layers)
	if err != nil {
		return 0, 0, "", err
	}
	sm2 := sim.New(cl)
	sm2.Overlap = false
	off, err := sm2.Run(g, strat.Seqs, cfg.Layers)
	if err != nil {
		return 0, 0, "", err
	}
	t := report.NewTable(fmt.Sprintf("Ablation — ring/compute overlap (%s, %d GPUs)", cfg.Name, scale),
		"overlap", "iteration", "tokens/s", "exposed ring")
	t.AddRow("on", report.Seconds(on.IterationTime), on.Throughput(tokens), report.Seconds(on.RingExposed))
	t.AddRow("off", report.Seconds(off.IterationTime), off.Throughput(tokens), report.Seconds(off.RingExposed))
	return on.Throughput(tokens), off.Throughput(tokens), t.String(), nil
}

// AlphaPoint is one sample of the latency↔memory trade-off sweep.
type AlphaPoint struct {
	Alpha           float64
	IterationTime   float64
	PeakMemoryBytes float64
}

// AblationAlphaSweep sweeps Eq. 7's α and reports the searched strategy's
// simulated latency and memory, exposing the joint-optimization knob.
func AblationAlphaSweep(s Setup, cfg model.Config, scale int, alphas []float64) ([]AlphaPoint, string, error) {
	cl := s.cluster(scale)
	g, err := model.BuildBlock(cfg)
	if err != nil {
		return nil, "", err
	}
	var pts []AlphaPoint
	t := report.NewTable(fmt.Sprintf("Ablation — α sweep (%s, %d GPUs)", cfg.Name, scale),
		"alpha", "iteration", "peak memory")
	for _, a := range alphas {
		m := cost.NewModel(cl)
		m.Alpha = a
		strat, err := baseline.PrimePar(m, g, cfg.Layers)
		if err != nil {
			return nil, "", err
		}
		rep, err := sim.New(cl).Run(g, strat.Seqs, cfg.Layers)
		if err != nil {
			return nil, "", err
		}
		pts = append(pts, AlphaPoint{Alpha: a, IterationTime: rep.IterationTime, PeakMemoryBytes: rep.PeakMemoryBytes})
		t.AddRow(a, report.Seconds(rep.IterationTime), report.Bytes(rep.PeakMemoryBytes))
	}
	return pts, t.String(), nil
}

// AblationSpatialOnly isolates the novel primitive's contribution: the
// optimal cost with and without Prime tokens across scales.
func AblationSpatialOnly(s Setup, cfg model.Config) (string, error) {
	g, err := model.BuildBlock(cfg)
	if err != nil {
		return "", err
	}
	t := report.NewTable(fmt.Sprintf("Ablation — spatial-only vs spatial-temporal space (%s)", cfg.Name),
		"gpus", "spatial-only cost", "spatial-temporal cost", "improvement")
	for _, scale := range s.Scales {
		m := cost.NewModel(s.cluster(scale))
		m.Alpha = s.Alpha
		alpa, err := baseline.Alpa(m, g, cfg.Layers)
		if err != nil {
			return "", err
		}
		prime, err := baseline.PrimePar(m, g, cfg.Layers)
		if err != nil {
			return "", err
		}
		t.AddRow(scale, alpa.TotalCost, prime.TotalCost,
			fmt.Sprintf("%.1f%%", 100*(1-prime.TotalCost/alpa.TotalCost)))
	}
	return t.String(), nil
}

// AblationSegmentedVsExhaustive validates optimality and quantifies the
// complexity gap between the segmented DP and brute force on machines small
// enough for the oracle.
func AblationSegmentedVsExhaustive(s Setup, cfg model.Config) (string, error) {
	g, err := model.BuildMLP(cfg)
	if err != nil {
		return "", err
	}
	t := report.NewTable(fmt.Sprintf("Ablation — segmented DP vs exhaustive (%s MLP)", cfg.Name),
		"gpus", "DP cost", "exhaustive cost", "equal", "DP time", "exhaustive time")
	for _, scale := range []int{2, 4} {
		o := s.optimizer(s.cluster(scale))
		start := time.Now()
		dp, err := o.Plan(context.Background(), core.PlanRequest{Graph: g, Layers: 1})
		if err != nil {
			return "", err
		}
		dpTime := time.Since(start)
		start = time.Now()
		ex, err := o.Exhaustive(g, nil)
		if err != nil {
			return "", err
		}
		exTime := time.Since(start)
		equal := "yes"
		if diff := dp.TotalCost - ex.TotalCost; diff > 1e-9*ex.TotalCost || diff < -1e-9*ex.TotalCost {
			equal = "NO"
		}
		t.AddRow(scale, dp.TotalCost, ex.TotalCost, equal, dpTime.String(), exTime.String())
	}
	return t.String(), nil
}

// AblationZeRO contrasts ZeRO-1 optimizer-state sharding (the related-work
// alternative to PrimePar's replication-free partitioning) with both
// systems: ZeRO shrinks Megatron's memory at the cost of extra collectives,
// while PrimePar avoids the replication in the first place.
func AblationZeRO(s Setup, cfg model.Config, scale int) (string, error) {
	cl := s.cluster(scale)
	g, err := model.BuildBlock(cfg)
	if err != nil {
		return "", err
	}
	tokens := float64(cfg.Batch) * float64(cfg.SeqLen)
	m := cost.NewModel(cl)
	megaSeqs, err := baseline.Megatron(g, cl.Bits(), cl.NodeBits())
	if err != nil {
		return "", err
	}
	strat, err := baseline.PrimePar(m, g, cfg.Layers)
	if err != nil {
		return "", err
	}

	t := report.NewTable(fmt.Sprintf("Ablation — ZeRO-1 optimizer sharding (%s, %d GPUs)", cfg.Name, scale),
		"system", "tokens/s", "peak memory")
	run := func(name string, seqs []partition.Seq, zero bool) error {
		sm := sim.New(cl)
		sm.ZeRO1 = zero
		rep, err := sm.Run(g, seqs, cfg.Layers)
		if err != nil {
			return err
		}
		t.AddRow(name, rep.Throughput(tokens), report.Bytes(rep.PeakMemoryBytes))
		return nil
	}
	if err := run("Megatron-LM", megaSeqs, false); err != nil {
		return "", err
	}
	if err := run("Megatron-LM + ZeRO-1", megaSeqs, true); err != nil {
		return "", err
	}
	if err := run("PrimePar", strat.Seqs, false); err != nil {
		return "", err
	}
	if err := run("PrimePar + ZeRO-1", strat.Seqs, true); err != nil {
		return "", err
	}
	return t.String(), nil
}

// DiscussionTorus reproduces the paper's §7 prediction: on a TPU-style 2-D
// torus, where every ring communication rides a dedicated link, PrimePar's
// primitive is an even better fit than on the switch-based GPU testbed.
func DiscussionTorus(s Setup, cfg model.Config, scale int) (string, error) {
	t := report.NewTable(fmt.Sprintf("§7 discussion — switch vs 2-D torus (%s, %d devices)", cfg.Name, scale),
		"topology", "Megatron tokens/s", "PrimePar tokens/s", "speedup", "ring exposed")
	for _, prof := range []device.Profile{device.V100Profile(), device.TPUv4Profile()} {
		sub := s
		sub.Profile = prof
		mega, err := sub.evaluate(cfg, scale, SysMegatron)
		if err != nil {
			return "", err
		}
		prime, err := sub.evaluate(cfg, scale, SysPrimePar)
		if err != nil {
			return "", err
		}
		t.AddRow(prof.Topology.String(), mega.Throughput, prime.Throughput,
			fmt.Sprintf("%.2f", prime.Throughput/mega.Throughput),
			report.Seconds(prime.Report.RingExposed))
	}
	return t.String(), nil
}

// HardwareEvolution tests the paper's introduction argument: as compute
// outgrows interconnect generation over generation, training becomes more
// communication-bound and tensor partitioning quality matters more.
func HardwareEvolution(s Setup, cfg model.Config, scale int) (string, error) {
	t := report.NewTable(fmt.Sprintf("Hardware evolution — PrimePar advantage (%s, %d devices)", cfg.Name, scale),
		"profile", "Megatron tokens/s", "PrimePar tokens/s", "speedup", "Megatron collective share")
	for _, prof := range []device.Profile{device.V100Profile(), device.A100Profile()} {
		sub := s
		sub.Profile = prof
		mega, err := sub.evaluate(cfg, scale, SysMegatron)
		if err != nil {
			return "", err
		}
		prime, err := sub.evaluate(cfg, scale, SysPrimePar)
		if err != nil {
			return "", err
		}
		t.AddRow(prof.Name, mega.Throughput, prime.Throughput,
			fmt.Sprintf("%.2f", prime.Throughput/mega.Throughput),
			fmt.Sprintf("%.0f%%", 100*mega.Report.CollectiveShare()))
	}
	return t.String(), nil
}

// AblationTopology explores the §7 discussion: PrimePar's advantage as the
// interconnect changes (single fat node vs many small nodes).
func AblationTopology(s Setup, cfg model.Config, scale int) (string, error) {
	t := report.NewTable(fmt.Sprintf("Ablation — topology sensitivity (%s, %d GPUs)", cfg.Name, scale),
		"devices/node", "Megatron tokens/s", "PrimePar tokens/s", "speedup")
	for per := 2; per <= scale; per *= 2 {
		sub := s
		sub.DevicesPerNode = per
		mega, err := sub.evaluate(cfg, scale, SysMegatron)
		if err != nil {
			return "", err
		}
		prime, err := sub.evaluate(cfg, scale, SysPrimePar)
		if err != nil {
			return "", err
		}
		t.AddRow(per, mega.Throughput, prime.Throughput,
			fmt.Sprintf("%.2f", prime.Throughput/mega.Throughput))
	}
	return t.String(), nil
}
