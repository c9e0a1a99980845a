// Package repro's root benchmark harness regenerates every table and figure
// of the paper's evaluation (§6) — run with:
//
//	go test -bench=. -benchmem
//
// Each BenchmarkFigN / BenchmarkTableN executes the corresponding experiment
// end to end (strategy search + simulated measurement) and prints the
// resulting series; custom metrics expose the headline numbers (speedups,
// memory ratios, search milliseconds). Component micro-benchmarks at the
// bottom cover the DSI algebra, the DP, the simulator and the numeric
// runtime.
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// The Fig. 7/Fig. 8 sweep is expensive (it searches 6 models × 4 scales ×
// 2 systems); compute it once and share.
var (
	sweepOnce sync.Once
	sweepData *experiments.ThroughputData
	sweepErr  error
)

func throughputSweep(b *testing.B) *experiments.ThroughputData {
	b.Helper()
	sweepOnce.Do(func() {
		sweepData, sweepErr = experiments.RunThroughputSweep(experiments.DefaultSetup())
	})
	if sweepErr != nil {
		b.Fatal(sweepErr)
	}
	return sweepData
}

// BenchmarkFig2a regenerates the all-reduce-share motivation measurement.
func BenchmarkFig2a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, table, err := experiments.Fig2a(experiments.DefaultSetup())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(table)
			for _, r := range res {
				b.ReportMetric(r.CollectiveShare*100, "allreduce%/"+r.Model)
			}
		}
	}
}

// BenchmarkFig2b regenerates the Megatron-vs-ideal peak-memory gap.
func BenchmarkFig2b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, table, err := experiments.Fig2b(experiments.DefaultSetup())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(table)
			b.ReportMetric(res[len(res)-1].Ratio, "mem-gap@32")
		}
	}
}

// BenchmarkFig4 regenerates the P_{2×2} orchestration demo with numeric
// verification on goroutine devices.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, out, err := experiments.Fig4(experiments.DefaultSetup())
		if err != nil {
			b.Fatal(err)
		}
		if res.MaxError > 1e-9 {
			b.Fatalf("semantics deviation %g", res.MaxError)
		}
		if i == 0 {
			fmt.Println(out)
		}
	}
}

// BenchmarkTable1 regenerates the derived ring-communication table.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := experiments.Table1(experiments.DefaultSetup())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(out)
		}
	}
}

// BenchmarkFig7 regenerates the training-throughput comparison (6 models ×
// 4 scales × {Megatron-LM, Alpa, PrimePar}).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		data := throughputSweep(b)
		if i == 0 {
			fmt.Println(data.Fig7Table())
			b.ReportMetric(data.GeoMeanSpeedup(32), "geomean-speedup@32")
			for _, cfg := range data.Setup.Models {
				b.ReportMetric(data.Speedups(32)[cfg.Name], "speedup@32/"+cfg.Name)
			}
		}
	}
}

// BenchmarkFig8 regenerates the peak-memory comparison from the same sweep.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		data := throughputSweep(b)
		if i == 0 {
			fmt.Println(data.Fig8Table())
			worst := 1.0
			for _, cfg := range data.Setup.Models {
				mega := data.Get(cfg.Name, 32, experiments.SysMegatron)
				prime := data.Get(cfg.Name, 32, experiments.SysPrimePar)
				if r := prime.PeakMemoryBytes / mega.PeakMemoryBytes; r < worst {
					worst = r
				}
			}
			b.ReportMetric(worst, "best-mem-ratio@32")
		}
	}
}

// BenchmarkFig9 regenerates the MLP latency-breakdown ablation.
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, table, err := experiments.Fig9(experiments.DefaultSetup())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(table)
			for _, c := range cells {
				b.ReportMetric(c.CollectiveReduction,
					fmt.Sprintf("collective-ratio/b%d-g%d", c.Batch, c.GPUs))
			}
		}
	}
}

// BenchmarkFig10 regenerates the 3D-parallelism sweep on 32 GPUs.
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, table, err := experiments.Fig10(experiments.DefaultSetup(), 32, 64, 2)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(table)
			for _, r := range res {
				b.ReportMetric(r.PeakSpeedup, "3d-speedup/"+r.Model)
			}
		}
	}
}

// BenchmarkTable2 regenerates the optimization-time table. Beyond the wall
// times it reports what the search-performance layer did: cache hit counts
// and the edge-matrix cells actually evaluated at the 32-GPU scale.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, table, err := experiments.Table2(experiments.DefaultSetup())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(table)
			for _, r := range rows {
				if r.Scale == 32 {
					b.ReportMetric(float64(r.Time.Milliseconds()), "ms@32/"+r.Model)
					b.ReportMetric(float64(r.Stats.NodeCacheHits), "node-hits@32/"+r.Model)
					b.ReportMetric(float64(r.Stats.EdgeCacheHits), "edge-hits@32/"+r.Model)
					b.ReportMetric(float64(r.Stats.EdgeCellsEvaluated)/1e6, "Mcells@32/"+r.Model)
				}
			}
		}
	}
}

// BenchmarkAblations regenerates the design-choice ablations from DESIGN.md.
func BenchmarkAblations(b *testing.B) {
	s := experiments.DefaultSetup()
	for i := 0; i < b.N; i++ {
		on, off, t1, err := experiments.AblationNoOverlap(s, model.OPT175B(), 8)
		if err != nil {
			b.Fatal(err)
		}
		_, t2, err := experiments.AblationAlphaSweep(s, model.OPT175B(), 8, []float64{0, 1e-12, 1e-10})
		if err != nil {
			b.Fatal(err)
		}
		t3, err := experiments.AblationSpatialOnly(experiments.QuickSetup(), model.OPT175B())
		if err != nil {
			b.Fatal(err)
		}
		t4, err := experiments.AblationSegmentedVsExhaustive(s, model.OPT6B7())
		if err != nil {
			b.Fatal(err)
		}
		t5, err := experiments.AblationTopology(s, model.OPT175B(), 8)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(t1)
			fmt.Println(t2)
			fmt.Println(t3)
			fmt.Println(t4)
			fmt.Println(t5)
			b.ReportMetric(on/off, "overlap-gain")
		}
	}
}

// ---- Component micro-benchmarks ----

// BenchmarkDSIEvaluation measures Algorithm 1 for a mixed sequence.
func BenchmarkDSIEvaluation(b *testing.B) {
	seq := partition.NewSeq(
		partition.Split(0),
		partition.NewPrime(2, 1, 2, 3),
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = seq.SliceIndices(partition.Gradient, 4, 5, i&31, i&3)
	}
}

// BenchmarkTransferDerivation measures deriving one Table-1 transfer set.
func BenchmarkTransferDerivation(b *testing.B) {
	seq := partition.NewSeq(partition.NewPrime(2, 1, 2, 3))
	dims := []int{1, 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = seq.StepTransfers(partition.Forward, dims, 4, 4, i&1)
	}
}

// BenchmarkIntraCost measures one Eq. 7 evaluation.
func BenchmarkIntraCost(b *testing.B) {
	m := cost.NewModel(device.MustCluster(32, 4, device.V100Profile()))
	op := model.NewLinear("fc1", 8, 2048, 12288, 49152)
	seq := partition.NewSeq(partition.Split(model.LinB), partition.NewPrime(2, model.LinM, model.LinN, model.LinK))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.IntraCost(op, seq)
	}
}

// BenchmarkEdgeTraffic measures one Eq. 9 evaluation through an edge plan.
func BenchmarkEdgeTraffic(b *testing.B) {
	m := cost.NewModel(device.MustCluster(32, 4, device.V100Profile()))
	g, err := model.BuildMLP(model.OPT175B())
	if err != nil {
		b.Fatal(err)
	}
	e := g.Edges[1]
	plan := m.PlanEdge(g, e)
	s1 := partition.NewSeq(partition.NewPrime(2, model.LinM, model.LinN, model.LinK), partition.Split(model.LinB))
	s2 := partition.NewSeq(partition.Split(0), partition.Split(1), partition.Split(2), partition.Split(2), partition.Split(1))
	src := m.OutputIface(g.Nodes[e.Src], s1)
	dst := m.InputIface(g.Nodes[e.Dst], s2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = plan.Measure(src, dst).Total()
	}
}

// BenchmarkSearch8 / 16 / 32 measure full block searches per machine size.
func benchmarkSearch(b *testing.B, devices int) {
	g, err := model.BuildBlock(model.OPT175B())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		o := core.NewOptimizer(cost.NewModel(device.MustCluster(devices, 4, device.V100Profile())))
		if _, err := o.Plan(context.Background(), core.PlanRequest{Graph: g, Layers: 96}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearch8(b *testing.B)  { benchmarkSearch(b, 8) }
func BenchmarkSearch16(b *testing.B) { benchmarkSearch(b, 16) }
func BenchmarkSearch32(b *testing.B) { benchmarkSearch(b, 32) }

// BenchmarkSimIteration measures one simulated 96-layer training iteration.
func BenchmarkSimIteration(b *testing.B) {
	cl := device.MustCluster(16, 4, device.V100Profile())
	g, err := model.BuildBlock(model.OPT175B())
	if err != nil {
		b.Fatal(err)
	}
	seqs, err := baseline.Megatron(g, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	sm := sim.New(cl)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sm.Run(g, seqs, 96); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRuntimeTrainStep measures the goroutine-device SPMD executor.
func BenchmarkRuntimeTrainStep(b *testing.B) {
	seq := partition.NewSeq(partition.NewPrime(1, runtime.AxM, runtime.AxN, runtime.AxK))
	eng, err := runtime.NewEngine(seq, 2, 64, 64, 64)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	I := tensor.New(64, 64).FillRandom(rng)
	W := tensor.New(64, 64).FillRandom(rng)
	dO := tensor.New(64, 64).FillRandom(rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Train(I, W, dO, 0.01); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweeps regenerates the workload-shape parameter sweeps.
func BenchmarkSweeps(b *testing.B) {
	s := experiments.DefaultSetup()
	for i := 0; i < b.N; i++ {
		pts, t1, err := experiments.SweepBatch(s, model.OPT175B(), 16, []int{4, 8, 16, 32})
		if err != nil {
			b.Fatal(err)
		}
		_, t2, err := experiments.SweepSeqLen(s, model.OPT175B(), 16, []int{512, 1024, 2048, 4096})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(t1)
			fmt.Println(t2)
			b.ReportMetric(pts[len(pts)-1].Speedup, "speedup@batch32")
		}
	}
}
