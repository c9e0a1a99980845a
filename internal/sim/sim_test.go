package sim

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/partition"
)

func mlpGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := model.BuildMLP(model.OPT175B())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func blockGraph(t *testing.T, cfg model.Config) *graph.Graph {
	t.Helper()
	g, err := model.BuildBlock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func megatronSeqs(t *testing.T, g *graph.Graph, nbits, dBits int) []partition.Seq {
	t.Helper()
	seqs, err := baseline.Megatron(g, nbits, dBits)
	if err != nil {
		t.Fatal(err)
	}
	return seqs
}

func TestRunValidatesInput(t *testing.T) {
	g := mlpGraph(t)
	s := New(device.MustCluster(4, 4, device.V100Profile()))
	if _, err := s.Run(g, nil, 1); err == nil {
		t.Fatal("nil seqs accepted")
	}
	seqs := megatronSeqs(t, g, 2, 0)
	if _, err := s.Run(g, seqs, 0); err == nil {
		t.Fatal("layers=0 accepted")
	}
	if _, err := s.Run(g, seqs[:2], 1); err == nil {
		t.Fatal("wrong arity accepted")
	}
}

func TestMegatronMLPTimeline(t *testing.T) {
	g := mlpGraph(t)
	s := New(device.MustCluster(8, 4, device.V100Profile()))
	s.RecordSegments = true
	seqs := megatronSeqs(t, g, 3, 0) // pure tensor parallelism
	rep, err := s.Run(g, seqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.IterationTime <= 0 || rep.Compute <= 0 {
		t.Fatalf("degenerate report: %+v", rep)
	}
	// Megatron row/column parallel MLP: all-reduce present, no ring.
	if rep.Collective <= 0 {
		t.Fatal("Megatron MLP must show collective communication")
	}
	if rep.RingTotal != 0 {
		t.Fatalf("Megatron must not show ring traffic, got %v", rep.RingTotal)
	}
	// Timeline accounting: iteration ≥ compute + collective (+redist).
	if rep.IterationTime < rep.Compute+rep.Collective-1e-12 {
		t.Fatalf("iteration %v shorter than compute %v + collective %v",
			rep.IterationTime, rep.Compute, rep.Collective)
	}
	// Segments are time-ordered per stream and end after they start.
	lastEnd := map[Stream]float64{}
	for _, seg := range rep.Segments {
		if seg.End <= seg.Start {
			t.Fatalf("segment %+v has non-positive duration", seg)
		}
		if seg.Start < lastEnd[seg.Stream]-1e-12 {
			t.Fatalf("segment %+v overlaps previous on its stream", seg)
		}
		lastEnd[seg.Stream] = seg.End
	}
}

// The headline behaviour (paper Fig. 9): a Prime strategy on the MLP hides
// its ring traffic under compute and pays no collective.
func TestPrimeStrategyOverlapsCommunication(t *testing.T) {
	g := mlpGraph(t)
	s := New(device.MustCluster(4, 4, device.V100Profile()))
	prime := partition.NewSeq(partition.NewPrime(1, model.LinM, model.LinN, model.LinK))
	seqs := []partition.Seq{
		partition.NewSeq(partition.Split(1), partition.Split(1)), // anchor: split S
		prime, // fc1
		partition.NewSeq(partition.Split(1), partition.Split(2)), // act: S × F
		prime, // fc2
	}
	rep, err := s.Run(g, seqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Collective != 0 {
		t.Fatalf("Prime MLP should be collective-free, got %v", rep.Collective)
	}
	if rep.RingTotal <= 0 {
		t.Fatal("Prime MLP must show ring traffic")
	}
	if rep.RingExposed > 1e-9 {
		t.Fatalf("ring should be fully hidden for this compute-heavy MLP, exposed %v", rep.RingExposed)
	}
}

func TestOverlapAblationSlowsIteration(t *testing.T) {
	g := mlpGraph(t)
	cl := device.MustCluster(4, 4, device.V100Profile())
	prime := partition.NewSeq(partition.NewPrime(1, model.LinM, model.LinN, model.LinK))
	seqs := []partition.Seq{
		partition.NewSeq(partition.Split(1), partition.Split(1)),
		prime,
		partition.NewSeq(partition.Split(1), partition.Split(2)),
		prime,
	}
	s := New(cl)
	with, err := s.Run(g, seqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(cl)
	s2.Overlap = false
	without, err := s2.Run(g, seqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if without.IterationTime <= with.IterationTime {
		t.Fatalf("disabling overlap must slow the iteration: %v vs %v",
			without.IterationTime, with.IterationTime)
	}
}

// Layers scale latency and stash memory roughly linearly.
func TestLayerScaling(t *testing.T) {
	g := blockGraph(t, model.OPT6B7())
	s := New(device.MustCluster(8, 4, device.V100Profile()))
	seqs := megatronSeqs(t, g, 3, 1)
	r1, err := s.Run(g, seqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := s.Run(g, seqs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := r4.IterationTime / r1.IterationTime; ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("4-layer latency ratio = %v, want ≈ 4", ratio)
	}
	if r4.PeakMemoryBytes <= r1.PeakMemoryBytes {
		t.Fatal("more layers must use more memory")
	}
}

// Fig. 2(a): on 16 GPUs, Megatron's all-reduce is a significant share of
// training latency for big models.
func TestCollectiveShareSignificantForMegatron(t *testing.T) {
	g := blockGraph(t, model.Llama2_70B())
	cl := device.MustCluster(16, 4, device.V100Profile())
	s := New(cl)
	m := cost.NewModel(cl)
	best, err := baseline.BestMegatron(m, g)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(g, best.Seqs, model.Llama2_70B().Layers)
	if err != nil {
		t.Fatal(err)
	}
	share := rep.CollectiveShare()
	if share < 0.05 || share > 0.9 {
		t.Fatalf("Megatron collective share = %.2f, expected a significant fraction", share)
	}
}

// The simulator and the cost model must agree on what they both claim to
// measure (the cost model IS the paper's regression of the real system —
// here the simulator plays the real system).
func TestCostModelTracksSimulator(t *testing.T) {
	g := mlpGraph(t)
	cl := device.MustCluster(8, 4, device.V100Profile())
	s := New(cl)
	m := cost.NewModel(cl)
	for d := 0; d <= 2; d++ {
		seqs := megatronSeqs(t, g, 3, d)
		rep, err := s.Run(g, seqs, 1)
		if err != nil {
			t.Fatal(err)
		}
		predicted := m.Overall(g, seqs)
		if rel := math.Abs(predicted-rep.IterationTime) / rep.IterationTime; rel > 0.25 {
			t.Fatalf("d=%d: cost model %v vs simulator %v (rel err %.0f%%)",
				d, predicted, rep.IterationTime, rel*100)
		}
	}
}

// Memory: the simulator's peak must exceed the resident weights and grow
// with replication (data parallelism replicates weights).
func TestPeakMemoryReflectsReplication(t *testing.T) {
	g := blockGraph(t, model.OPT6B7())
	cl := device.MustCluster(8, 4, device.V100Profile())
	s := New(cl)
	dp, err := s.Run(g, megatronSeqs(t, g, 3, 3), 4) // pure data parallel
	if err != nil {
		t.Fatal(err)
	}
	tp, err := s.Run(g, megatronSeqs(t, g, 3, 0), 4) // pure tensor parallel
	if err != nil {
		t.Fatal(err)
	}
	if dp.PeakMemoryBytes <= tp.PeakMemoryBytes {
		t.Fatalf("data parallelism (%v) should use more memory than tensor parallelism (%v)",
			dp.PeakMemoryBytes, tp.PeakMemoryBytes)
	}
}

func TestThroughputAndShares(t *testing.T) {
	r := &Report{IterationTime: 2, Collective: 0.5}
	if got := r.Throughput(1000); got != 500 {
		t.Fatalf("Throughput = %v, want 500", got)
	}
	if got := r.CollectiveShare(); got != 0.25 {
		t.Fatalf("CollectiveShare = %v, want 0.25", got)
	}
	zero := &Report{}
	if zero.Throughput(10) != 0 || zero.CollectiveShare() != 0 {
		t.Fatal("zero-time report should yield zero rates")
	}
}

// Exposed ring can never exceed ring total nor go negative.
func TestRingExposedBounds(t *testing.T) {
	g := mlpGraph(t)
	cl := device.MustCluster(4, 4, device.V100Profile())
	s := New(cl)
	prime := partition.NewSeq(partition.NewPrime(1, model.LinM, model.LinN, model.LinK))
	seqs := []partition.Seq{
		partition.NewSeq(partition.Split(0), partition.Split(1)),
		prime,
		partition.NewSeq(partition.Split(0), partition.Split(1)),
		prime,
	}
	rep, err := s.Run(g, seqs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RingExposed < 0 || rep.RingExposed > rep.RingTotal+1e-12 {
		t.Fatalf("exposed ring %v outside [0, %v]", rep.RingExposed, rep.RingTotal)
	}
}

// ZeRO-1 shards optimizer state across the data-parallel group: memory
// drops, a parameter all-gather appears.
func TestZeRO1ShardsOptimizerState(t *testing.T) {
	g := blockGraph(t, model.OPT6B7())
	cl := device.MustCluster(8, 4, device.V100Profile())
	seqs := megatronSeqs(t, g, 3, 3) // pure data parallel: everything replicated
	plain := New(cl)
	base, err := plain.Run(g, seqs, 4)
	if err != nil {
		t.Fatal(err)
	}
	z := New(cl)
	z.ZeRO1 = true
	zrep, err := z.Run(g, seqs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if zrep.PeakMemoryBytes >= base.PeakMemoryBytes {
		t.Fatalf("ZeRO-1 did not reduce memory: %v vs %v", zrep.PeakMemoryBytes, base.PeakMemoryBytes)
	}
	if zrep.Collective <= base.Collective {
		t.Fatal("ZeRO-1 must add the parameter all-gather")
	}
	// Under 8-way DP the optimizer share shrinks ~8x: total weight state
	// drops from 8 units to 2 + 6/8 = 2.75 units.
	ratio := zrep.PeakMemoryBytes / base.PeakMemoryBytes
	if ratio > 0.75 {
		t.Fatalf("ZeRO-1 memory ratio %v too weak for 8-way DP", ratio)
	}
}

// Activation recomputation trades compute for activation memory.
func TestRecomputeTradesComputeForMemory(t *testing.T) {
	g := blockGraph(t, model.Llama2_70B())
	cl := device.MustCluster(8, 4, device.V100Profile())
	seqs := megatronSeqs(t, g, 3, 0)
	base, err := New(cl).Run(g, seqs, 16)
	if err != nil {
		t.Fatal(err)
	}
	rc := New(cl)
	rc.Recompute = true
	rep, err := rc.Run(g, seqs, 16)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PeakMemoryBytes >= base.PeakMemoryBytes {
		t.Fatalf("recompute did not reduce memory: %v vs %v",
			rep.PeakMemoryBytes, base.PeakMemoryBytes)
	}
	if rep.Compute <= base.Compute*1.2 {
		t.Fatalf("recompute should add ≈1/3 compute: %v vs %v", rep.Compute, base.Compute)
	}
	if rep.IterationTime <= base.IterationTime {
		t.Fatal("recompute cannot be faster")
	}
}

// Per-op attribution: the sum of operator breakdowns equals the report's
// aggregate counters, and the expensive linears dominate.
func TestPerOpBreakdown(t *testing.T) {
	g := blockGraph(t, model.OPT175B())
	cl := device.MustCluster(8, 4, device.V100Profile())
	s := New(cl)
	seqs := megatronSeqs(t, g, 3, 1)
	rep, err := s.Run(g, seqs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerOp) == 0 {
		t.Fatal("no per-op breakdown")
	}
	var comp, coll, ring float64
	for _, ob := range rep.PerOp {
		comp += ob.Compute
		coll += ob.Collective
		ring += ob.Ring
	}
	if math.Abs(comp-rep.Compute) > 1e-9 || math.Abs(coll-rep.Collective) > 1e-9 ||
		math.Abs(ring-rep.RingTotal) > 1e-9 {
		t.Fatalf("breakdown does not sum to aggregates: %v/%v, %v/%v, %v/%v",
			comp, rep.Compute, coll, rep.Collective, ring, rep.RingTotal)
	}
	if rep.PerOp["fc1"].Compute <= rep.PerOp["norm1"].Compute {
		t.Fatal("fc1 should dominate norm1 in compute")
	}
	// Row-parallel fc2 carries the forward all-reduce.
	if rep.PerOp["fc2"].Collective <= 0 {
		t.Fatal("fc2 should show collective time under Megatron")
	}
}

// ---- Prepare/Run against the per-layer reference ----

// reportDiff names the first field in which two reports differ bit for
// bit, or returns "" when they are identical (PerOp by sorted key,
// Segments in order).
func reportDiff(got, want *Report) string {
	scalars := []struct {
		name      string
		got, want float64
	}{
		{"IterationTime", got.IterationTime, want.IterationTime},
		{"Compute", got.Compute, want.Compute},
		{"Collective", got.Collective, want.Collective},
		{"RingTotal", got.RingTotal, want.RingTotal},
		{"RingExposed", got.RingExposed, want.RingExposed},
		{"Redistribution", got.Redistribution, want.Redistribution},
		{"PeakMemoryBytes", got.PeakMemoryBytes, want.PeakMemoryBytes},
	}
	for _, f := range scalars {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			return fmt.Sprintf("%s = %v, want %v", f.name, f.got, f.want)
		}
	}
	if (got.PerOp == nil) != (want.PerOp == nil) || len(got.PerOp) != len(want.PerOp) {
		return fmt.Sprintf("PerOp has %d entries (nil %v), want %d (nil %v)",
			len(got.PerOp), got.PerOp == nil, len(want.PerOp), want.PerOp == nil)
	}
	names := make([]string, 0, len(want.PerOp))
	for name := range want.PerOp {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g, w := got.PerOp[name], want.PerOp[name]
		if g == nil {
			return fmt.Sprintf("PerOp[%q] missing", name)
		}
		if math.Float64bits(g.Compute) != math.Float64bits(w.Compute) ||
			math.Float64bits(g.Collective) != math.Float64bits(w.Collective) ||
			math.Float64bits(g.Ring) != math.Float64bits(w.Ring) {
			return fmt.Sprintf("PerOp[%q] = %+v, want %+v", name, *g, *w)
		}
	}
	if (got.Segments == nil) != (want.Segments == nil) || len(got.Segments) != len(want.Segments) {
		return fmt.Sprintf("%d segments, want %d", len(got.Segments), len(want.Segments))
	}
	for i, g := range got.Segments {
		w := want.Segments[i]
		if g.Name != w.Name || g.Phase != w.Phase || g.Kind != w.Kind || g.Stream != w.Stream ||
			math.Float64bits(g.Start) != math.Float64bits(w.Start) ||
			math.Float64bits(g.End) != math.Float64bits(w.End) {
			return fmt.Sprintf("segment %d = %+v, want %+v", i, g, w)
		}
	}
	return ""
}

// simVariants is every combination of the four Simulator switches.
func simVariants(cl *device.Cluster) []*Simulator {
	var out []*Simulator
	for bits := 0; bits < 16; bits++ {
		s := New(cl)
		s.Overlap = bits&1 == 0
		s.Recompute = bits&2 != 0
		s.ZeRO1 = bits&4 != 0
		s.RecordSegments = bits&8 != 0
		out = append(out, s)
	}
	return out
}

// TestPreparedRunMatchesReference pins the Prepare/Run split to the
// per-layer reference over four models × {2,4,8,16} devices × layers
// {1,3,8} × all 16 switch combinations, for the searched strategy and for
// Megatron with data parallelism: every Report field must be bit-identical.
// One Prepared serves layers {1,3,8,1} in that order and each answer must
// equal a fresh Run, so no state leaks from one Run into the next, and the
// first report must be untouched by the later Runs.
func TestPreparedRunMatchesReference(t *testing.T) {
	models := []model.Config{model.OPT6B7(), model.OPT175B(), model.Llama2_70B(), model.BLOOM176B()}
	cache := core.NewSearchCache()
	var ring, redist, gathers bool
	for _, devices := range []int{2, 4, 8, 16} {
		if devices == 16 && testing.Short() {
			continue
		}
		perNode := devices
		if perNode > 4 {
			perNode = 4
		}
		cl := device.MustCluster(devices, perNode, device.V100Profile())
		for _, cfg := range models {
			g := blockGraph(t, cfg)
			opt := core.NewOptimizer(cost.NewModel(cl))
			opt.Cache = cache
			strat, err := opt.Plan(context.Background(), core.PlanRequest{Graph: g, Layers: cfg.Layers})
			if err != nil {
				t.Fatal(err)
			}
			strategies := map[string][]partition.Seq{
				"primepar": strat.Seqs,
				"megatron": megatronSeqs(t, g, cl.Bits(), 1),
			}
			for sname, seqs := range strategies {
				for vi, s := range simVariants(cl) {
					p, err := s.Prepare(g, seqs)
					if err != nil {
						t.Fatal(err)
					}
					var first *Report
					for _, layers := range []int{1, 3, 8, 1} {
						name := fmt.Sprintf("%s@%d/%s/variant%d/layers%d", cfg.Name, devices, sname, vi, layers)
						want, err := referenceRun(s, g, seqs, layers)
						if err != nil {
							t.Fatal(err)
						}
						fresh, err := s.Run(g, seqs, layers)
						if err != nil {
							t.Fatal(err)
						}
						got, err := p.Run(layers)
						if err != nil {
							t.Fatal(err)
						}
						if d := reportDiff(fresh, want); d != "" {
							t.Fatalf("%s: Run diverged from the reference: %s", name, d)
						}
						if d := reportDiff(got, want); d != "" {
							t.Fatalf("%s: reused Prepared diverged from the reference: %s", name, d)
						}
						if first == nil {
							first = got
						} else if layers == 1 {
							if d := reportDiff(first, want); d != "" {
								t.Fatalf("%s: the first report changed under later Runs: %s", name, d)
							}
						}
						ring = ring || want.RingTotal > 0
						redist = redist || want.Redistribution > 0
					}
					for _, n := range p.nodes {
						gathers = gathers || len(n.gathers) > 0
					}
				}
			}
		}
	}
	if !ring || !redist || !gathers {
		t.Fatalf("grid misses a mechanism: ring %v, redistribution %v, ZeRO-1 gathers %v", ring, redist, gathers)
	}
}

// A Prepared copies the Simulator's options: changing any field of the
// Simulator after Prepare leaves its Runs unchanged. Each change is checked
// on a strategy where a fresh Run does notice it.
func TestPreparedIgnoresLaterSimulatorChanges(t *testing.T) {
	cl := device.MustCluster(8, 4, device.V100Profile())
	block := blockGraph(t, model.OPT6B7())
	mlp := mlpGraph(t)
	prime := partition.NewSeq(partition.NewPrime(1, model.LinM, model.LinN, model.LinK))
	cases := []struct {
		name string
		g    *graph.Graph
		seqs []partition.Seq
	}{
		{"megatron block", block, megatronSeqs(t, block, 3, 1)},
		{"prime mlp", mlp, []partition.Seq{
			partition.NewSeq(partition.Split(1), partition.Split(1)),
			prime,
			partition.NewSeq(partition.Split(1), partition.Split(2)),
			prime,
		}},
	}
	changes := map[string]func(*Simulator){
		"Cluster":              func(s *Simulator) { s.Cluster = device.MustCluster(8, 2, device.V100Profile()) },
		"Overlap":              func(s *Simulator) { s.Overlap = false },
		"ParamBytesPerElement": func(s *Simulator) { s.ParamBytesPerElement = 2 },
		"ZeRO1":                func(s *Simulator) { s.ZeRO1 = true },
		"Recompute":            func(s *Simulator) { s.Recompute = true },
		"RecordSegments":       func(s *Simulator) { s.RecordSegments = true },
	}
	for field, change := range changes {
		noticed := false
		for _, tc := range cases {
			want, err := referenceRun(New(cl), tc.g, tc.seqs, 3)
			if err != nil {
				t.Fatal(err)
			}
			s := New(cl)
			p, err := s.Prepare(tc.g, tc.seqs)
			if err != nil {
				t.Fatal(err)
			}
			change(s)
			changed, err := s.Run(tc.g, tc.seqs, 3)
			if err != nil {
				t.Fatal(err)
			}
			if reportDiff(changed, want) == "" {
				continue
			}
			noticed = true
			got, err := p.Run(3)
			if err != nil {
				t.Fatal(err)
			}
			if d := reportDiff(got, want); d != "" {
				t.Errorf("%s, %s changed after Prepare leaked into Run: %s", tc.name, field, d)
			}
		}
		if !noticed {
			t.Errorf("no case notices a change of %s", field)
		}
	}
}

// Runs of one Prepared share no mutable state: concurrent Runs at
// different depths each match the reference.
func TestPreparedConcurrentRuns(t *testing.T) {
	g := blockGraph(t, model.OPT6B7())
	cl := device.MustCluster(8, 4, device.V100Profile())
	seqs := megatronSeqs(t, g, 3, 1)
	s := New(cl)
	s.RecordSegments = true
	p, err := s.Prepare(g, seqs)
	if err != nil {
		t.Fatal(err)
	}
	layers := []int{1, 2, 3, 4, 5, 6, 7, 8}
	diffs := make([]string, len(layers))
	var wg sync.WaitGroup
	for i, l := range layers {
		wg.Add(1)
		go func(i, l int) {
			defer wg.Done()
			got, err := p.Run(l)
			if err != nil {
				diffs[i] = err.Error()
				return
			}
			want, err := referenceRun(s, g, seqs, l)
			if err != nil {
				diffs[i] = err.Error()
				return
			}
			diffs[i] = reportDiff(got, want)
		}(i, l)
	}
	wg.Wait()
	for i, d := range diffs {
		if d != "" {
			t.Errorf("%d layers: %s", layers[i], d)
		}
	}
}

func TestPreparedRunValidatesLayers(t *testing.T) {
	g := mlpGraph(t)
	p, err := New(device.MustCluster(4, 4, device.V100Profile())).Prepare(g, megatronSeqs(t, g, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(0); err == nil {
		t.Fatal("layers=0 accepted")
	}
}

// BenchmarkSimRun measures one simulated iteration of 96 OPT-175B layers on
// 16 devices (Prepare and Run together).
func BenchmarkSimRun(b *testing.B) {
	cl := device.MustCluster(16, 4, device.V100Profile())
	g, err := model.BuildBlock(model.OPT175B())
	if err != nil {
		b.Fatal(err)
	}
	seqs, err := baseline.Megatron(g, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	s := New(cl)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(g, seqs, 96); err != nil {
			b.Fatal(err)
		}
	}
}

// refState is the reference timeline of the simulated device.
type refState struct {
	sim      *Simulator
	computeT float64 // compute stream clock
	commT    float64 // communication stream clock
	rep      *Report

	curMem  float64
	peakMem float64
}

func (st *refState) alloc(bytes float64) {
	st.curMem += bytes
	if st.curMem > st.peakMem {
		st.peakMem = st.curMem
	}
}

func (st *refState) free(bytes float64) { st.curMem -= bytes }

// attribute tallies busy time to an operator's breakdown entry.
func (st *refState) attribute(name, kind string, dur float64) {
	if st.rep.PerOp == nil {
		st.rep.PerOp = map[string]*OpBreakdown{}
	}
	ob := st.rep.PerOp[name]
	if ob == nil {
		ob = &OpBreakdown{}
		st.rep.PerOp[name] = ob
	}
	switch kind {
	case "compute":
		ob.Compute += dur
	case "allreduce":
		ob.Collective += dur
	case "ring":
		ob.Ring += dur
	}
}

func (st *refState) record(name string, ph partition.Phase, kind string, stream Stream, start, end float64) {
	if !st.sim.RecordSegments || end <= start {
		return
	}
	st.rep.Segments = append(st.rep.Segments, Segment{
		Name: name, Phase: ph, Kind: kind, Stream: stream, Start: start, End: end,
	})
}

// barrier synchronises both streams (entering a blocking collective).
func (st *refState) barrier() float64 {
	if st.commT > st.computeT {
		st.computeT = st.commT
	} else {
		st.commT = st.computeT
	}
	return st.computeT
}

// runPhase executes one phase of one operator: `steps` kernels with ring
// transfers for the next step overlapping each kernel, then any all-reduce.
func (st *refState) runPhase(op *graph.Op, seq partition.Seq, ph partition.Phase) {
	cl := st.sim.Cluster
	if !cost.PhaseApplicable(op, ph) {
		return
	}
	steps := seq.Steps()
	slices := cost.SliceProduct(op, seq)
	perStepFlops := op.Flops() / slices
	eb := cl.Profile.ElementBytes
	perStepBytes := 0.0
	for ti := range op.Tensors {
		perStepBytes += cost.BlockElems(op, seq, ti) * eb
	}
	computeStep := cl.ComputeTime(perStepFlops, perStepBytes)

	// Ring transfer volume per step (all Prime tokens).
	ringStep := 0.0
	primeBits := seq.PrimeBitPositions()
	pi := 0
	for _, tok := range seq.Tokens {
		if tok.Kind != partition.Prime {
			continue
		}
		vAxis := cost.VaryingAxis(tok, ph)
		bytes := 0.0
		for ti, t := range op.Tensors {
			for _, ax := range t.Axes {
				if ax == vAxis {
					bytes += cost.BlockElems(op, seq, ti) * eb
					break
				}
			}
		}
		ringStep += cl.RingStepTime(device.Indicator(primeBits[pi]), bytes)
		pi++
	}

	dataReady := 0.0 // first step's data is already resident (Feature 3)
	for t := 0; t < steps; t++ {
		start := st.computeT
		if dataReady > start {
			start = dataReady
		}
		if !st.sim.Overlap && st.commT > start {
			start = st.commT
		}
		end := start + computeStep
		st.record(op.Name, ph, "compute", ComputeStream, start, end)
		st.rep.Compute += computeStep
		st.attribute(op.Name, "compute", computeStep)
		st.computeT = end

		if ringStep > 0 && t < steps-1 {
			// Transfer the NEXT step's blocks while this kernel runs —
			// or, with overlap disabled, only after it finishes.
			rs := st.commT
			issue := start
			if !st.sim.Overlap {
				issue = end
			}
			if issue > rs {
				rs = issue
			}
			re := rs + ringStep
			st.record(op.Name, ph, "ring", CommStream, rs, re)
			st.rep.RingTotal += ringStep
			st.attribute(op.Name, "ring", ringStep)
			st.commT = re
			dataReady = re
		}
	}
	// Trailing redistribution transfers (W at the end of Backward, dW at
	// the end of Gradient — Table 1's last-step rows) overlap the final
	// kernel; model them as one more ring step on the comm stream.
	if ringStep > 0 && (ph == partition.Backward || ph == partition.Gradient) {
		rs := st.commT
		re := rs + ringStep
		st.record(op.Name, ph, "ring", CommStream, rs, re)
		st.rep.RingTotal += ringStep
		st.attribute(op.Name, "ring", ringStep)
		st.commT = re
	}

	// All-reduce for spatially-split reduced axes: a blocking collective.
	for _, red := range op.Reductions[ph] {
		bits := seq.SplitBitsFor(red.Over)
		if len(bits) == 0 {
			continue
		}
		bytes := cost.BlockElems(op, seq, red.Result) * eb
		ar := cl.AllReduceTime(device.Indicator(bits), bytes)
		if ar <= 0 {
			continue
		}
		start := st.barrier()
		end := start + ar
		st.record(op.Name, ph, "allreduce", CommStream, start, end)
		st.rep.Collective += ar
		st.attribute(op.Name, "allreduce", ar)
		st.computeT, st.commT = end, end
	}
}

// redistribute inserts a blocking inter-operator resharding transfer whose
// intra-node and inter-node shares flow concurrently.
func (st *refState) redistribute(name string, ph partition.Phase, intraBytes, interBytes float64) {
	if intraBytes <= 0 && interBytes <= 0 {
		return
	}
	cl := st.sim.Cluster
	n := float64(cl.NumDevices)
	var ti, te float64
	if intraBytes > 0 {
		bw, lat := cl.IntraLink()
		ti = intraBytes/n/bw + lat
	}
	if interBytes > 0 {
		bw, lat := cl.InterLink()
		te = interBytes/n/bw + lat
	}
	lat := ti
	if te > lat {
		lat = te
	}
	start := st.barrier()
	end := start + lat
	st.record(name, ph, "redistribute", CommStream, start, end)
	st.rep.Redistribution += lat
	st.computeT, st.commT = end, end
}

// referenceRun is the simulator as it was before the Prepare/Run split:
// every per-phase constant, memory footprint and edge traffic is derived
// again for every layer. Prepared.Run must reproduce it bit for bit.
func referenceRun(s *Simulator, g *graph.Graph, seqs []partition.Seq, layers int) (*Report, error) {
	if len(seqs) != len(g.Nodes) {
		return nil, fmt.Errorf("sim: %d sequences for %d nodes", len(seqs), len(g.Nodes))
	}
	if layers < 1 {
		return nil, fmt.Errorf("sim: layers must be ≥ 1")
	}
	nbits := s.Cluster.Bits()
	for i, seq := range seqs {
		if err := seq.Validate(len(g.Nodes[i].Axes), nbits); err != nil {
			return nil, fmt.Errorf("sim: node %d: %w", i, err)
		}
	}

	rep := &Report{}
	st := &refState{sim: s, rep: rep}
	eb := s.Cluster.Profile.ElementBytes

	// Edge plans and per-edge locality-split traffic.
	costModel := cost.NewModel(s.Cluster)
	type edgeTraffic struct {
		e *graph.Edge
		t cost.Traffic
	}
	traffic := make([]edgeTraffic, len(g.Edges))
	for i, e := range g.Edges {
		plan := costModel.PlanEdge(g, e)
		src := costModel.OutputIface(g.Nodes[e.Src], seqs[e.Src])
		dst := costModel.InputIface(g.Nodes[e.Dst], seqs[e.Dst])
		traffic[i] = edgeTraffic{e: e, t: plan.Measure(src, dst)}
	}

	// Resident weights (with gradient and optimizer state) for all layers.
	for i, op := range g.Nodes {
		w := 0.0
		for ti, t := range op.Tensors {
			if t.Kind != graph.Weight {
				continue
			}
			mult := s.ParamBytesPerElement
			if s.ZeRO1 {
				repl := cost.WeightReplication(op, seqs[i], ti, nbits)
				mult = (s.ParamBytesPerElement - cost.OptimizerStateShare) + cost.OptimizerStateShare/repl
			}
			w += cost.BlockElems(op, seqs[i], ti) * mult
		}
		st.alloc(w * eb * float64(layers))
	}

	// Double buffers for Prime-partitioned operators (held for the whole
	// iteration).
	for i, op := range g.Nodes {
		st.alloc(doubleBufferBytes(op, seqs[i], eb))
	}

	// Boundary activation kept per layer under recomputation: the layer's
	// input block (the first node's input ≈ its stash).
	boundaryBytes := 0.0
	if s.Recompute && len(g.Nodes) > 0 {
		boundaryBytes = stashBytes(g.Nodes[0], seqs[0], eb)
		if boundaryBytes == 0 && len(g.Nodes) > 1 {
			boundaryBytes = stashBytes(g.Nodes[1], seqs[1], eb)
		}
	}

	// ---- Forward pass ----
	for layer := 0; layer < layers; layer++ {
		for i, op := range g.Nodes {
			for _, tr := range traffic {
				if tr.e.Dst == i {
					st.redistribute(op.Name, partition.Forward, tr.t.FwdIntra, tr.t.FwdInter)
				}
			}
			// Working output block, alive within the layer.
			outBytes := cost.BlockElems(op, seqs[i], op.OutputTensor) * eb
			st.alloc(outBytes)
			if s.Recompute {
				// Activations are dropped; only the layer boundary stays.
				if i == 0 {
					st.alloc(boundaryBytes)
				}
			} else {
				st.alloc(stashBytes(op, seqs[i], eb))
			}
			st.runPhase(op, seqs[i], partition.Forward)
			st.free(outBytes)
		}
	}

	// ---- Backward + Gradient passes (reverse layer and op order) ----
	for layer := layers - 1; layer >= 0; layer-- {
		if s.Recompute {
			// Re-run the layer's forward phases to rebuild activations
			// (which now live only for this layer's backward).
			for i, op := range g.Nodes {
				st.alloc(stashBytes(op, seqs[i], eb))
				st.runPhase(op, seqs[i], partition.Forward)
			}
		}
		for i := len(g.Nodes) - 1; i >= 0; i-- {
			op := g.Nodes[i]
			// Gradients arriving from consumers.
			for _, tr := range traffic {
				if tr.e.Src == i {
					st.redistribute(op.Name, partition.Backward, tr.t.BwdIntra, tr.t.BwdInter)
				}
			}
			st.runPhase(op, seqs[i], partition.Backward)
			st.runPhase(op, seqs[i], partition.Gradient)
			st.free(stashBytes(op, seqs[i], eb))
		}
		if s.Recompute {
			st.free(boundaryBytes)
		}
	}

	// ZeRO-1 optimizer step: each replica group all-gathers the freshly
	// updated parameters of its weight shards (once per iteration).
	if s.ZeRO1 {
		for i, op := range g.Nodes {
			for ti, t := range op.Tensors {
				if t.Kind != graph.Weight {
					continue
				}
				bits := seqs[i].ReplicaBits(t.Axes, nbits)
				if len(bits) == 0 {
					continue
				}
				bytes := cost.BlockElems(op, seqs[i], ti) * eb * float64(layers)
				ag := s.Cluster.AllGatherTime(device.Indicator(bits), bytes)
				start := st.barrier()
				st.record(op.Name, partition.Gradient, "allreduce", CommStream, start, start+ag)
				st.rep.Collective += ag
				st.computeT, st.commT = start+ag, start+ag
			}
		}
	}

	end := st.barrier()
	rep.IterationTime = end
	rep.RingExposed = ringExposed(rep)
	rep.PeakMemoryBytes = st.peakMem
	return rep, nil
}

// stashBytes is one operator's activation stash bytes, for referenceRun.
func stashBytes(op *graph.Op, seq partition.Seq, eb float64) float64 {
	b := 0.0
	for _, ti := range op.Stash {
		b += cost.BlockElems(op, seq, ti) * eb
	}
	return b
}
