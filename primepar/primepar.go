// Package primepar is the public API of the PrimePar reproduction: given a
// transformer model and a cluster description, it searches the
// spatial-temporal tensor partition space (paper: "PrimePar: Efficient
// Spatial-temporal Tensor Partitioning for Large Transformer Model
// Training", ASPLOS 2024) for the optimal training strategy. Plan.Report
// describes a plan from one simulator run: the simulated iteration and its
// timeline, a per-operator attribution with the cost model's per-layer
// terms, the simulated peak memory against the device capacity, and
// deployment warnings.
//
// Quick start:
//
//	cluster, _ := primepar.NewCluster(8, 4)
//	plan, _ := primepar.Search(primepar.OPT6B7(), cluster)
//	fmt.Println(plan.Describe())
//	rep, _ := plan.Report() // one simulated iteration, validated
//	fmt.Printf("tokens/s: %.0f\n", rep.Sim.Throughput(plan.TokensPerIteration()))
//	fmt.Println(rep.Attribution())
//
// The heavy lifting lives in the internal packages: partition (DSI algebra,
// the P_{2^k×2^k} primitive), core (segmented dynamic programming), cost
// (Eq. 7–10 cost model), sim (discrete-event cluster simulator), runtime
// (numerically-verified SPMD executor), baseline (Megatron-LM / Alpa-style
// comparators) and pipeline (3D parallelism).
//
// The search is exact and its work grows about 15× per doubling of the
// devices, so Search plans at most 64 devices and Plan3D stages at most 64
// devices wide; wider requests return an error before any search runs.
package primepar

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// Config describes a transformer model and training workload.
type Config = model.Config

// Cluster describes the machine: 2^n homogeneous devices in nodes.
type Cluster = device.Cluster

// Profile holds hardware latency/bandwidth coefficients.
type Profile = device.Profile

// LinkTier is one level of a switch-fabric hierarchy (Profile.Links).
type LinkTier = device.LinkTier

// ComputeClass is one homogeneous slice of a heterogeneous machine
// (Profile.Classes).
type ComputeClass = device.ComputeClass

// Topology enumerates interconnect shapes (switch, torus-2d).
type Topology = device.Topology

// Seq is a tensor partition sequence 𝒫.
type Seq = partition.Seq

// SearchStats instruments one strategy search: cache effectiveness, work
// volume and wall time per DP stage (see internal/core.SearchStats).
type SearchStats = core.SearchStats

// WorkersEnv is the environment variable overriding the search worker count
// when Options leave it unset (e.g. PRIMEPAR_WORKERS=1 forces serial).
const WorkersEnv = core.WorkersEnv

// Report is a simulated training-iteration measurement.
type Report = sim.Report

// The paper's six evaluation models.
var (
	OPT6B7    = model.OPT6B7
	OPT175B   = model.OPT175B
	Llama2_7B = model.Llama2_7B
	Llama270B = model.Llama2_70B
	BLOOM7B1  = model.BLOOM7B1
	BLOOM176B = model.BLOOM176B
)

// Models returns the paper's evaluation models.
func Models() []Config { return model.All() }

// ModelByName looks up a model by its paper name (e.g. "OPT-175B").
func ModelByName(name string) (Config, error) { return model.ByName(name) }

// V100Profile is the paper's testbed hardware profile.
func V100Profile() Profile { return device.V100Profile() }

// Profiles returns every named machine preset (V100 testbed, A100, TPU-v4
// torus, mixed A100+V100 fleet, three-tier A100 superpod).
func Profiles() []Profile { return device.Profiles() }

// ProfileByName resolves a preset name (e.g. "a100-cluster") to its Profile.
func ProfileByName(name string) (Profile, error) { return device.ProfileByName(name) }

// ParseTopology maps "switch" or "torus-2d" to a Topology value.
func ParseTopology(s string) (Topology, error) { return device.ParseTopology(s) }

// ParseLinksSpec parses a custom link hierarchy from its CLI encoding
// (comma-separated name:width:bandwidth:latency tiers, innermost first;
// width "rest" on the last tier absorbs the remaining devices).
func ParseLinksSpec(spec string) ([]LinkTier, error) { return device.ParseLinksSpec(spec) }

// NewCluster builds a cluster of `devices` GPUs (a power of two, at most
// 1024) with `perNode` per node using the V100 profile.
func NewCluster(devices, perNode int) (*Cluster, error) {
	return device.NewCluster(devices, perNode, device.V100Profile())
}

// NewClusterWithProfile builds a cluster with custom hardware coefficients.
func NewClusterWithProfile(devices, perNode int, p Profile) (*Cluster, error) {
	return device.NewCluster(devices, perNode, p)
}

// Options tune the search.
type Options struct {
	// Alpha is the latency↔memory weight of the paper's Eq. 7
	// (seconds per byte of per-device peak memory).
	Alpha float64
	// SpatialOnly restricts the space to conventional partition-by-
	// dimension (the Alpa-like baseline): a mask on the PrimePar space, so
	// both searches of one model and cluster share one prepared layer.
	SpatialOnly bool
	// NoBatchSplit forbids partitioning the batch axis (used when data
	// parallelism is controlled externally, e.g. 3D configurations).
	NoBatchSplit bool
	// MaxPrimeK caps the spatial-temporal primitive's order (default 2,
	// i.e. up to P_{4×4}).
	MaxPrimeK int
}

// Plan is an optimized parallel training strategy for a model on a cluster.
type Plan struct {
	Model   Config
	Cluster *Cluster
	// Seqs assigns one partition sequence to each node of the
	// transformer-block graph (see internal/model for the node layout).
	Seqs []Seq
	// PredictedCost is the optimizer's Eq. 10 objective for all layers:
	// for a searched plan, exactly Model.Layers × LayerCost, since every
	// layer runs Seqs.
	PredictedCost float64
	// LayerCost is the DP cost of the one layer Seqs describes (zero for
	// baseline plans, which report only the overall objective).
	LayerCost float64
	// SpaceSizes records the per-node candidate-space sizes |P|.
	SpaceSizes []int
	// Stats instruments the search that produced the plan (zero for
	// baseline plans, which perform no search).
	Stats SearchStats

	system string
}

// Search finds the optimal spatial-temporal partition strategy for cfg on
// the cluster (the PrimePar system). At most one Options value may be
// passed; passing more returns an error.
func Search(cfg Config, cluster *Cluster, opts ...Options) (*Plan, error) {
	o, err := searchOptions(opts)
	if err != nil {
		return nil, err
	}
	g, err := model.BuildBlock(cfg)
	if err != nil {
		return nil, err
	}
	m := cost.NewModel(cluster)
	m.Alpha = o.Alpha
	opt := core.NewOptimizer(m)
	opt.Opts.AllowBatchSplit = !o.NoBatchSplit
	if o.MaxPrimeK > 0 {
		opt.Opts.MaxPrimeK = o.MaxPrimeK
	}
	req := core.PlanRequest{Graph: g, Layers: cfg.Layers}
	name := "PrimePar"
	if o.SpatialOnly {
		req.Keep, name = baseline.SpatialOnly, "spatial-only"
	}
	strat, err := opt.Plan(context.Background(), req)
	if err != nil {
		return nil, err
	}
	return &Plan{
		Model:         cfg,
		Cluster:       cluster,
		Seqs:          strat.Seqs,
		PredictedCost: strat.TotalCost,
		LayerCost:     strat.LayerCost,
		SpaceSizes:    strat.SpaceSizes,
		Stats:         strat.Stats,
		system:        name,
	}, nil
}

func searchOptions(opts []Options) (Options, error) {
	if len(opts) > 1 {
		return Options{}, fmt.Errorf("primepar: pass at most one Options value, got %d", len(opts))
	}
	o := Options{Alpha: 1e-12}
	if len(opts) == 1 {
		o = opts[0]
	}
	return o, nil
}

// MegatronPlan builds the Megatron-LM baseline strategy with 2^dBits-way
// data parallelism (pass dBits=-1 to auto-select the fastest).
func MegatronPlan(cfg Config, cluster *Cluster, dBits int) (*Plan, error) {
	g, err := model.BuildBlock(cfg)
	if err != nil {
		return nil, err
	}
	m := cost.NewModel(cluster)
	var seqs []Seq
	if dBits < 0 {
		best, err := baseline.BestMegatron(m, g)
		if err != nil {
			return nil, err
		}
		seqs = best.Seqs
	} else {
		seqs, err = baseline.Megatron(g, cluster.Bits(), dBits)
		if err != nil {
			return nil, err
		}
	}
	return &Plan{
		Model:         cfg,
		Cluster:       cluster,
		Seqs:          seqs,
		PredictedCost: m.Overall(g, seqs),
		system:        "Megatron-LM",
	}, nil
}

// TokensPerIteration returns the training tokens each iteration processes.
func (p *Plan) TokensPerIteration() float64 {
	return float64(p.Model.Batch) * float64(p.Model.SeqLen)
}

// Describe renders the plan in the paper's Fig. 9 𝒫 notation.
func (p *Plan) Describe() string {
	g, err := model.BuildBlock(p.Model)
	if err != nil {
		return err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s strategy for %s on %d GPUs (%d/node):\n",
		p.system, p.Model.Name, p.Cluster.NumDevices, p.Cluster.DevicesPerNode)
	for i, op := range g.Nodes {
		fmt.Fprintf(&b, "  %-8s 𝒫 = %s\n", op.Name, p.Seqs[i].Format(op.AxisNames()))
	}
	if p.PredictedCost > 0 {
		fmt.Fprintf(&b, "  predicted cost: %.4g s/iteration\n", p.PredictedCost)
	}
	return b.String()
}

// PlanReport describes a plan from one simulator run: the simulated
// iteration with its kernel timeline, one attribution row per operator, the
// simulated peak memory against the device capacity, and the deployment
// warnings.
type PlanReport struct {
	// Sim is the simulated training iteration; Sim.Segments holds the
	// kernel timeline (exportable via internal/trace).
	Sim *Report
	// Ops has one row per node of the transformer-block graph, in graph
	// order.
	Ops []OpReport
	// PeakMemoryBytes is the simulated per-device peak (Sim.PeakMemoryBytes),
	// not a sum of the per-operator model terms.
	PeakMemoryBytes float64
	// MemoryCapacity is the device's Profile.MemoryCapacity (zero when the
	// profile does not state one).
	MemoryCapacity float64
	// Fits reports whether PeakMemoryBytes is within MemoryCapacity (always
	// true when the capacity is unknown).
	Fits bool
	// Warnings lists the over-sliced axes and the axes whose slice count
	// does not divide them (ragged kernels) in graph order, then the
	// capacity overflow when the plan does not fit; empty means clean.
	Warnings []string

	title string
}

// OpReport is one operator's row of a PlanReport.
type OpReport struct {
	Name string
	// Seq is the operator's partition sequence in the paper's 𝒫 notation.
	Seq string
	// Simulated is the compute, all-reduce (Collective) and ring seconds
	// the simulator attributes to the operator, summed over all layers.
	Simulated sim.OpBreakdown
	// Model is the cost model's per-layer Eq. 7 terms for the operator
	// (cost.Intra): Compute, RingTotal, AllReduce and MemoryBytes, the
	// values /v1/plan sends as nodes[i]. Model.MemoryBytes is the
	// operator's memory term, not a peak.
	Model cost.Intra
}

// Report validates the plan for deployment and simulates one training
// iteration with its kernel timeline recorded. A strategy/graph arity
// mismatch or a sequence that does not fit the operator or the device bit
// budget is an error; over-sliced or ragged axes and a simulated peak above
// the device capacity are warnings.
func (p *Plan) Report() (*PlanReport, error) {
	g, err := model.BuildBlock(p.Model)
	if err != nil {
		return nil, err
	}
	if len(p.Seqs) != len(g.Nodes) {
		return nil, fmt.Errorf("primepar: plan has %d strategies for a %d-node graph", len(p.Seqs), len(g.Nodes))
	}
	r := &PlanReport{
		Ops:            make([]OpReport, len(g.Nodes)),
		MemoryCapacity: p.Cluster.Profile.MemoryCapacity,
		title:          fmt.Sprintf("Per-operator attribution — %s on %d GPUs", p.Model.Name, p.Cluster.NumDevices),
	}
	m := cost.NewModel(p.Cluster)
	nbits := p.Cluster.Bits()
	for i, op := range g.Nodes {
		seq := p.Seqs[i]
		if err := seq.Validate(len(op.Axes), nbits); err != nil {
			return nil, fmt.Errorf("primepar: node %s: %w", op.Name, err)
		}
		for ax := range op.Axes {
			slices := seq.NumSlices(ax)
			if slices > op.Axes[ax].Size {
				r.Warnings = append(r.Warnings, fmt.Sprintf(
					"%s: axis %s sliced %d ways but has only %d elements",
					op.Name, op.Axes[ax].Name, slices, op.Axes[ax].Size))
			} else if op.Axes[ax].Size%slices != 0 {
				r.Warnings = append(r.Warnings, fmt.Sprintf(
					"%s: axis %s (%d) not divisible by %d slices (ragged kernels)",
					op.Name, op.Axes[ax].Name, op.Axes[ax].Size, slices))
			}
		}
		r.Ops[i] = OpReport{Name: op.Name, Seq: seq.Format(op.AxisNames()), Model: m.IntraCost(op, seq)}
	}
	s := sim.New(p.Cluster)
	s.RecordSegments = true
	if r.Sim, err = s.Run(g, p.Seqs, p.Model.Layers); err != nil {
		return nil, err
	}
	for i := range r.Ops {
		if ob := r.Sim.PerOp[r.Ops[i].Name]; ob != nil {
			r.Ops[i].Simulated = *ob
		}
	}
	r.PeakMemoryBytes = r.Sim.PeakMemoryBytes
	r.Fits = r.MemoryCapacity <= 0 || r.PeakMemoryBytes <= r.MemoryCapacity
	if !r.Fits {
		r.Warnings = append(r.Warnings, fmt.Sprintf(
			"projected peak memory %.1f GiB exceeds device capacity %.1f GiB — add pipeline stages, recomputation or ZeRO",
			r.PeakMemoryBytes/(1<<30), r.MemoryCapacity/(1<<30)))
	}
	return r, nil
}

// Attribution renders Ops as a per-operator cost attribution table — the
// paper's Fig. 9-style analysis for any model. The simulated columns are
// seconds summed over all layers; the memory column is the cost model's
// per-layer term.
func (r *PlanReport) Attribution() string {
	t := report.NewTable(r.title, "op", "𝒫", "sim compute Σ layers", "sim all-reduce Σ layers",
		"sim ring Σ layers", "model memory per layer")
	for _, op := range r.Ops {
		t.AddRow(op.Name, op.Seq, report.Seconds(op.Simulated.Compute), report.Seconds(op.Simulated.Collective),
			report.Seconds(op.Simulated.Ring), report.Bytes(op.Model.MemoryBytes))
	}
	return t.String()
}

// Digest returns a stable hex digest of the strategy content — the exact
// partition sequences and the bit patterns of the predicted costs. Two plans
// with equal digests chose identical strategies; the daemon's /v1/plan
// responses report the same digest, so clients can verify that a daemon
// answer matches an in-process plan.
func (p *Plan) Digest() string {
	return experiments.StrategyDigest(&core.Strategy{
		Seqs:      p.Seqs,
		LayerCost: p.LayerCost,
		TotalCost: p.PredictedCost,
		Layers:    p.Model.Layers,
	})
}

// UsesPrime reports whether any operator uses the spatial-temporal
// primitive P_{2^k×2^k}.
func (p *Plan) UsesPrime() bool {
	for _, s := range p.Seqs {
		if s.HasPrime() {
			return true
		}
	}
	return false
}

// VerifyTraining executes one training iteration of a linear operator
// O[M,K] = I[M,N]·W[N,K] partitioned by P_{2^k×2^k} on 4^k goroutine
// "devices" connected by channels — the paper's Fig. 4 orchestration — and
// returns the maximum absolute deviation from serial (unpartitioned)
// training across the forward output, both gradients and the updated
// weights. A tiny result (≈1e-12) certifies that the spatial-temporal
// partition preserves exact training semantics.
func VerifyTraining(k, m, n, kk int) (float64, error) {
	seq := partition.NewSeq(partition.NewPrime(k, runtime.AxM, runtime.AxN, runtime.AxK))
	eng, err := runtime.NewEngine(seq, 2*k, m, n, kk)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(1))
	I := tensor.New(m, n).FillRandom(rng)
	W := tensor.New(n, kk).FillRandom(rng)
	dO := tensor.New(m, kk).FillRandom(rng)
	got, err := eng.Train(I, W, dO, 0.01)
	if err != nil {
		return 0, err
	}
	o, di, dw, wNew := runtime.Serial(I, W, dO, 0.01)
	max := tensor.MaxAbsDiff(got.O, o)
	if e := tensor.MaxAbsDiff(got.DI, di); e > max {
		max = e
	}
	if e := tensor.MaxAbsDiff(got.DW, dw); e > max {
		max = e
	}
	if e := tensor.MaxAbsDiff(eng.AssembleWeights(got.DeviceW), wNew); e > max {
		max = e
	}
	return max, nil
}

// Config3D is a (pipeline, data, model) parallelism configuration.
type Config3D = pipeline.Config3D

// Plan3DRequest parameterizes the joint spatial-temporal 3D search.
type Plan3DRequest = pipeline.Plan3DRequest

// Tensor-parallel system selectors for Plan3DRequest.System.
const (
	SystemMegatron = pipeline.Megatron
	SystemPrimePar = pipeline.PrimePar
)

// Plan3DResult is a jointly optimized 3D deployment: stage boundaries,
// per-stage tensor strategies and the simulated 1F1B schedule breakdown.
type Plan3DResult = pipeline.Plan3D

// Plan3D jointly chooses pipeline-stage boundaries and per-stage PrimePar
// tensor partitions — never worse than the best uniform (p,d,m) grid point,
// usually better when the pipeline depth does not divide the layer count.
// Set req.Config to evaluate one grid configuration, req.Stages /
// req.DataParallel to pin dimensions, or neither to search everything.
func Plan3D(ctx context.Context, cfg Config, cluster *Cluster, req Plan3DRequest) (*Plan3DResult, error) {
	req.Model = cfg
	return pipeline.NewOptimizer(cluster).Plan3D(ctx, req)
}
