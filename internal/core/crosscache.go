// Cross-call search cache: node evaluations, edge matrices, merged layer DP
// tables (delta.go) and finished answers (plancache.go) persist ACROSS Plan
// calls, so a sweep that revisits the same model structure — other
// experiments, other α values, repeated scales — pays the quadratic stages
// once, a layer-count change runs stacking only, and an identical repeat
// runs no DP at all. The within-call signature memo (dp.go) dedups
// work inside one search; this cache dedups work between searches.
//
// Keys are exact byte encodings, like sig.go's: an environment prefix (every
// cluster, cost-model and search-option field the cached value depends on)
// followed by the per-op or per-edge structural signature. α is deliberately
// EXCLUDED from node entries — candidate enumeration, intra costs and
// interfaces never read it — so an α-sweep (AblationAlphaSweep) hits; the
// α-dependent totals are rebuilt per call from the cached Intra breakdowns,
// with the same expression evalNode uses, hence bit-identically. Edge
// matrices are α-independent too (RedistributeDetail never reads α).
//
// Every tier is one tier value (tier.go): a map, a cell count and a cap
// with an epoch flush. In-process inserts and disk-cache merges take the
// same insert, so no tier grows past its cap however its entries arrive.
//
// Configurations the byte encoding cannot identify — a calibration Book
// replaces the analytic formulas with arbitrary regressed models — bypass
// the cache entirely.
package core

import (
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/partition"
)

// nodeEntry is the α-independent part of a nodeCands evaluation, plus the
// candidate space's interned axis patterns (cost.Patterns of its output and
// of its input interfaces), which every edge touching the space groups and
// keys its tables by. They are built on the first edge build over the
// entry, never in evalNode or Load, so a warm plan-tier hit never pays for
// them, and once per entry: every later search that reuses the entry,
// in-process or loaded from disk, reuses them.
type nodeEntry struct {
	seqs  []partition.Seq
	intra []cost.Intra
	out   []*cost.Iface
	in    []*cost.Iface

	fitOnce sync.Once // guards fits
	fits    bool

	patOnce         sync.Once // guards outPats and inPats
	outPats, inPats *cost.Patterns
}

// fitsOp reports whether the entry fits op on cl: every interface has op's
// axis count and cl's device count, and every sequence passes Seq.Validate.
// An entry evaluated in this process always fits; one loaded from a hostile
// or corrupt disk cache may not, and the search then treats it as a miss.
// The node key fixes op's shape and the cluster, so the first caller's
// check holds for every caller, and it runs once per entry, not on every
// hit.
func (e *nodeEntry) fitsOp(op *graph.Op, cl *device.Cluster) bool {
	e.fitOnce.Do(func() { e.fits = e.fitsSpace(len(op.Axes), cl.NumDevices, cl.Bits()) })
	return e.fits
}

// patterns returns the interned axis patterns of the entry's output and
// input interfaces, building them on first use. Several edge builds of one
// search, or the concurrent stage searches of Plan3D on one SearchCache,
// may ask at the same moment; the build runs once. The entry must fit its
// op: evaluated in this process, or passed by fitsOp.
func (e *nodeEntry) patterns() (out, in *cost.Patterns) {
	e.patOnce.Do(func() {
		e.outPats = cost.NewPatterns(e.out)
		e.inPats = cost.NewPatterns(e.in)
	})
	return e.outPats, e.inPats
}

// fitsSpace reports whether every candidate's sequence is valid for a
// numAxes-axis op on nbits device-ID bits and both its interfaces describe
// numAxes axes on devices devices.
func (e *nodeEntry) fitsSpace(numAxes, devices, nbits int) bool {
	for _, s := range e.seqs {
		if s.Validate(numAxes, nbits) != nil {
			return false
		}
	}
	for _, ifs := range [2][]*cost.Iface{e.out, e.in} {
		for _, ifc := range ifs {
			if ifc == nil || ifc.NumAxes != numAxes || len(ifc.Width) != numAxes ||
				len(ifc.Fwd) != devices*numAxes || len(ifc.Bwd) != devices*numAxes {
				return false
			}
		}
	}
	return true
}

// withAlpha completes a cached entry into a per-call nodeCands: the totals
// are recomputed with the SAME expression evalNode uses, so a cache hit is
// bit-identical to a fresh evaluation.
func (e *nodeEntry) withAlpha(alpha float64) *nodeCands {
	total := make([]float64, len(e.intra))
	for i := range e.intra {
		total[i] = e.intra[i].Total(alpha)
	}
	return &nodeCands{nodeEntry: e, total: total}
}

// edgeEntry is one edge-tier value. A matrix built in this process is
// stored whole. One loaded from disk keeps its cells as Load checked them:
// a dictionary-coded run, sliced from the file's payload, that the first
// search hitting the entry decodes, once, as nodeEntry builds its patterns,
// and then drops. A warm restart reads plans and node entries, not edge
// matrices, so most loaded runs are never decoded (DESIGN.md §5.26); Save
// writes an undecoded run back verbatim.
type edgeEntry struct {
	m *edgeMat // rows, cols, nr and nc always; vals once decoded

	once  sync.Once              // guards the decode into m.vals
	coded atomic.Pointer[[]byte] // a loaded entry's checked run, until decoded
}

// fits reports whether the entry's group maps cover a src × dst candidate
// grid. A matrix built in this process always fits its spaces; one loaded
// from a hostile or corrupt disk cache may not, and the search then treats
// it as a miss. The check is two length compares, so it runs on every hit:
// a node-tier flush can replace the spaces the entry was first checked
// against.
func (e *edgeEntry) fits(src, dst int) bool {
	return len(e.m.rows) == src && len(e.m.cols) == dst
}

// matrix returns the entry's matrix, decoding a loaded entry's cells on
// first use. Concurrent first hits (the edge slots of several searches on
// one SearchCache) decode once; decoding a run Load checked cannot fail.
func (e *edgeEntry) matrix() *edgeMat {
	e.once.Do(func() {
		if run := e.coded.Load(); run != nil {
			e.m.vals = decodeCells(*run, e.m.nr*e.m.nc)
			e.coded.Store(nil)
		}
	})
	return e.m
}

// SearchCache carries node evaluations, edge matrices, layer DP tables and
// finished plans across Plan calls, one bounded tier each (tier.go). Safe
// for concurrent use; all cached values are read-only.
type SearchCache struct {
	nodes *tier[*nodeEntry]
	edges *tier[*edgeEntry]
	// tables (delta.go) is in memory only: the disk cache (diskcache.go)
	// persists nodes, edges and plans, and a table rebuilds from them in one
	// DP pass.
	tables *tier[*table]
	plans  *tier[*cachedPlan] // plancache.go
}

// NewSearchCache returns an empty cross-call cache.
func NewSearchCache() *SearchCache {
	return &SearchCache{
		nodes:  newTier(maxCachedNodeCells, nodeCells),
		edges:  newTier(maxCachedEdgeCells, edgeCells),
		tables: newTier(maxCachedTableCells, tableCells),
		plans:  newTier(maxCachedPlanCells, planCells),
	}
}

// noOverlaps is the always-empty stand-in Overlaps returns.
type noOverlaps struct{}

// Entries always returns zero.
func (noOverlaps) Entries() int { return 0 }

// Overlaps always reports an empty tier. It exposed a cross-scale overlap
// tier that made warm sweeps no faster and was deleted (DESIGN.md §5.8);
// the method stays because the repository benchmark calls it by name.
func (c *SearchCache) Overlaps() noOverlaps { return noOverlaps{} }

// DefaultSearchCache backs every NewOptimizer-built optimizer, so the
// experiment drivers (sweep, fig9, fig10, ablations, table2) share work with
// zero plumbing. Give an optimizer a private NewSearchCache (or nil) to
// isolate it.
var DefaultSearchCache = NewSearchCache()

// Sizes reports the node and edge entry counts, mostly for logging and tests.
func (c *SearchCache) Sizes() (nodes, edges int) { return c.nodes.len(), c.edges.len() }

// TableEntries reports the cached layer-table count (for /v1/stats).
func (c *SearchCache) TableEntries() int { return c.tables.len() }

// PlanEntries reports the cached plan count (for /v1/stats).
func (c *SearchCache) PlanEntries() int { return c.plans.len() }

// crossCache returns the cache to consult for this search, or nil when the
// configuration must bypass it (a calibration Book, whose regressed models
// the byte keys cannot identify).
func (o *Optimizer) crossCache() *SearchCache {
	if o.Cost == nil || o.Cost.Book != nil {
		return nil
	}
	return o.Cache
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// appendEnvSig appends every input of a search OTHER than the graph and α:
// the cluster shape, every hardware coefficient the cost model reads, the
// α-independent model fields, and the options that shape candidate
// enumeration. Two optimizers with equal environment signatures produce
// bit-identical node evaluations for equal ops.
func (o *Optimizer) appendEnvSig(b []byte) []byte {
	cl := o.Cost.Cluster
	b = binary.AppendUvarint(b, uint64(cl.NumDevices))
	b = binary.AppendUvarint(b, uint64(cl.DevicesPerNode))
	p := cl.Profile
	b = binary.AppendUvarint(b, uint64(len(p.Name)))
	b = append(b, p.Name...)
	for _, f := range [...]float64{
		p.FLOPs, p.MemBW, p.IntraBW, p.InterBW, p.IntraLatency, p.InterLatency,
		p.KernelOverhead, p.ElementBytes, p.MemoryCapacity, p.TorusBW, p.TorusLatency,
	} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	b = append(b, byte(p.Collective), byte(p.Topology))
	// Link tiers and compute classes, resolved against this cluster's size.
	// Folding the RESOLVED tiers (not Profile.Links) means a "-1 = rest"
	// preset hashes per machine size, exactly matching what the cost model
	// reads. Every section is length-prefixed and every string is
	// length-prefixed, so distinct heterogeneous machines cannot collide by
	// concatenation (FuzzEnvSigInjectivity pins this).
	tiers := cl.Tiers()
	b = binary.AppendUvarint(b, uint64(len(tiers)))
	for _, t := range tiers {
		b = binary.AppendUvarint(b, uint64(len(t.Name)))
		b = append(b, t.Name...)
		b = binary.AppendVarint(b, int64(t.Bits))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.Bandwidth))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.Latency))
	}
	b = binary.AppendUvarint(b, uint64(len(p.Classes)))
	for _, cc := range p.Classes {
		b = binary.AppendUvarint(b, uint64(len(cc.Name)))
		b = append(b, cc.Name...)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(cc.FLOPs))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(cc.MemBW))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(cc.KernelOverhead))
	}
	m := o.Cost
	b = append(b, boolByte(m.Overlap), boolByte(m.ZeRO1))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.ParamBytesPerElement))
	b = binary.AppendVarint(b, int64(o.Opts.MaxPrimeK))
	b = append(b, boolByte(o.Opts.AllowPrime), boolByte(o.Opts.AllowBatchSplit))
	return b
}

// appendNodeCrossKey appends op's cross-call identity onto the environment
// prefix: the tag plus the exact full structural signature.
func appendNodeCrossKey(b []byte, op *graph.Op) []byte {
	b = append(b, 'N')
	return appendOpSig(b, op)
}

// appendEdgeCrossKey appends edge e's cross-call identity onto the
// environment prefix: the same selection material edgeKeyOf encodes (source
// output axes, destination tensor axes, axis map) plus the endpoint
// candidate-space signatures. Two edges therefore share a cross key exactly
// when they share an edgeKeyOf key.
func appendEdgeCrossKey(b []byte, g *graph.Graph, e *graph.Edge) []byte {
	src, dst := g.Nodes[e.Src], g.Nodes[e.Dst]
	b = append(b, 'E')
	appendAxes := func(axes []int) {
		b = binary.AppendUvarint(b, uint64(len(axes)))
		for _, ax := range axes {
			b = binary.AppendVarint(b, int64(ax))
		}
	}
	appendAxes(src.Tensors[src.OutputTensor].Axes)
	appendAxes(dst.Tensors[e.DstTensor].Axes)
	appendAxes(e.AxisMap)
	b = appendSpaceSig(b, src)
	return appendSpaceSig(b, dst)
}

// RequestKey identifies a whole plan request for in-flight deduplication:
// the environment signature the cross-call cache keys share, plus α, which
// that signature deliberately leaves out, plus a caller tag naming the graph
// (model name, layer count). Two requests with equal keys run bit-identical
// searches, so a singleflight leader's answer serves every concurrent
// duplicate.
func (o *Optimizer) RequestKey(tag string) string {
	b := o.appendEnvSig(nil)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(o.Cost.Alpha))
	b = append(b, tag...)
	return string(b)
}
