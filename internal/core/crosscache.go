// Cross-call search cache: node evaluations, edge matrices and (delta.go)
// whole segment DP tables persist ACROSS Plan calls, so a sweep that
// revisits the same model structure — other experiments, other α values,
// repeated scales — pays the quadratic stages once and re-runs the DP only
// over its changed frontier. The within-call signature memo (dp.go) dedups
// work inside one search; this cache dedups work between searches.
//
// Keys are exact byte encodings, like sig.go's: an environment prefix (every
// cluster, cost-model and search-option field the cached value depends on)
// followed by the per-op or per-edge structural signature. α is deliberately
// EXCLUDED from node entries — candidate enumeration, intra costs and
// interfaces never read it — so an α-sweep (AblationAlphaSweep) hits; the
// α-dependent totals are rebuilt per call from the cached Intra breakdowns,
// with the same expression evalNode uses, hence bit-identically. Edge
// matrices are α-independent too (RedistributeDetail never reads α) UNLESS
// beam pruning is on: the kept candidate subsets are chosen by α-weighted
// totals, so Beam>0 keys fold in the beam width, α and the full endpoint
// signatures.
//
// Configurations the byte encoding cannot identify — a calibration Book
// replaces the analytic formulas with arbitrary regressed models — bypass
// the cache entirely, as does Options.DisableCache (the SerialUncached
// reference mode).
package core

import (
	"encoding/binary"
	"math"
	"sync"
	"time"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/partition"
)

// maxCachedEdgeCells bounds the float64 cells retained by one SearchCache
// (~512 MB). Exceeding it flushes the edge map wholesale — an epoch flush is
// simpler than LRU and the cache rebuilds in one sweep pass.
const maxCachedEdgeCells = 64 << 20

// nodeEntry is the α-independent part of a nodeCands evaluation.
type nodeEntry struct {
	seqs  []partition.Seq
	intra []cost.Intra
	out   []*cost.Iface
	in    []*cost.Iface
}

// withAlpha completes a cached entry into a per-call nodeCands: the totals
// are recomputed with the SAME expression evalNode uses, so a cache hit is
// bit-identical to a fresh evaluation.
func (e *nodeEntry) withAlpha(alpha float64) *nodeCands {
	total := make([]float64, len(e.intra))
	for i := range e.intra {
		total[i] = e.intra[i].Total(alpha)
	}
	return &nodeCands{seqs: e.seqs, intra: e.intra, total: total, out: e.out, in: e.in}
}

// SearchCache carries node evaluations, edge matrices and segment DP tables
// across Plan calls. Safe for concurrent use; all cached values are
// read-only.
type SearchCache struct {
	mu        sync.Mutex
	nodes     map[string]*nodeEntry
	edges     map[string]*edgeMat
	edgeCells int64
	// edgeCellCap bounds edgeCells; inserts past it trigger the epoch
	// flush. Defaults to maxCachedEdgeCells; tests shrink it to exercise
	// the flush without half-gigabyte payloads.
	edgeCellCap int64
	// tables is the third tier (delta.go): whole segment DP tables, keyed
	// by environment + α + beam + segment structure. In-memory only — the
	// disk cache (diskcache.go) persists nodes and edges; tables rebuild
	// from them in one DP pass.
	tables     map[string]*table
	tableCells int64
	// tableCellCap mirrors edgeCellCap for the table tier.
	tableCellCap int64
}

// NewSearchCache returns an empty cross-call cache.
func NewSearchCache() *SearchCache {
	return &SearchCache{
		nodes:        make(map[string]*nodeEntry),
		edges:        make(map[string]*edgeMat),
		edgeCellCap:  maxCachedEdgeCells,
		tables:       make(map[string]*table),
		tableCellCap: maxCachedTableCells,
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

// Reset drops every cached entry.
func (c *SearchCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nodes = make(map[string]*nodeEntry)
	c.edges = make(map[string]*edgeMat)
	c.edgeCells = 0
	c.tables = make(map[string]*table)
	c.tableCells = 0
}

func (c *SearchCache) getNode(key string) *nodeEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[key]
}

func (c *SearchCache) putNode(key string, e *nodeEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.nodes[key]; !ok {
		c.nodes[key] = e
	}
}

func (c *SearchCache) getEdge(key string) *edgeMat {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.edges[key]
}

func (c *SearchCache) putEdge(key string, m *edgeMat) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insertEdgeLocked(key, m)
}

// insertEdgeLocked adds one edge matrix under the cell cap's epoch-flush
// policy (flush wholesale rather than LRU; the cache rebuilds in one sweep
// pass). Shared by in-process inserts and disk-cache merges so both respect
// the same memory bound. Caller holds c.mu.
func (c *SearchCache) insertEdgeLocked(key string, m *edgeMat) {
	if _, ok := c.edges[key]; ok {
		return
	}
	cells := int64(m.nr) * int64(m.nc)
	if c.edgeCells+cells > c.edgeCellCap {
		c.edges = make(map[string]*edgeMat)
		c.edgeCells = 0
	}
	c.edges[key] = m
	c.edgeCells += cells
}

// crossCache returns the cache to consult for this search, or nil when the
// configuration must bypass it (reference mode, or a calibration Book whose
// regressed models the byte keys cannot identify).
func (o *Optimizer) crossCache() *SearchCache {
	if o.Opts.DisableCache || o.Cost == nil || o.Cost.Book != nil {
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
// candidate-space signatures — and, under beam pruning, the beam width, α
// and the full endpoint signatures, because the kept candidate subsets are
// chosen by α-weighted totals over the full structure. Two edges therefore
// share a cross key exactly when they share an edgeKeyOf key.
func (o *Optimizer) appendEdgeCrossKey(b []byte, g *graph.Graph, e *graph.Edge) []byte {
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
	b = appendSpaceSig(b, dst)
	if o.Opts.Beam > 0 {
		b = binary.AppendUvarint(b, uint64(o.Opts.Beam))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(o.Cost.Alpha))
		b = appendOpSig(b, src)
		b = appendOpSig(b, dst)
	}
	return b
}

// RequestKey identifies a whole plan request for in-flight deduplication:
// the environment signature the cross-call cache keys share, plus the inputs
// that signature deliberately leaves out (α, beam, the request's search
// budget, reference mode), plus a caller tag naming the graph (model name,
// layer count). Two requests with equal keys run bit-identical searches, so
// a singleflight leader's answer serves every concurrent duplicate.
func (o *Optimizer) RequestKey(tag string, budget time.Duration) string {
	b := o.appendEnvSig(nil)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(o.Cost.Alpha))
	b = binary.AppendVarint(b, int64(o.Opts.Beam))
	b = binary.AppendVarint(b, int64(budget))
	b = append(b, boolByte(o.Opts.DisableCache))
	b = append(b, tag...)
	return string(b)
}
