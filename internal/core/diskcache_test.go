package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/model"
	"repro/internal/partition"
)

// warmCache runs a small real search into a fresh SearchCache so the disk
// round-trip exercises every record shape the encoder handles: multi-token
// sequences, shared and distinct in/out interfaces and grouped edge
// matrices. The search is OPT-175B's block on 4 devices.
func warmCache(t testing.TB) (*SearchCache, *Strategy) {
	t.Helper()
	g, err := model.BuildBlock(model.OPT175B())
	if err != nil {
		t.Fatal(err)
	}
	m := cost.NewModel(device.MustCluster(4, 4, device.V100Profile()))
	m.Alpha = 1e-12
	o := NewOptimizer(m)
	o.Cache = NewSearchCache()
	s, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return o.Cache, s
}

// planOPT175B plans OPT-175B's block on a V100 cluster of devices (4 per
// node, α = 1e-12) against cache c.
func planOPT175B(c *SearchCache, devices, layers int) (*Strategy, error) {
	g, err := model.BuildBlock(model.OPT175B())
	if err != nil {
		return nil, err
	}
	m := cost.NewModel(device.MustCluster(devices, 4, device.V100Profile()))
	m.Alpha = 1e-12
	o := NewOptimizer(m)
	o.Cache = c
	return o.Plan(context.Background(), PlanRequest{Graph: g, Layers: layers})
}

// ppscFile frames payload the way Save does, under the given version.
func ppscFile(version uint64, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	b := append([]byte(diskCacheMagic), binary.AppendUvarint(nil, version)...)
	b = append(b, sum[:]...)
	return append(b, payload...)
}

func sameFloatBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameIface(a, b *cost.Iface) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.NumAxes == b.NumAxes && sameFloatBits(a.Fwd, b.Fwd) &&
		sameFloatBits(a.Bwd, b.Bwd) && sameFloatBits(a.Width, b.Width)
}

func intraBits(ic cost.Intra) []float64 {
	return []float64{ic.Compute, ic.RingTotal, ic.StepSum, ic.AllReduce, ic.MemoryBytes}
}

// sameCacheContents fails unless got holds exactly want's node entries and
// plans, every float compared bit for bit, and no edge matrix: got was
// loaded from a file, which holds none.
func sameCacheContents(t *testing.T, got, want *SearchCache) {
	t.Helper()
	if len(got.nodes.m) != len(want.nodes.m) || len(got.edges.m) != 0 || len(got.plans.m) != len(want.plans.m) {
		t.Fatalf("got %d nodes, %d edges, %d plans; want %d, 0, %d", len(got.nodes.m), len(got.edges.m), len(got.plans.m),
			len(want.nodes.m), len(want.plans.m))
	}
	for k, w := range want.plans.m {
		g := got.plans.m[k]
		if g == nil || !slices.Equal(g.idx, w.idx) ||
			!sameFloatBits([]float64{g.layerCost}, []float64{w.layerCost}) {
			t.Fatalf("plan %.16x: entry differs", k)
		}
	}
	for k, w := range want.nodes.m {
		g := got.nodes.m[k]
		if g == nil || len(g.seqs) != len(w.seqs) || len(g.intra) != len(w.intra) ||
			len(g.out) != len(w.out) || len(g.in) != len(w.in) {
			t.Fatalf("node %.16x: missing or reshaped", k)
		}
		for i := range w.seqs {
			if !slices.Equal(g.seqs[i].Tokens, w.seqs[i].Tokens) {
				t.Fatalf("node %.16x: seq %d = %v, want %v", k, i, g.seqs[i], w.seqs[i])
			}
			if !sameFloatBits(intraBits(g.intra[i]), intraBits(w.intra[i])) {
				t.Fatalf("node %.16x: intra %d = %+v, want %+v", k, i, g.intra[i], w.intra[i])
			}
			if !sameIface(g.out[i], w.out[i]) || !sameIface(g.in[i], w.in[i]) {
				t.Fatalf("node %.16x: candidate %d interfaces differ", k, i)
			}
		}
	}
}

func TestDiskCacheRoundTrip(t *testing.T) {
	c, want := warmCache(t)
	nodes, edges := c.Sizes()
	if nodes == 0 || edges == 0 || c.PlanEntries() != 1 {
		t.Fatalf("warm cache is empty: %d nodes, %d edges, %d plans", nodes, edges, c.PlanEntries())
	}
	dir := t.TempDir()
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}

	loaded := NewSearchCache()
	if err := loaded.Load(dir); err != nil {
		t.Fatal(err)
	}
	sameCacheContents(t, loaded, c)

	// A search against the loaded cache must be a plan hit — zero node
	// evaluations, edge builds and DP work — and reproduce the strategy
	// bit-for-bit. With the plan tier dropped, the loaded node tier must
	// serve the same search, which rebuilds the edges the file does not
	// hold.
	g, err := model.BuildBlock(model.OPT175B())
	if err != nil {
		t.Fatal(err)
	}
	m := cost.NewModel(device.MustCluster(4, 4, device.V100Profile()))
	m.Alpha = 1e-12
	o := NewOptimizer(m)
	o.Cache = loaded
	got, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s := got.Stats; s.NodeEvals != 0 || s.EdgeMatsBuilt != 0 || s.SegTablesBuilt != 0 ||
		s.CrossCallNodeHits == 0 || s.CrossCallPlanHits != 1 {
		t.Fatalf("loaded cache did not serve a plan hit: %+v", s)
	}
	sameStrategy(t, "disk-round-trip", got, want)

	loaded.plans.reset()
	got, err = o.Plan(context.Background(), PlanRequest{Graph: g, Layers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s := got.Stats; s.NodeEvals != 0 || s.CrossCallNodeHits == 0 || s.EdgeMatsBuilt == 0 || s.CrossCallEdgeHits != 0 {
		t.Fatalf("loaded node tier did not serve the re-plan, or an edge was loaded: %+v", s)
	}
	sameStrategy(t, "disk-round-trip-no-plans", got, want)
}

// TestRestartFileHoldsNoEdges: the restart file persists the node and plan
// tiers only. After Save and Load the cache holds no edge matrix; a
// same-α repeat is still a plan hit that evaluates no node, and an α shift,
// which misses the plan tier, rebuilds every edge of the layer from the
// loaded node entries and matches a cold search bit for bit.
func TestRestartFileHoldsNoEdges(t *testing.T) {
	c, want := warmCache(t)
	if _, edges := c.Sizes(); edges == 0 {
		t.Fatal("the planning cache holds no edge matrix, so this test checks nothing")
	}
	dir := t.TempDir()
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded := NewSearchCache()
	if err := loaded.Load(dir); err != nil {
		t.Fatal(err)
	}
	if nodes, edges := loaded.Sizes(); nodes == 0 || edges != 0 || loaded.PlanEntries() == 0 {
		t.Fatalf("loaded %d nodes, %d edges, %d plans; want nodes and plans, no edges", nodes, edges, loaded.PlanEntries())
	}

	plan := func(c *SearchCache, alpha float64) *Strategy {
		t.Helper()
		g, err := model.BuildBlock(model.OPT175B())
		if err != nil {
			t.Fatal(err)
		}
		m := cost.NewModel(device.MustCluster(4, 4, device.V100Profile()))
		m.Alpha = alpha
		o := NewOptimizer(m)
		o.Cache = c
		s, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	repeat := plan(loaded, 1e-12)
	if s := repeat.Stats; s.CrossCallPlanHits != 1 || s.NodeEvals != 0 || s.EdgeMatsBuilt != 0 {
		t.Fatalf("same-α repeat after Load was not a plan hit: %+v", s)
	}
	sameStrategy(t, "same-α repeat", repeat, want)

	const shifted = 1e-11
	cold := plan(NewSearchCache(), shifted)
	got := plan(loaded, shifted)
	if s := got.Stats; s.CrossCallPlanHits != 0 || s.NodeEvals != 0 || s.CrossCallNodeHits == 0 ||
		s.CrossCallEdgeHits != 0 || s.EdgeMatsBuilt == 0 || s.EdgeMatsBuilt != cold.Stats.EdgeMatsBuilt {
		t.Fatalf("α shift after Load: %+v; want node hits and every one of the cold search's %d edges rebuilt",
			s, cold.Stats.EdgeMatsBuilt)
	}
	sameStrategy(t, "α shift after Load", got, cold)
}

// TestDiskCachePlanIndexOutOfRange: Load cannot check plan indices against
// candidate spaces, so a digest-valid file whose plan names a candidate past
// its node's space, or the wrong number of nodes, loads fine — and the
// search must treat the entry as a miss and return the cold answer, never
// panic.
func TestDiskCachePlanIndexOutOfRange(t *testing.T) {
	for name, damage := range map[string]func(p *cachedPlan){
		"index past space": func(p *cachedPlan) { p.idx[len(p.idx)-1] = math.MaxInt32 },
		"too few indices":  func(p *cachedPlan) { p.idx = p.idx[:len(p.idx)-1] },
		"too many indices": func(p *cachedPlan) { p.idx = append(p.idx, 0) },
	} {
		c, want := warmCache(t)
		for k, p := range c.plans.m {
			bad := &cachedPlan{idx: slices.Clone(p.idx), layerCost: -1}
			damage(bad)
			c.plans.m[k] = bad
		}
		dir := t.TempDir()
		if err := c.Save(dir); err != nil {
			t.Fatal(err)
		}
		loaded := NewSearchCache()
		if err := loaded.Load(dir); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g, err := model.BuildBlock(model.OPT175B())
		if err != nil {
			t.Fatal(err)
		}
		m := cost.NewModel(device.MustCluster(4, 4, device.V100Profile()))
		m.Alpha = 1e-12
		o := NewOptimizer(m)
		o.Cache = loaded
		est, err := o.EstimatePlan(PlanRequest{Graph: g, Layers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if est.PlanHit {
			t.Errorf("%s: estimator promised a plan hit on an entry that does not fit", name)
		}
		got, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Stats.CrossCallPlanHits != 0 || got.Stats.SegTablesBuilt == 0 {
			t.Errorf("%s: out-of-range plan was served: %+v", name, got.Stats)
		}
		sameStrategy(t, name, got, want)
	}
}

// reshapeIface returns a copy of ifc describing numAxes axes on devs
// devices: every start and width both shapes have is kept, the rest are
// zero.
func reshapeIface(ifc *cost.Iface, devs, numAxes int) *cost.Iface {
	out := &cost.Iface{NumAxes: numAxes, Fwd: make([]float64, devs*numAxes),
		Bwd: make([]float64, devs*numAxes), Width: make([]float64, numAxes)}
	copy(out.Width, ifc.Width)
	for dev := 0; dev < devs && dev < len(ifc.Fwd)/ifc.NumAxes; dev++ {
		for ax := 0; ax < numAxes && ax < ifc.NumAxes; ax++ {
			out.Fwd[dev*numAxes+ax] = ifc.Fwd[dev*ifc.NumAxes+ax]
			out.Bwd[dev*numAxes+ax] = ifc.Bwd[dev*ifc.NumAxes+ax]
		}
	}
	return out
}

// TestLoadedNodeEntryWrongShape: Load checks each interface on its own but
// cannot check it against the op and cluster its node key names, so a
// digest-valid file whose node entries do not fit loads fine. The search
// must treat such an entry as a miss and return the cold answer, never
// panic. The file is OPT-175B's block planned on 8 devices with every
// cached entry damaged, and its plan tier dropped so the search builds
// edges over the loaded spaces.
func TestLoadedNodeEntryWrongShape(t *testing.T) {
	plan := func(c *SearchCache) *Strategy {
		t.Helper()
		s, err := planOPT175B(c, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	want := plan(NewSearchCache())
	eachIface := func(e *nodeEntry, f func(*cost.Iface) *cost.Iface) {
		for _, ifs := range [2][]*cost.Iface{e.out, e.in} {
			for i := range ifs {
				ifs[i] = f(ifs[i])
			}
		}
	}
	for name, damage := range map[string]func(e *nodeEntry){
		"interfaces truncated to 4 devices": func(e *nodeEntry) {
			eachIface(e, func(ifc *cost.Iface) *cost.Iface { return reshapeIface(ifc, 4, ifc.NumAxes) })
		},
		"interfaces with one axis more": func(e *nodeEntry) {
			eachIface(e, func(ifc *cost.Iface) *cost.Iface { return reshapeIface(ifc, 8, ifc.NumAxes+1) })
		},
		"missing interface": func(e *nodeEntry) { e.in[len(e.in)-1] = nil },
		"sequence splits a missing axis": func(e *nodeEntry) {
			e.seqs[0] = partition.NewSeq(partition.Split(99))
		},
	} {
		c := NewSearchCache()
		plan(c)
		for _, e := range c.nodes.m {
			damage(e)
		}
		c.plans.reset()
		dir := t.TempDir()
		if err := c.Save(dir); err != nil {
			t.Fatal(err)
		}
		loaded := NewSearchCache()
		if err := loaded.Load(dir); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := plan(loaded)
		if got.Stats.CrossCallNodeHits != 0 || got.Stats.NodeEvals == 0 {
			t.Errorf("%s: a damaged node entry was served: %+v", name, got.Stats)
		}
		sameStrategy(t, name, got, want)
	}
}

// TestLoadedEdgeEntryWrongShape: the edge tier is not persisted, but a
// cached matrix can still meet spaces of another size: a hostile loaded
// node entry that fits its op, an edge built over it, then a node-tier flush
// and a fresh evaluation. The search must treat a matrix whose group maps do
// not cover its spaces as a miss and return the cold answer, never panic.
// The cache is OPT-175B's block planned on 8 devices with every cached
// matrix damaged in place and its plan tier dropped, so the search reaches
// the edge tier.
func TestLoadedEdgeEntryWrongShape(t *testing.T) {
	plan := func(c *SearchCache) *Strategy {
		t.Helper()
		s, err := planOPT175B(c, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	want := plan(NewSearchCache())
	for name, damage := range map[string]func(m *edgeMat){
		"rows truncated": func(m *edgeMat) { m.rows = m.rows[:len(m.rows)/2] },
		"cols extended":  func(m *edgeMat) { m.cols = append(slices.Clip(m.cols), 0) },
	} {
		c := NewSearchCache()
		plan(c)
		for k, m := range c.edges.m {
			bad := *m
			damage(&bad)
			c.edges.m[k] = &bad
		}
		c.plans.reset()
		got := plan(c)
		if got.Stats.CrossCallEdgeHits != 0 || got.Stats.EdgeMatsBuilt == 0 {
			t.Errorf("%s: a damaged edge entry was served: %+v", name, got.Stats)
		}
		sameStrategy(t, name, got, want)
	}
}

// TestLoadedPatternsBuildConcurrently: a space loaded from disk interns its
// axis patterns on first use, and a search's edge-prepare tasks — or the
// concurrent stage searches of Plan3D on one SearchCache — may ask for one
// entry's patterns at the same moment. Four workers build every edge of an
// OPT-175B block on 8 devices, where every node has two or more edges and
// the repeated linears share one entry, over spaces fresh from Load; the
// matrices must be bit-identical to a serial cold build. Run under -race.
func TestLoadedPatternsBuildConcurrently(t *testing.T) {
	g, err := model.BuildBlock(model.OPT175B())
	if err != nil {
		t.Fatal(err)
	}
	degree := make([]int, len(g.Nodes))
	for _, e := range g.Edges {
		degree[e.Src]++
		degree[e.Dst]++
	}
	for i, d := range degree {
		if d < 2 {
			t.Fatalf("node %d (%s) has %d edges; the test needs every node to have two or more", i, g.Nodes[i].Name, d)
		}
	}
	m := cost.NewModel(device.MustCluster(8, 4, device.V100Profile()))
	m.Alpha = 1e-12
	o := NewOptimizer(m)
	o.Cache = NewSearchCache()
	if _, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: 1}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := o.Cache.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded := NewSearchCache()
	if err := loaded.Load(dir); err != nil {
		t.Fatal(err)
	}

	cold := make([]*nodeCands, len(g.Nodes))
	warm := make([]*nodeCands, len(g.Nodes))
	env := o.appendEnvSig(nil)
	for i, op := range g.Nodes {
		cold[i] = o.evalNode(op, 1)
		e := loaded.nodes.get(string(appendNodeCrossKey(env, op)))
		if e == nil || e.outPats != nil {
			t.Fatalf("node %d: loaded entry missing or already indexed", i)
		}
		warm[i] = e.withAlpha(m.Alpha)
	}
	want, _, err := o.buildEdgeMats(context.Background(), g, g.Edges, cold, o.newOverlapTables(), 1)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := o.buildEdgeMats(context.Background(), g, g.Edges, warm, o.newOverlapTables(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for k, w := range want {
		gm := got[k]
		if gm.nr != w.nr || gm.nc != w.nc || !slices.Equal(gm.rows, w.rows) ||
			!slices.Equal(gm.cols, w.cols) || !sameFloatBits(gm.vals, w.vals) {
			t.Fatalf("edge %d: matrix over loaded spaces differs from the serial cold build", k)
		}
	}
}

// TestDiskCacheReproducibleBytes pins the sorted-key encoding: saving the
// same cache twice (or a loaded copy of it) must produce identical files, the
// property CI's warm-restart digest comparison leans on.
func TestDiskCacheReproducibleBytes(t *testing.T) {
	c, _ := warmCache(t)
	dirA, dirB := t.TempDir(), t.TempDir()
	if err := c.Save(dirA); err != nil {
		t.Fatal(err)
	}
	loaded := NewSearchCache()
	if err := loaded.Load(dirA); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Save(dirB); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(filepath.Join(dirA, CacheFileName))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dirB, CacheFileName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("save→load→save changed the file: %d vs %d bytes", len(a), len(b))
	}
}

// TestDiskCacheLoadSharesInterfaces: the file stores each distinct interface
// once, and Load hands every entry that names it the same pointer.
func TestDiskCacheLoadSharesInterfaces(t *testing.T) {
	c, _ := warmCache(t)
	dir := t.TempDir()
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded := NewSearchCache()
	if err := loaded.Load(dir); err != nil {
		t.Fatal(err)
	}
	byContent := make(map[string]*cost.Iface)
	refs := 0
	for _, e := range loaded.nodes.m {
		for _, ifs := range [2][]*cost.Iface{e.out, e.in} {
			for _, ifc := range ifs {
				refs++
				k := string(appendIface(nil, ifc))
				if p, ok := byContent[k]; !ok {
					byContent[k] = ifc
				} else if p != ifc {
					t.Fatalf("two loaded interfaces with equal contents are distinct pointers")
				}
			}
		}
	}
	if len(byContent) >= refs {
		t.Fatalf("%d interface references, %d distinct: the search shares none, so this test checks nothing", refs, len(byContent))
	}
}

// TestDiskCacheRejectsDamage covers the cold-fallback contract: corrupt,
// truncated, wrong-magic and wrong-version files must all surface an error
// from Load and leave the target cache untouched. Load verifies the digest
// while it decodes, so each case also pins which error wins: a digest
// mismatch is reported even when the payload fails to decode too, and a
// decode error only behind a matching digest.
func TestDiskCacheRejectsDamage(t *testing.T) {
	c, _ := warmCache(t)
	dir := t.TempDir()
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, CacheFileName)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// digest says whether Load must report errDigestMismatch.
	damage := map[string]struct {
		file   func([]byte) []byte
		digest bool
	}{
		// A payload that fails to decode behind its own digest: only the
		// decode can refuse it.
		"trailing bytes behind a matching digest": {file: func(b []byte) []byte {
			return ppscFile(diskCacheVersion, append(bytes.Clone(b[len(diskCacheMagic)+1+sha256.Size:]), 0))
		}},
		"flipped payload byte": {file: func(b []byte) []byte {
			out := bytes.Clone(b)
			out[len(out)-1] ^= 0xFF
			return out
		}, digest: true},
		"flipped digest byte": {file: func(b []byte) []byte {
			out := bytes.Clone(b)
			out[len(diskCacheMagic)+2] ^= 0xFF
			return out
		}, digest: true},
		"truncated": {file: func(b []byte) []byte { return b[:len(b)/2] }, digest: true},
		"empty":     {file: func([]byte) []byte { return nil }},
		"wrong magic": {file: func(b []byte) []byte {
			out := bytes.Clone(b)
			out[0] = 'X'
			return out
		}},
		"trailing garbage": {file: func(b []byte) []byte { return append(bytes.Clone(b), 0xAB) }, digest: true},
		// An intact v7-era header: the digest still matches the payload,
		// so only the version check can refuse it.
		"wrong version": {file: func(b []byte) []byte {
			return ppscFile(7, b[len(diskCacheMagic)+1+sha256.Size:])
		}},
		// A v9 file: an empty edges section between nodes and plans. Its
		// digest matches too; the version check refuses it.
		"v9 file": {file: func(b []byte) []byte {
			nodes := encodeCachePayload(c.nodes.m, nil)
			plans := encodeCachePayload(nil, c.plans.m)[2:] // past the empty ifaces and nodes
			return ppscFile(9, slices.Concat(nodes[:len(nodes)-1], []byte{0}, plans))
		}},
	}
	for name, d := range damage {
		if err := os.WriteFile(path, d.file(good), 0o644); err != nil {
			t.Fatal(err)
		}
		fresh := NewSearchCache()
		err := fresh.Load(dir)
		if err == nil {
			t.Errorf("%s: Load accepted a damaged file", name)
		} else if errors.Is(err, errDigestMismatch) != d.digest {
			t.Errorf("%s: Load reported %v; digest mismatch expected: %v", name, err, d.digest)
		}
		if n, e := fresh.Sizes(); n != 0 || e != 0 || fresh.PlanEntries() != 0 {
			t.Errorf("%s: damaged load left %d nodes, %d edges, %d plans in the cache", name, n, e, fresh.PlanEntries())
		}
	}

	// A missing file is not damage — the caller treats it as a cold start.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := NewSearchCache().Load(dir); !os.IsNotExist(err) {
		t.Errorf("missing file: want os.IsNotExist, got %v", err)
	}
}

// TestSaveCleansTempOnRenameFailure: when the final rename fails (here the
// target name is occupied by a non-empty directory), Save must surface the
// error AND remove its temp file — a periodic saver hitting a persistent
// rename failure must not strand one full-size temp file per interval.
func TestSaveCleansTempOnRenameFailure(t *testing.T) {
	c, _ := warmCache(t)
	dir := t.TempDir()
	blocker := filepath.Join(dir, CacheFileName)
	if err := os.MkdirAll(filepath.Join(blocker, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(dir); err == nil {
		t.Fatal("Save succeeded with the target name held by a non-empty directory")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != CacheFileName {
			t.Errorf("failed Save left %q behind", e.Name())
		}
	}

	// Clearing the obstruction lets the next periodic save succeed.
	if err := os.RemoveAll(blocker); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(dir); err != nil {
		t.Fatalf("Save after clearing the obstruction: %v", err)
	}
}

// TestLoadRespectsTierCaps: merging a disk cache runs both persisted tiers
// through the same epoch-flush policy as in-process inserts. A payload
// larger than a tier's cap loads without error, ends under the cap, and —
// because Load merges in sorted key order — lands on a deterministic
// surviving set.
func TestLoadRespectsTierCaps(t *testing.T) {
	c, _ := warmCache(t)
	// A second α adds a second plan, so both tiers can flush.
	g, err := model.BuildBlock(model.OPT175B())
	if err != nil {
		t.Fatal(err)
	}
	m := cost.NewModel(device.MustCluster(4, 4, device.V100Profile()))
	m.Alpha = 1e-10
	o := NewOptimizer(m)
	o.Cache = c
	if _, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: 2}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	t.Run("nodes", func(t *testing.T) {
		checkLoadCap(t, c, dir, func(c *SearchCache) *tier[*nodeEntry] { return c.nodes })
	})
	t.Run("plans", func(t *testing.T) {
		checkLoadCap(t, c, dir, func(c *SearchCache) *tier[*cachedPlan] { return c.plans })
	})
}

// checkLoadCap loads dir, which holds saved, into caches whose tier (picked
// by pick) is capped at half the saved tier's cells.
func checkLoadCap[V any](t *testing.T, saved *SearchCache, dir string, pick func(*SearchCache) *tier[V]) {
	want := pick(saved).len()
	if want < 2 {
		t.Fatalf("warm cache has %d entries; need ≥2 to observe a flush", want)
	}
	load := func() *SearchCache {
		small := NewSearchCache()
		// Half the saved payload's cells: Load must flush at least once.
		pick(small).cap = pick(saved).cells / 2
		if err := small.Load(dir); err != nil {
			t.Fatal(err)
		}
		return small
	}
	small := load()
	if tr := pick(small); tr.cells > tr.cap {
		t.Fatalf("%d cells after Load, cap %d", tr.cells, tr.cap)
	}
	if n := pick(small).len(); n == 0 || n >= want {
		t.Fatalf("capped Load kept %d of %d entries; expected an epoch flush that keeps some", n, want)
	}
	// Determinism of the surviving set: a second capped load byte-matches.
	dirA, dirB := t.TempDir(), t.TempDir()
	if err := small.Save(dirA); err != nil {
		t.Fatal(err)
	}
	if err := load().Save(dirB); err != nil {
		t.Fatal(err)
	}
	fa, err := os.ReadFile(filepath.Join(dirA, CacheFileName))
	if err != nil {
		t.Fatal(err)
	}
	fb, err := os.ReadFile(filepath.Join(dirB, CacheFileName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fa, fb) {
		t.Fatal("two capped loads of the same file kept different entries")
	}

	// The default cap still takes the whole payload.
	full := NewSearchCache()
	if err := full.Load(dir); err != nil {
		t.Fatal(err)
	}
	if n := pick(full).len(); n != want {
		t.Fatalf("default-cap Load kept %d of %d entries", n, want)
	}
}

// BenchmarkSearchCacheLoad times Load of the file a 32-device OPT-175B block
// search saves (planOPT175B, about 12 MB of node entries, interfaces and
// plans): read, digest check, decode and merge into an empty cache. The
// digest runs beside the decode and takes less time than it, so Load
// verifying serially again adds the digest's time, about a quarter of
// ns/op: near the perf guard's tolerance, not past it (DESIGN.md §5.35).
func BenchmarkSearchCacheLoad(b *testing.B) {
	c := NewSearchCache()
	if _, err := planOPT175B(c, 32, 2); err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if err := c.Save(dir); err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, CacheFileName))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fi.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := NewSearchCache().Load(dir); err != nil {
			b.Fatal(err)
		}
	}
}
