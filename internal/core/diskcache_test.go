package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
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

// sameCacheContents fails unless got holds exactly want's node entries, edge
// matrices and plans, every float compared bit for bit. Edge entries are
// decoded first: a loaded entry holds no values until a search hits it.
func sameCacheContents(t *testing.T, got, want *SearchCache) {
	t.Helper()
	if len(got.nodes.m) != len(want.nodes.m) || len(got.edges.m) != len(want.edges.m) || len(got.plans.m) != len(want.plans.m) {
		t.Fatalf("got %d nodes, %d edges, %d plans; want %d, %d, %d", len(got.nodes.m), len(got.edges.m), len(got.plans.m),
			len(want.nodes.m), len(want.edges.m), len(want.plans.m))
	}
	for k, w := range want.plans.m {
		g := got.plans.m[k]
		if g == nil || !slices.Equal(g.idx, w.idx) ||
			!sameFloatBits([]float64{g.layerCost, g.totalCost}, []float64{w.layerCost, w.totalCost}) {
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
	for k, we := range want.edges.m {
		ge := got.edges.m[k]
		if ge == nil {
			t.Fatalf("edge %.16x: missing", k)
		}
		g, w := ge.matrix(), we.matrix()
		if g.nr != w.nr || g.nc != w.nc || !slices.Equal(g.rows, w.rows) ||
			!slices.Equal(g.cols, w.cols) || !sameFloatBits(g.vals, w.vals) {
			t.Fatalf("edge %.16x: matrix differs", k)
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
	// bit-for-bit. With the plan tier dropped, the loaded node and edge
	// tiers must serve the same search.
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
	if got.Stats.NodeEvals != 0 || got.Stats.EdgeMatsBuilt != 0 {
		t.Fatalf("loaded cache was not warm: %d node evals, %d edge builds",
			got.Stats.NodeEvals, got.Stats.EdgeMatsBuilt)
	}
	if got.Stats.CrossCallNodeHits == 0 || got.Stats.CrossCallEdgeHits == 0 {
		t.Fatalf("no cross-call hits against the loaded cache: %+v", got.Stats)
	}
	sameStrategy(t, "disk-round-trip-no-plans", got, want)
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
			bad := &cachedPlan{idx: slices.Clone(p.idx), layerCost: -1, totalCost: -1}
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
		if got.Stats.CrossCallPlanHits != 0 || got.Stats.CrossCallTableHits != 0 || got.Stats.SegTablesBuilt == 0 {
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
// cached entry damaged, and its edge and plan tiers dropped so the search
// builds edges over the loaded spaces.
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
		c.edges.reset()
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

// TestLoadedEdgeEntryWrongShape: Load checks each group id against its
// matrix but cannot check a group map's length against the candidate space
// the edge key names, so a digest-valid file whose edge entries do not fit
// loads fine. The search must treat such an entry as a miss and return the
// cold answer, never panic. The file is OPT-175B's block planned on 8
// devices with every cached edge damaged and its plan tier dropped, so the
// search reaches the edge tier.
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
		for k, e := range c.edges.m {
			bad := *e.matrix()
			damage(&bad)
			c.edges.m[k] = &edgeEntry{m: &bad}
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
		if got.Stats.CrossCallEdgeHits != 0 || got.Stats.EdgeMatsBuilt == 0 {
			t.Errorf("%s: a damaged edge entry was served: %+v", name, got.Stats)
		}
		sameStrategy(t, name, got, want)
	}
}

// TestLoadedEdgesDecodeConcurrently: a loaded edge entry decodes its cells
// on its first hit, and several searches on one SearchCache may hit it at
// the same moment. Four concurrent searches at layer counts the file has no
// plan for miss the plan tier and, the table tier being in memory only,
// reach the edge tier; every answer must be bit-identical to a cold search,
// and afterwards every loaded entry is decoded. Run under -race. Each search
// asks for its own layer count: a search that finishes first publishes its
// plan, and an identical request started after that would be served from
// the plan tier.
func TestLoadedEdgesDecodeConcurrently(t *testing.T) {
	c, _ := warmCache(t)
	dir := t.TempDir()
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded := NewSearchCache()
	if err := loaded.Load(dir); err != nil {
		t.Fatal(err)
	}
	// Layer counts the file has no plan for.
	layers := []int{3, 4, 5, 6}
	want := make([]*Strategy, len(layers))
	for i, l := range layers {
		w, err := planOPT175B(NewSearchCache(), 4, l)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w
	}
	got := make([]*Strategy, len(layers))
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			s, err := planOPT175B(loaded, 4, layers[i])
			if err != nil {
				t.Error(err)
			}
			got[i] = s
		}()
	}
	close(start)
	wg.Wait()
	edgeHits := 0
	for i, s := range got {
		if s == nil {
			t.Fatalf("search %d failed", i)
		}
		if s.Stats.NodeEvals != 0 || s.Stats.EdgeMatsBuilt != 0 || s.Stats.CrossCallPlanHits != 0 {
			t.Errorf("search %d was not served from the loaded node and edge tiers: %+v", i, s.Stats)
		}
		edgeHits += s.Stats.CrossCallEdgeHits
		sameStrategy(t, fmt.Sprintf("concurrent search %d", i), s, want[i])
	}
	if edgeHits == 0 {
		t.Fatal("no search hit the loaded edge tier")
	}
	for k, e := range loaded.edges.m {
		if e.coded.Load() != nil || e.m.vals == nil {
			t.Errorf("edge %.16x: not decoded after searches hit every edge", k)
		}
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

	// A search that hits the loaded edges decodes them, and Save then
	// re-encodes what it decoded: the bytes must not change. The plan tier
	// is emptied first so the search reaches the edge tier; it puts back
	// the same plan.
	hit := NewSearchCache()
	if err := hit.Load(dirA); err != nil {
		t.Fatal(err)
	}
	hit.plans.reset()
	s, err := planOPT175B(hit, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats.CrossCallEdgeHits == 0 || s.Stats.EdgeMatsBuilt != 0 {
		t.Fatalf("search did not hit the loaded edges: %+v", s.Stats)
	}
	dirC := t.TempDir()
	if err := hit.Save(dirC); err != nil {
		t.Fatal(err)
	}
	cb, err := os.ReadFile(filepath.Join(dirC, CacheFileName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, cb) {
		t.Fatalf("save→load→hit→save changed the file: %d vs %d bytes", len(a), len(cb))
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

// TestDiskCacheCells: a coded run is checked in place and decoded on
// demand, by the one-byte path for dictionaries of up to 0x80 values and by
// uvarints past that. Both must return the run whole and decode it bit for
// bit, and the eight-bytes-at-a-time index check must agree with a plain
// byte compare at every dictionary size.
func TestDiskCacheCells(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range []int{1, 2, 127, 128, 129, 300} {
		for _, m := range []int{0, 1, 7, 8, 9, 1000} {
			if m < d && m > 0 {
				continue
			}
			vals := make([]float64, m)
			for i := range vals {
				// Every dictionary value is used; the rest are random.
				vals[i] = float64(i % d)
				if i >= d {
					vals[i] = float64(rng.Intn(d))
				}
			}
			var cc cellCoder
			run := cc.append(nil, vals)
			r := &cacheReader{b: append(slices.Clip(run), 0xAB)}
			got := r.cells(m)
			if r.err != nil || !bytes.Equal(got, run) || !bytes.Equal(r.b, []byte{0xAB}) {
				t.Fatalf("d=%d m=%d: cells returned %d of %d run bytes (err %v)", d, m, len(got), len(run), r.err)
			}
			if dec := decodeCells(got, m); !sameFloatBits(dec, vals) {
				t.Fatalf("d=%d m=%d: decoded cells differ", d, m)
			}
		}
	}
	for n := 0; n < 40; n++ {
		p := make([]byte, n)
		for trial := 0; trial < 20; trial++ {
			// Bytes of any value, up to 0x80, or below 16.
			span := [3]int{256, 0x81, 16}[trial%3]
			for i := range p {
				p[i] = byte(rng.Intn(span))
			}
			for d := 0; d <= byteDict; d++ {
				want := true
				for _, c := range p {
					want = want && int(c) < d
				}
				if got := bytesBelow(p, byte(d)); got != want {
					t.Fatalf("bytesBelow(%x, %d) = %v, want %v", p, d, got, want)
				}
			}
		}
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

	// withEdge is the file Save would write for c plus one edge entry
	// under a key no search builds, its cells run replaced by the result
	// of patch on it. With staleDigest the header keeps the digest of the
	// undamaged payload.
	withEdge := func(m *edgeMat, patch func(run []byte) []byte, staleDigest bool) func([]byte) []byte {
		return func([]byte) []byte {
			var cc cellCoder
			run := cc.append(nil, m.vals)
			edges := maps.Clone(c.edges.m)
			edges["edge no search looks up"] = &edgeEntry{m: m}
			payload := encodeCachePayload(c.nodes.m, edges, c.plans.m)
			if _, _, _, err := decodeCachePayload(payload); err != nil {
				t.Fatalf("the undamaged file with the extra entry does not load: %v", err)
			}
			at := bytes.Index(payload, run)
			if at < 0 || bytes.Index(payload[at+1:], run) >= 0 {
				t.Fatal("the extra entry's cells run is not unique in the payload")
			}
			out := slices.Concat(payload[:at], patch(bytes.Clone(run)), payload[at+len(run):])
			file := ppscFile(diskCacheVersion, out)
			if staleDigest {
				sum := sha256.Sum256(payload)
				copy(file[len(file)-len(out)-sha256.Size:], sum[:])
			}
			return file
		}
	}
	// A 2×2 matrix of one value (a one-byte dictionary) and a 1×200
	// matrix of distinct values (200 > 0x80 entries, so indices from 128
	// on take two bytes).
	const sentinel = 1234.5678901234567
	small := &edgeMat{nr: 2, nc: 2, rows: []int32{0, 1}, cols: []int32{0, 1},
		vals: []float64{sentinel, sentinel, sentinel, sentinel}}
	large := &edgeMat{nr: 1, nc: 200, rows: []int32{0}, cols: make([]int32, 200), vals: make([]float64, 200)}
	for i := range large.vals {
		large.cols[i] = int32(i)
		large.vals[i] = sentinel + float64(i)
	}
	// d = 1: the last index names a second dictionary value.
	pastDict := func(run []byte) []byte {
		run[len(run)-1] = 1
		return run
	}

	// digest says whether Load must report errDigestMismatch.
	damage := map[string]struct {
		file   func([]byte) []byte
		digest bool
	}{
		"cell index past its dictionary": {file: withEdge(small, pastDict, false)},
		// The same payload behind the digest of the undamaged one: both
		// checks fail, and the digest's error wins.
		"cell index past its dictionary, stale digest": {file: withEdge(small, pastDict, true), digest: true},
		// 0x80 0x01 is index 128, past a one-entry dictionary.
		"multi-byte cell index in a one-byte dictionary": {file: withEdge(small, func(run []byte) []byte {
			return append(run[:len(run)-1], 0x80, 0x01)
		}, false)},
		// The last index, 199 (0xC7 0x01), becomes 200.
		"multi-byte cell index past its dictionary": {file: withEdge(large, func(run []byte) []byte {
			run[len(run)-2]++
			return run
		}, false)},
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

// TestLoadRespectsTierCaps: merging a disk cache runs every persisted tier
// through the same epoch-flush policy as in-process inserts. A payload
// larger than a tier's cap loads without error, ends under the cap, and —
// because Load merges in sorted key order — lands on a deterministic
// surviving set.
func TestLoadRespectsTierCaps(t *testing.T) {
	c, _ := warmCache(t)
	// A second layer count adds a second plan, so every tier can flush.
	g, err := model.BuildBlock(model.OPT175B())
	if err != nil {
		t.Fatal(err)
	}
	m := cost.NewModel(device.MustCluster(4, 4, device.V100Profile()))
	m.Alpha = 1e-12
	o := NewOptimizer(m)
	o.Cache = c
	if _, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: 3}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	t.Run("nodes", func(t *testing.T) {
		checkLoadCap(t, c, dir, func(c *SearchCache) *tier[*nodeEntry] { return c.nodes })
	})
	t.Run("edges", func(t *testing.T) {
		checkLoadCap(t, c, dir, func(c *SearchCache) *tier[*edgeEntry] { return c.edges })
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
// search saves (planOPT175B, about 20 MB): read, digest check, decode and
// merge into an empty cache. The digest runs beside the decode; edge cells
// are checked in place, not decoded. The file is large enough that digest
// and decode take about the same time, so Load verifying serially again
// would read about 1.5× the ns/op, well past the perf guard's tolerance.
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

// BenchmarkRestartLayerChange times a restart that needs the edge tier:
// Load the file an 8-device OPT-175B block search saves, then plan the
// block at a layer count the file has no plan for. The search misses the
// plan tier (and the table tier, which is never saved) and hits every
// edge, so ns/op covers both Load's in-place cell check and the decode
// each edge pays on its first hit.
func BenchmarkRestartLayerChange(b *testing.B) {
	cfg := model.OPT175B()
	g, err := model.BuildBlock(cfg)
	if err != nil {
		b.Fatal(err)
	}
	o := NewOptimizer(cost.NewModel(device.MustCluster(8, 4, device.V100Profile())))
	o.Cache = NewSearchCache()
	if _, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: cfg.Layers}); err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if err := o.Cache.Save(dir); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Cache = NewSearchCache()
		if err := o.Cache.Load(dir); err != nil {
			b.Fatal(err)
		}
		strat, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: cfg.Layers / 2})
		if err != nil {
			b.Fatal(err)
		}
		if s := strat.Stats; s.NodeEvals != 0 || s.EdgeMatsBuilt != 0 || s.CrossCallEdgeHits == 0 {
			b.Fatalf("re-plan was not served from the loaded node and edge tiers: %+v", s)
		}
	}
}
