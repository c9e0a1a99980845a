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

func intraBits(ic cost.Intra) []float64 {
	return []float64{ic.Compute, ic.RingTotal, ic.StepSum, ic.AllReduce, ic.MemoryBytes}
}

// sameCacheContents fails unless got holds exactly want's plans, every float
// compared bit for bit, and no node entry or edge matrix: got was loaded
// from a file, which holds neither.
func sameCacheContents(t *testing.T, got, want *SearchCache) {
	t.Helper()
	if len(got.nodes.m) != 0 || len(got.edges.m) != 0 || len(got.plans.m) != len(want.plans.m) {
		t.Fatalf("got %d nodes, %d edges, %d plans; want 0, 0, %d", len(got.nodes.m), len(got.edges.m), len(got.plans.m),
			len(want.plans.m))
	}
	for k, w := range want.plans.m {
		g := got.plans.m[k]
		if g == nil || len(g.seqs) != len(w.seqs) || len(g.intra) != len(w.intra) || !slices.Equal(g.sizes, w.sizes) ||
			!sameFloatBits([]float64{g.layerCost}, []float64{w.layerCost}) || g.stackable != w.stackable {
			t.Fatalf("plan %.16x: entry differs", k)
		}
		for i := range w.seqs {
			if !slices.Equal(g.seqs[i].Tokens, w.seqs[i].Tokens) {
				t.Fatalf("plan %.16x: seq %d = %v, want %v", k, i, g.seqs[i], w.seqs[i])
			}
			if !sameFloatBits(intraBits(g.intra[i]), intraBits(w.intra[i])) {
				t.Fatalf("plan %.16x: intra %d = %+v, want %+v", k, i, g.intra[i], w.intra[i])
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

	// A search against the loaded cache must be a plan hit — no node pass,
	// edge build or DP work — and reproduce the strategy bit-for-bit.
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
		s.CrossCallNodeHits != 0 || s.CrossCallPlanHits != 1 {
		t.Fatalf("loaded cache did not serve a plan hit: %+v", s)
	}
	sameStrategy(t, "disk-round-trip", got, want)
}

// TestRestartFileHoldsPlansOnly: the restart file persists the plan tier
// only, and a plan entry carries its answer. After Save and Load the cache
// holds no node entry and no edge matrix; a same-α repeat is a plan hit
// that runs no node pass at all; and an α shift, which misses the plan
// tier, evaluates every node and builds every edge of the layer, matching a
// cold search bit for bit.
func TestRestartFileHoldsPlansOnly(t *testing.T) {
	c, want := warmCache(t)
	if nodes, edges := c.Sizes(); nodes == 0 || edges == 0 {
		t.Fatal("the planning cache holds no node entry or edge matrix, so this test checks nothing")
	}
	dir := t.TempDir()
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded := NewSearchCache()
	if err := loaded.Load(dir); err != nil {
		t.Fatal(err)
	}
	if nodes, edges := loaded.Sizes(); nodes != 0 || edges != 0 || loaded.PlanEntries() == 0 {
		t.Fatalf("loaded %d nodes, %d edges, %d plans; want plans only", nodes, edges, loaded.PlanEntries())
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
	if s := repeat.Stats; s.CrossCallPlanHits != 1 || s.NodeEvals != 0 || s.CrossCallNodeHits != 0 ||
		s.NodeEvalTime != 0 || s.EdgeMatsBuilt != 0 {
		t.Fatalf("same-α repeat after Load was not a plan hit without a node pass: %+v", s)
	}
	sameStrategy(t, "same-α repeat", repeat, want)
	if repeat.Stats.CandsTotal != want.Stats.CandsTotal {
		t.Fatalf("plan hit counts %d candidates, the search that published it %d", repeat.Stats.CandsTotal, want.Stats.CandsTotal)
	}

	const shifted = 1e-11
	cold := plan(NewSearchCache(), shifted)
	got := plan(loaded, shifted)
	if s := got.Stats; s.CrossCallPlanHits != 0 || s.CrossCallNodeHits != 0 || s.NodeEvals != cold.Stats.NodeEvals ||
		s.CrossCallEdgeHits != 0 || s.EdgeMatsBuilt != cold.Stats.EdgeMatsBuilt {
		t.Fatalf("α shift after Load: %+v; want the cold search's %d node evaluations and %d edge builds",
			s, cold.Stats.NodeEvals, cold.Stats.EdgeMatsBuilt)
	}
	sameStrategy(t, "α shift after Load", got, cold)
}

// TestLoadedPlanWrongShape: Load cannot check a plan against the graph its
// key names, so a digest-valid file whose plan has the wrong node count or
// a sequence its op and cluster cannot run loads fine. The estimator must
// promise no plan hit, and the search must treat the entry as a miss and
// return the cold answer, never panic. The file is OPT-175B's block planned
// on 4 devices (2 device-ID bits) with every plan damaged.
func TestLoadedPlanWrongShape(t *testing.T) {
	for name, damage := range map[string]func(p *cachedPlan){
		"too few nodes": func(p *cachedPlan) {
			p.seqs, p.intra, p.sizes = p.seqs[1:], p.intra[1:], p.sizes[1:]
		},
		"too many nodes": func(p *cachedPlan) {
			p.seqs = append(p.seqs, partition.NewSeq())
			p.intra = append(p.intra, cost.Intra{})
			p.sizes = append(p.sizes, 1)
		},
		"split axis out of range": func(p *cachedPlan) { p.seqs[0] = partition.NewSeq(partition.Split(99)) },
		"Prime order above nbits/2": func(p *cachedPlan) {
			p.seqs[0] = partition.NewSeq(partition.NewPrime(2, model.LinB, model.LinM, model.LinK))
		},
		"too many bits": func(p *cachedPlan) {
			p.seqs[0] = partition.NewSeq(partition.Split(0), partition.Split(0), partition.Split(0))
		},
	} {
		c, want := warmCache(t)
		for k, p := range c.plans.m {
			bad := *p
			bad.seqs, bad.intra, bad.sizes = slices.Clone(p.seqs), slices.Clone(p.intra), slices.Clone(p.sizes)
			bad.layerCost = -1
			damage(&bad)
			c.plans.m[k] = &bad
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
			t.Errorf("%s: a damaged plan was served: %+v", name, got.Stats)
		}
		sameStrategy(t, name, got, want)
	}
}

// TestLoadedPatternsBuildConcurrently: a node entry interns its axis
// patterns on first use, and a search's edge-prepare tasks — or the
// concurrent stage searches of Plan3D on one SearchCache — may ask for one
// entry's patterns at the same moment. Four workers build every edge of an
// OPT-175B block on 8 devices, where every node has two or more edges and
// the repeated linears share one entry, over fresh evalNode entries whose
// patterns are not built yet; the matrices must be bit-identical to a
// serial build over entries of their own. Run under -race.
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

	// shared gives nodes with equal signatures one entry, as the search's
	// slots do, so several edges reach the same entry's patterns at once.
	in := &sigInterner{}
	slotOf, slotNode := nodeSlots(g, in)
	slots := make([]*nodeCands, len(slotNode))
	for s, ni := range slotNode {
		slots[s] = o.evalNode(g.Nodes[ni], 1)
	}
	serial := make([]*nodeCands, len(g.Nodes))
	shared := make([]*nodeCands, len(g.Nodes))
	for i, op := range g.Nodes {
		serial[i] = o.evalNode(op, 1)
		shared[i] = slots[slotOf[i]]
		if shared[i].outPats != nil {
			t.Fatalf("node %d: fresh entry already indexed", i)
		}
	}
	if len(slotNode) == len(g.Nodes) {
		t.Fatal("no two nodes share an entry, so this test checks less than it claims")
	}
	want, _, err := o.buildEdgeMats(context.Background(), g, g.Edges, serial, o.newOverlapTables(), 1)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := o.buildEdgeMats(context.Background(), g, g.Edges, shared, o.newOverlapTables(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for k, w := range want {
		gm := got[k]
		if gm.nr != w.nr || gm.nc != w.nc || !slices.Equal(gm.rows, w.rows) ||
			!slices.Equal(gm.cols, w.cols) || !sameFloatBits(gm.vals, w.vals) {
			t.Fatalf("edge %d: matrix over shared entries differs from the serial build", k)
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

// TestDiskCacheRejectsDamage covers the cold-fallback contract: corrupt,
// truncated, wrong-magic and wrong-version files must all surface an error
// from Load and leave the target cache untouched. Load verifies the digest
// before it decodes, so each case also pins which error it reports: a
// digest mismatch for any payload the header's digest does not cover, and a
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
		// A v10 file: an empty interface table and nodes section, then
		// plans holding candidate indices. Its digest matches too; the
		// version check refuses it.
		"v10 file": {file: func([]byte) []byte {
			payload := []byte{0, 0}
			payload = binary.AppendUvarint(payload, uint64(len(c.plans.m)))
			for k, p := range c.plans.m {
				payload = appendBytes(payload, []byte(k))
				payload = binary.AppendUvarint(payload, uint64(len(p.seqs)))
				payload = append(payload, make([]byte, len(p.seqs))...)
				payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(p.layerCost))
			}
			return ppscFile(10, payload)
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

// TestLoadRespectsTierCaps: merging a disk cache runs the persisted plan
// tier through the same epoch-flush policy as in-process inserts. A payload
// larger than the tier's cap loads without error, ends under the cap, and —
// because Load merges in sorted key order — lands on a deterministic
// surviving set.
func TestLoadRespectsTierCaps(t *testing.T) {
	c, _ := warmCache(t)
	// A second α adds a second plan, so the tier can flush.
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
	t.Run("plans", func(t *testing.T) {
		want := c.plans.len()
		if want < 2 {
			t.Fatalf("warm cache has %d plans; need ≥2 to observe a flush", want)
		}
		load := func() *SearchCache {
			small := NewSearchCache()
			// One cell short of the saved payload: Load must flush at least
			// once, and every entry (plans differ in size) still fits on its
			// own.
			small.plans.cap = c.plans.cells - 1
			if err := small.Load(dir); err != nil {
				t.Fatal(err)
			}
			return small
		}
		small := load()
		if tr := small.plans; tr.cells > tr.cap {
			t.Fatalf("%d cells after Load, cap %d", tr.cells, tr.cap)
		}
		if n := small.plans.len(); n == 0 || n >= want {
			t.Fatalf("capped Load kept %d of %d plans; expected an epoch flush that keeps some", n, want)
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
			t.Fatal("two capped loads of the same file kept different plans")
		}

		// The default cap still takes the whole payload.
		full := NewSearchCache()
		if err := full.Load(dir); err != nil {
			t.Fatal(err)
		}
		if n := full.plans.len(); n != want {
			t.Fatalf("default-cap Load kept %d of %d plans", n, want)
		}
	})
}

// BenchmarkSearchCacheLoad times Load of the file a 32-device OPT-175B block
// search saves (planOPT175B, one plan of about 2 KB): read, digest check,
// decode and merge into an empty cache. With so small a file the time is
// mostly the fixed cost of opening and reading it.
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
