package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/model"
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
// edge matrices, every float compared bit for bit.
func sameCacheContents(t *testing.T, got, want *SearchCache) {
	t.Helper()
	if len(got.nodes) != len(want.nodes) || len(got.edges) != len(want.edges) {
		t.Fatalf("got %d nodes, %d edges; want %d, %d", len(got.nodes), len(got.edges), len(want.nodes), len(want.edges))
	}
	for k, w := range want.nodes {
		g := got.nodes[k]
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
	for k, w := range want.edges {
		g := got.edges[k]
		if g == nil || g.nr != w.nr || g.nc != w.nc || !slices.Equal(g.rows, w.rows) ||
			!slices.Equal(g.cols, w.cols) || !sameFloatBits(g.vals, w.vals) {
			t.Fatalf("edge %.16x: matrix differs", k)
		}
	}
}

func TestDiskCacheRoundTrip(t *testing.T) {
	c, want := warmCache(t)
	nodes, edges := c.Sizes()
	if nodes == 0 || edges == 0 {
		t.Fatalf("warm cache is empty: %d nodes, %d edges", nodes, edges)
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

	// A search against the loaded cache must be fully warm — zero node
	// evaluations and edge builds — and reproduce the strategy bit-for-bit.
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
	if got.Stats.NodeEvals != 0 || got.Stats.EdgeMatsBuilt != 0 {
		t.Fatalf("loaded cache was not warm: %d node evals, %d edge builds",
			got.Stats.NodeEvals, got.Stats.EdgeMatsBuilt)
	}
	if got.Stats.CrossCallNodeHits == 0 || got.Stats.CrossCallEdgeHits == 0 {
		t.Fatalf("no cross-call hits against the loaded cache: %+v", got.Stats)
	}
	sameStrategy(t, "disk-round-trip", got, want)
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
	for _, e := range loaded.nodes {
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
// from Load and leave the target cache untouched.
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

	damage := map[string]func([]byte) []byte{
		"flipped payload byte": func(b []byte) []byte {
			out := bytes.Clone(b)
			out[len(out)-1] ^= 0xFF
			return out
		},
		"flipped digest byte": func(b []byte) []byte {
			out := bytes.Clone(b)
			out[len(diskCacheMagic)+2] ^= 0xFF
			return out
		},
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"empty":     func([]byte) []byte { return nil },
		"wrong magic": func(b []byte) []byte {
			out := bytes.Clone(b)
			out[0] = 'X'
			return out
		},
		"trailing garbage": func(b []byte) []byte { return append(bytes.Clone(b), 0xAB) },
		// An intact v6-era header: the digest still matches the payload,
		// so only the version check can refuse it.
		"wrong version": func(b []byte) []byte {
			return ppscFile(6, b[len(diskCacheMagic)+1+sha256.Size:])
		},
	}
	for name, f := range damage {
		if err := os.WriteFile(path, f(good), 0o644); err != nil {
			t.Fatal(err)
		}
		fresh := NewSearchCache()
		if err := fresh.Load(dir); err == nil {
			t.Errorf("%s: Load accepted a damaged file", name)
		}
		if n, e := fresh.Sizes(); n != 0 || e != 0 {
			t.Errorf("%s: damaged load left %d nodes, %d edges in the cache", name, n, e)
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

// TestLoadRespectsEdgeCellCap: merging a disk cache must run through the same
// epoch-flush policy as in-process inserts. A payload larger than the target
// cache's cell cap loads without error, ends under the cap, and — because
// Load merges in sorted key order — lands on a deterministic surviving set.
func TestLoadRespectsEdgeCellCap(t *testing.T) {
	c, _ := warmCache(t)
	_, savedEdges := c.Sizes()
	if savedEdges < 2 {
		t.Fatalf("warm cache has %d edge matrices; need ≥2 to observe a flush", savedEdges)
	}
	dir := t.TempDir()
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}

	load := func() *SearchCache {
		small := NewSearchCache()
		// Half the saved payload's cells: Load must flush at least once.
		small.edgeCellCap = c.edgeCells / 2
		if err := small.Load(dir); err != nil {
			t.Fatal(err)
		}
		return small
	}
	small := load()
	if small.edgeCells > small.edgeCellCap {
		t.Fatalf("edgeCells = %d after Load, cap %d", small.edgeCells, small.edgeCellCap)
	}
	nodes, edges := small.Sizes()
	if nodes == 0 || edges == 0 {
		t.Fatalf("capped Load kept nothing: %d nodes, %d edges", nodes, edges)
	}
	if edges >= savedEdges {
		t.Fatalf("capped Load kept all %d edge matrices; expected an epoch flush", edges)
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

	// The uncapped default still takes the whole payload.
	full := NewSearchCache()
	if err := full.Load(dir); err != nil {
		t.Fatal(err)
	}
	if _, e := full.Sizes(); e != savedEdges {
		t.Fatalf("default-cap Load kept %d of %d edge matrices", e, savedEdges)
	}
}

// BenchmarkSearchCacheLoad times Load of the file a 16-device OPT-175B block
// search saves: read, digest check, decode and merge into an empty cache.
func BenchmarkSearchCacheLoad(b *testing.B) {
	c, _ := warmCache(b)
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
