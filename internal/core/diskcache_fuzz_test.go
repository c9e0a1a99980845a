package core

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/model"
)

// maxLoadAllocPerByte bounds what Load may allocate per file byte. The
// densest records expand about 8× (a one-byte cell index becomes a float64,
// a one-byte interface reference a pointer); the worst are near-empty node
// records, a few bytes each that cost a nodeEntry and two map slots.
const maxLoadAllocPerByte = 128

// FuzzDiskCacheLoad hands Load arbitrary payloads behind a valid magic,
// version and SHA-256, the bytes a file can carry past every header check.
// Load must return without panicking, allocate at most a fixed multiple of
// the file's size, and leave the cache empty whenever it reports an error.
// The checked-in corpus holds payloads that declare lengths of 2^61–2^62,
// out-of-range cell indices and interface references, and a real payload.
func FuzzDiskCacheLoad(f *testing.F) {
	f.Add(smallCachePayload(f))
	dir := f.TempDir()
	path := filepath.Join(dir, CacheFileName)
	f.Fuzz(func(t *testing.T, payload []byte) {
		file := ppscFile(diskCacheVersion, payload)
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		c := NewSearchCache()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.Load(dir)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(maxLoadAllocPerByte*len(file)+1<<20) {
			t.Fatalf("Load of a %d-byte file allocated %d bytes", len(file), grew)
		}
		if err == nil {
			return
		}
		if n, e := c.Sizes(); n != 0 || e != 0 {
			t.Fatalf("failed Load (%v) left %d nodes, %d edges", err, n, e)
		}
	})
}

// smallCachePayload is the payload Save writes after a two-device OPT-6.7B
// block search: every record kind, small enough for the fuzzer to mutate.
func smallCachePayload(t testing.TB) []byte {
	g, err := model.BuildBlock(model.OPT6B7())
	if err != nil {
		t.Fatal(err)
	}
	o := NewOptimizer(cost.NewModel(device.MustCluster(2, 2, device.V100Profile())))
	o.Cache = NewSearchCache()
	if _, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: 1}); err != nil {
		t.Fatal(err)
	}
	c := o.Cache
	return encodeCachePayload(c.nodes, c.edges)
}
