package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/model"
)

// maxLoadAllocPerByte bounds what Load may allocate per file byte. The
// densest records are tokens, which expand about 8× (a six-byte token
// becomes a six-word partition.Token); the worst are near-empty plan
// records, eleven bytes each that cost a cachedPlan, its key and two map
// slots.
const maxLoadAllocPerByte = 128

// FuzzDiskCacheLoad hands Load arbitrary payloads behind a valid magic,
// version and SHA-256, the bytes a file can carry past every header check.
// Load must return without panicking, allocate at most a fixed multiple of
// the file's size, and leave the cache empty whenever it reports an error.
// Whenever it succeeds, save → load → save must reproduce the payload byte
// for byte.
// Each payload is also loaded behind a digest with one byte flipped: that
// Load must report errDigestMismatch, under the same bounds.
// The checked-in corpus holds payloads of the current layout (unchanged
// since v11) that declare lengths of
// 2^61–2^62 (plans, nodes and tokens), a space size past int32 and a
// stackable byte of 2, plus payloads of earlier layouts (interface tables,
// node and edge sections, candidate indices), which must fail cleanly, and a
// real payload.
func FuzzDiskCacheLoad(f *testing.F) {
	f.Add(smallCachePayload(f))
	dir := f.TempDir()
	path := filepath.Join(dir, CacheFileName)
	// load writes file, loads it into a fresh cache and checks the bounds
	// every Load keeps.
	load := func(t *testing.T, file []byte) (*SearchCache, error) {
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
		if err != nil {
			if n, e := c.Sizes(); n != 0 || e != 0 || c.PlanEntries() != 0 {
				t.Fatalf("failed Load (%v) left %d nodes, %d edges, %d plans", err, n, e, c.PlanEntries())
			}
		}
		return c, err
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		file := ppscFile(diskCacheVersion, payload)
		last := len(file) - len(payload) - 1 // the digest's last byte
		file[last] ^= 0x01
		if _, err := load(t, file); !errors.Is(err, errDigestMismatch) {
			t.Fatalf("Load behind a flipped digest byte reported %v", err)
		}
		file[last] ^= 0x01
		c, err := load(t, file)
		if err != nil {
			return
		}
		saved := encodeCachePayload(c.plans.m)
		plans, err := decodeCachePayload(saved)
		if err != nil {
			t.Fatalf("a saved payload does not load: %v", err)
		}
		if !bytes.Equal(encodeCachePayload(plans), saved) {
			t.Fatal("save → load → save changed the payload")
		}
	})
}

// smallCachePayload is the payload Save writes after a two-device OPT-6.7B
// block search: one plan record, small enough for the fuzzer to mutate.
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
	return encodeCachePayload(o.Cache.plans.m)
}
