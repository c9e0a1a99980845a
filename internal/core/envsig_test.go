package core

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/model"
)

// envSigOf builds the cross-call environment signature for a cluster under
// the default model and search options — the prefix every cache key shares.
func envSigOf(t testing.TB, cl *device.Cluster) []byte {
	t.Helper()
	return NewOptimizer(cost.NewModel(cl)).appendEnvSig(nil)
}

// TestEnvSigDistinctAcrossProfiles pins the acceptance criterion's key
// property: every named preset — and a custom-link variant — yields a
// distinct environment signature at the same cluster shape, so their cache
// keys can never alias inside one shared SearchCache.
func TestEnvSigDistinctAcrossProfiles(t *testing.T) {
	custom := device.V100Profile()
	custom.Name += "+custom-links"
	custom.Links = []device.LinkTier{
		{Name: "nvlink", Bits: 2, Bandwidth: 300e9, Latency: 5e-6},
		{Name: "fabric", Bits: -1, Bandwidth: 10e9, Latency: 20e-6},
	}
	profiles := append(device.Profiles(), custom)

	sigs := map[string]string{}
	for _, p := range profiles {
		sig := string(envSigOf(t, device.MustCluster(8, 4, p)))
		for other, os := range sigs {
			if os == sig {
				t.Errorf("profiles %q and %q produce identical env signatures", p.Name, other)
			}
		}
		sigs[p.Name] = sig
	}

	// Same profile, different shape: still distinct.
	if a, b := envSigOf(t, device.MustCluster(8, 4, device.V100Profile())),
		envSigOf(t, device.MustCluster(8, 8, device.V100Profile())); bytes.Equal(a, b) {
		t.Error("8x4 and 8x8 V100 clusters share an env signature")
	}
	// A "-1 = rest" preset resolves per machine size, so the signature must
	// track the machine, not just the profile.
	if a, b := envSigOf(t, device.MustCluster(8, 8, device.A100SuperPodProfile())),
		envSigOf(t, device.MustCluster(32, 8, device.A100SuperPodProfile())); bytes.Equal(a, b) {
		t.Error("8- and 32-device superpods share an env signature")
	}
}

// TestSharedCacheCrossProfileNoAliasing is the issue's acceptance test: plan
// the same model at the same scale under several machine profiles against
// ONE shared SearchCache, and require (a) every shared-cache result to be
// bit-identical to an isolated cold search of the same profile — no entry
// leaked across profiles — (b) repeat passes to actually hit the shared
// cache, and (c) the request keys to be pairwise distinct.
func TestSharedCacheCrossProfileNoAliasing(t *testing.T) {
	cfg := model.OPT6B7()
	g, err := model.BuildBlock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	custom := device.V100Profile()
	custom.Name += "+custom-links"
	custom.Links = []device.LinkTier{
		{Name: "nvlink", Bits: 2, Bandwidth: 300e9, Latency: 5e-6},
		{Name: "fabric", Bits: -1, Bandwidth: 10e9, Latency: 20e-6},
	}
	profiles := []device.Profile{
		device.V100Profile(),
		device.A100Profile(),
		device.MixedA100V100Profile(),
		device.A100SuperPodProfile(),
		custom,
	}

	shared := NewSearchCache()
	newOpt := func(p device.Profile, cache *SearchCache) *Optimizer {
		m := cost.NewModel(device.MustCluster(8, 4, p))
		m.Alpha = 1e-12
		o := NewOptimizer(m)
		o.Cache = cache
		return o
	}

	// Reference: isolated cold searches, one private cache each.
	cold := make(map[string]*Strategy, len(profiles))
	keys := make(map[string]string, len(profiles))
	for _, p := range profiles {
		o := newOpt(p, NewSearchCache())
		strat, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: cfg.Layers})
		if err != nil {
			t.Fatalf("%s cold: %v", p.Name, err)
		}
		cold[p.Name] = strat
		keys[p.Name] = o.RequestKey(cfg.Name)
	}
	for i, a := range profiles {
		for _, b := range profiles[i+1:] {
			if keys[a.Name] == keys[b.Name] {
				t.Errorf("profiles %q and %q share a request key", a.Name, b.Name)
			}
		}
	}

	// Two passes over ONE shared cache. Pass 0 populates it with all five
	// profiles' entries; pass 1 must hit the cache and STILL reproduce each
	// profile's isolated result bit-for-bit.
	for pass := 0; pass < 2; pass++ {
		for _, p := range profiles {
			strat, err := newOpt(p, shared).Plan(context.Background(), PlanRequest{Graph: g, Layers: cfg.Layers})
			if err != nil {
				t.Fatalf("%s pass %d: %v", p.Name, pass, err)
			}
			sameStrategy(t, fmt.Sprintf("%s pass %d", p.Name, pass), strat, cold[p.Name])
			if pass == 1 {
				if strat.Stats.CrossCallPlanHits != 1 {
					t.Errorf("%s: warm pass was not a plan hit", p.Name)
				}
				if strat.Stats.NodeEvals != 0 || strat.Stats.EdgeMatsBuilt != 0 {
					t.Errorf("%s: warm pass re-did work: %+v", p.Name, strat.Stats)
				}
			}
		}
	}

	// The heterogeneous machines must not silently plan like the V100: at
	// least the modeled cost changes (the custom fabric is 2.5× slower, the
	// A100 6× faster — identical totals would mean the profile never
	// reached the cost model).
	for _, name := range []string{"a100-cluster", "v100-cluster+custom-links"} {
		if cold[name].TotalCost == cold["v100-cluster"].TotalCost {
			t.Errorf("%s plans at exactly the V100 total cost — profile not reaching the cost model", name)
		}
	}
}

// machineFromBytes decodes a small machine description from the fuzz stream.
// Values are drawn from small sets so the fuzzer can reach BOTH branches:
// distinct descriptions (which must produce distinct signatures) and equal
// ones (which must produce equal signatures).
func machineFromBytes(r *byteReader) *device.Cluster {
	devices := 1 << (1 + r.intn(3)) // 2, 4, 8
	perNode := 1 << r.intn(3)       // 1, 2, 4
	var prof device.Profile
	switch r.intn(3) {
	case 0:
		prof = device.V100Profile()
	case 1:
		prof = device.A100Profile()
	default:
		prof = device.MixedA100V100Profile()
	}
	if r.next()&1 == 0 {
		prof.Name += "-x"
	}
	if r.next()&1 == 0 {
		prof.IntraBW *= 2
	}
	nTiers := r.intn(3) // 0 = keep the legacy derivation
	for i := 0; i < nTiers; i++ {
		bits := 1 + r.intn(2)
		if i == nTiers-1 && r.next()&1 == 0 {
			bits = -1
		}
		prof.Links = append(prof.Links, device.LinkTier{
			Name:      fuzzAxisNames[r.intn(len(fuzzAxisNames))],
			Bits:      bits,
			Bandwidth: float64(1+r.intn(3)) * 1e9,
			Latency:   float64(r.intn(2)) * 1e-6,
		})
	}
	nClasses := r.intn(3)
	prof.Classes = nil
	for i := 0; i < nClasses; i++ {
		prof.Classes = append(prof.Classes, device.ComputeClass{
			Name:           fuzzAxisNames[r.intn(len(fuzzAxisNames))],
			FLOPs:          float64(1+r.intn(3)) * 1e13,
			MemBW:          float64(1+r.intn(2)) * 1e11,
			KernelOverhead: float64(r.intn(2)) * 1e-6,
		})
	}
	cl, err := device.NewCluster(devices, perNode, prof)
	if err != nil {
		return nil
	}
	return cl
}

// canonicalMachine is the value the environment signature promises to
// identify: the cluster shape plus everything the cost model reads from the
// profile, with the link hierarchy in RESOLVED form (Profile.Links spellings
// that resolve identically — e.g. an explicit bit count vs "-1 = rest" —
// describe the same machine and may share a signature).
type canonicalMachine struct {
	Devices, PerNode int
	Name             string
	Scalars          [11]float64
	Collective       byte
	Topology         byte
	Tiers            []device.LinkTier
	Classes          []device.ComputeClass
}

func canonicalize(cl *device.Cluster) canonicalMachine {
	p := cl.Profile
	return canonicalMachine{
		Devices: cl.NumDevices,
		PerNode: cl.DevicesPerNode,
		Name:    p.Name,
		Scalars: [11]float64{p.FLOPs, p.MemBW, p.IntraBW, p.InterBW, p.IntraLatency,
			p.InterLatency, p.KernelOverhead, p.ElementBytes, p.MemoryCapacity,
			p.TorusBW, p.TorusLatency},
		Collective: byte(p.Collective),
		Topology:   byte(p.Topology),
		Tiers:      cl.Tiers(),
		Classes:    p.Classes,
	}
}

// FuzzEnvSigInjectivity checks appendEnvSig is injective over machine
// descriptions: two clusters get equal signatures if and only if they are
// the same canonical machine. A collision would let two different
// heterogeneous profiles alias each other's entries in a shared SearchCache.
func FuzzEnvSigInjectivity(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0}, []byte{1})
	f.Add([]byte{2, 1, 1, 0, 1}, []byte{2, 1, 1, 0, 1})
	f.Add([]byte{1, 2, 0, 1, 1, 2, 0, 3, 1, 1}, []byte{1, 2, 0, 1, 1, 1, 0, 3, 1, 1})
	f.Add([]byte{3, 0, 2, 0, 0, 2, 1, 0, 2, 1, 1, 0, 2}, []byte{3, 0, 2, 0, 0, 1, 1, 0, 2, 1, 1, 0, 2})
	f.Fuzz(func(t *testing.T, da, db []byte) {
		a := machineFromBytes(&byteReader{data: da})
		b := machineFromBytes(&byteReader{data: db})
		if a == nil || b == nil {
			t.Skip("undecodable machine")
		}
		sa, sb := envSigOf(t, a), envSigOf(t, b)
		same := reflect.DeepEqual(canonicalize(a), canonicalize(b))
		if same != bytes.Equal(sa, sb) {
			t.Fatalf("env sig equality %v but canonical equality %v\na: %+v\nb: %+v",
				bytes.Equal(sa, sb), same, canonicalize(a), canonicalize(b))
		}
	})
}
