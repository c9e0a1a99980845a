package device

import (
	"math"
	"testing"
)

// FuzzParseLinksSpec feeds arbitrary CLI link specs through the parser and
// the cluster constructor. Every input must return an error or tiers, never
// panic. Accepted tiers carry a finite positive bandwidth and a finite
// non-negative latency, and each machine of 2–1024 devices either builds on
// them, with every tier's bits summing to the machine's, or is rejected.
func FuzzParseLinksSpec(f *testing.F) {
	for _, seed := range []string{
		"nvlink:4:300e9:5e-6,fabric:rest:25e9:15e-6",
		"a:rest:1e9:0,b:4:1e9:0",
		"a:4:NaN:5e-6,b:rest:25e9:15e-6",
		"a:4:300e9:5e-6,b:rest:25e9:Inf",
		"a:2:1e-300:1e308,b:1024:1:0,c:rest:1e308:0",
		"a:-1:1:0",
		"::::",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		tiers, err := ParseLinksSpec(spec)
		if err != nil {
			return
		}
		if len(tiers) == 0 {
			t.Fatalf("%q: no error and no tiers", spec)
		}
		for _, tier := range tiers {
			if !(tier.Bandwidth > 0) || math.IsInf(tier.Bandwidth, 0) {
				t.Fatalf("%q: accepted bandwidth %v", spec, tier.Bandwidth)
			}
			if !(tier.Latency >= 0) || math.IsInf(tier.Latency, 0) {
				t.Fatalf("%q: accepted latency %v", spec, tier.Latency)
			}
		}
		p := V100Profile()
		p.Links = tiers
		for n := 2; n <= 1024; n *= 2 {
			c, err := NewCluster(n, 4, p)
			if err != nil {
				continue
			}
			sum := 0
			for _, tier := range c.Tiers() {
				sum += tier.Bits
			}
			if sum != c.Bits() {
				t.Fatalf("%q at %d devices: tiers span %d bits, machine has %d", spec, n, sum, c.Bits())
			}
		}
	})
}

// FuzzParseTopology checks that every name is either rejected or the exact
// String of the topology it parses to.
func FuzzParseTopology(f *testing.F) {
	for _, seed := range []string{"switch", "torus-2d", "Switch", "torus-2d ", ""} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		topo, err := ParseTopology(s)
		if err != nil {
			return
		}
		if topo.String() != s {
			t.Fatalf("%q parsed to %v", s, topo)
		}
	})
}
