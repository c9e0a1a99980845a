package device

import (
	"math"
	"strings"
	"testing"
)

// superpod32 is the canonical three-tier machine of the tests: 32 devices,
// NVLink islands of 4 (2 bits), a node fabric joining two islands (1 bit),
// and a spine absorbing the remaining 2 bits.
func superpod32(t *testing.T) *Cluster {
	t.Helper()
	c, err := NewCluster(32, 8, A100SuperPodProfile())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestResolveLinksLegacyDerivation(t *testing.T) {
	// A profile without explicit Links must resolve to the classic
	// intra/inter two-tier machine.
	c := MustCluster(16, 4, V100Profile())
	tiers := c.Tiers()
	if len(tiers) != 2 {
		t.Fatalf("legacy profile resolved to %d tiers, want 2: %+v", len(tiers), tiers)
	}
	p := V100Profile()
	want := []LinkTier{
		{Name: "intra-node", Bits: 2, Bandwidth: p.IntraBW, Latency: p.IntraLatency},
		{Name: "inter-node", Bits: 2, Bandwidth: p.InterBW, Latency: p.InterLatency},
	}
	for i, w := range want {
		if tiers[i] != w {
			t.Errorf("tier %d = %+v, want %+v", i, tiers[i], w)
		}
	}

	// Single-node machine: no inter tier at all, and InterLink folds back
	// to the only tier so legacy "inter share = 0" call sites stay exact.
	c1 := MustCluster(8, 8, V100Profile())
	if got := c1.Tiers(); len(got) != 1 || got[0].Bits != 3 || got[0].Bandwidth != p.IntraBW {
		t.Fatalf("single-node tiers = %+v", got)
	}
	ibw, ilat := c1.IntraLink()
	ebw, elat := c1.InterLink()
	if ibw != ebw || ilat != elat {
		t.Fatalf("single-tier IntraLink %v,%v != InterLink %v,%v", ibw, ilat, ebw, elat)
	}
}

func TestResolveLinksScalesWithClusterSize(t *testing.T) {
	cases := []struct {
		devices, perNode int
		wantBits         []int // innermost first
	}{
		{32, 8, []int{2, 1, 2}},   // the profile's natural shape
		{8, 8, []int{2, 1, 0}},    // spine collapses to zero bits
		{4, 4, []int{2, 0, 0}},    // fabric and spine both collapse
		{2, 2, []int{1, 0, 0}},    // nvlink itself clamped (stageCluster hazard)
		{1024, 8, []int{2, 1, 7}}, // spine absorbs the remainder
	}
	for _, tc := range cases {
		c := MustCluster(tc.devices, tc.perNode, A100SuperPodProfile())
		tiers := c.Tiers()
		if len(tiers) != len(tc.wantBits) {
			t.Fatalf("%d devices: %d tiers, want %d", tc.devices, len(tiers), len(tc.wantBits))
		}
		sum := 0
		for i, want := range tc.wantBits {
			if tiers[i].Bits != want {
				t.Errorf("%d devices: tier %d (%s) has %d bits, want %d",
					tc.devices, i, tiers[i].Name, tiers[i].Bits, want)
			}
			sum += tiers[i].Bits
		}
		if sum != c.Bits() {
			t.Errorf("%d devices: tier bits sum to %d, want %d", tc.devices, sum, c.Bits())
		}
	}
}

func TestLinkForThreeTierFlows(t *testing.T) {
	c := superpod32(t)
	cases := []struct {
		name    string
		ind     Indicator
		wantBW  float64
		wantLat float64
	}{
		// Inside one NVLink island: dedicated links, full bandwidth.
		{"nvlink pair", Indicator{5}, 600e9, 4e-6},
		{"nvlink island", Indicator{4, 5}, 600e9, 4e-6},
		// Crossing the node fabric: the island's 4 devices each run a
		// concurrent group flow through the island uplink unless they
		// are members of the same group.
		{"fabric, 4 flows", Indicator{3}, 100e9 / 4, 8e-6},
		{"fabric, 2 flows", Indicator{3, 5}, 100e9 / 2, 8e-6},
		{"fabric, 1 flow", Indicator{3, 4, 5}, 100e9, 8e-6},
		// Crossing the spine: the node's 8 devices share its uplink.
		{"spine, 8 flows", Indicator{1}, 25e9 / 8, 12e-6},
		{"spine, 2 flows", Indicator{1, 4, 5}, 25e9 / 2, 12e-6},
		{"spine, 1 flow", Indicator{1, 2, 3, 4, 5}, 25e9, 12e-6},
	}
	for _, tc := range cases {
		bw, lat := c.linkFor(tc.ind)
		if bw != tc.wantBW || lat != tc.wantLat {
			t.Errorf("%s: linkFor(%v) = %g, %g; want %g, %g",
				tc.name, tc.ind, bw, lat, tc.wantBW, tc.wantLat)
		}
	}
}

// TestLinkForMatchesLegacyModel checks the generic tier walk reduces
// bit-exactly to the paper-testbed NIC-sharing model on a two-tier machine,
// for every non-empty indicator.
func TestLinkForMatchesLegacyModel(t *testing.T) {
	for _, shape := range []struct{ devices, perNode int }{{16, 4}, {32, 4}, {8, 8}, {16, 2}} {
		c := MustCluster(shape.devices, shape.perNode, V100Profile())
		p := c.Profile
		n := c.Bits()
		for mask := 1; mask < 1<<n; mask++ {
			var ind Indicator
			for pos := 1; pos <= n; pos++ {
				if mask&(1<<(pos-1)) != 0 {
					ind = append(ind, pos)
				}
			}
			wantBW, wantLat := p.IntraBW, p.IntraLatency
			if c.SpansNodes(ind) {
				wantBW = p.InterBW / float64(c.DevicesPerNode/c.membersPerNode(ind))
				wantLat = p.InterLatency
			}
			bw, lat := c.linkFor(ind)
			if bw != wantBW || lat != wantLat {
				t.Fatalf("%dx%d linkFor(%v) = %g, %g; legacy model says %g, %g",
					shape.devices, shape.perNode, ind, bw, lat, wantBW, wantLat)
			}
		}
	}
}

// TestExplicitTwoTierBitIdentical plans the same collectives on a legacy
// profile and on its explicit-Links spelling; every time must be
// bit-identical, which is what keeps homogeneous golden digests stable.
func TestExplicitTwoTierBitIdentical(t *testing.T) {
	legacy := V100Profile()
	explicit := legacy
	explicit.Links = []LinkTier{
		{Name: "intra-node", Bits: 2, Bandwidth: legacy.IntraBW, Latency: legacy.IntraLatency},
		{Name: "inter-node", Bits: -1, Bandwidth: legacy.InterBW, Latency: legacy.InterLatency},
	}
	a := MustCluster(16, 4, legacy)
	b := MustCluster(16, 4, explicit)
	n := a.Bits()
	for mask := 1; mask < 1<<n; mask++ {
		var ind Indicator
		for pos := 1; pos <= n; pos++ {
			if mask&(1<<(pos-1)) != 0 {
				ind = append(ind, pos)
			}
		}
		for _, bytes := range []float64{1, 4096, 64 << 20} {
			if x, y := a.AllReduceTime(ind, bytes), b.AllReduceTime(ind, bytes); x != y {
				t.Fatalf("AllReduceTime(%v, %g): legacy %v != explicit %v", ind, bytes, x, y)
			}
			if x, y := a.RingStepTime(ind, bytes), b.RingStepTime(ind, bytes); x != y {
				t.Fatalf("RingStepTime(%v, %g): legacy %v != explicit %v", ind, bytes, x, y)
			}
		}
	}
	for src := 0; src < 16; src++ {
		if x, y := a.P2PTime(0, src, 1<<20), b.P2PTime(0, src, 1<<20); x != y {
			t.Fatalf("P2PTime(0, %d): legacy %v != explicit %v", src, x, y)
		}
	}
}

func TestMembersPerNodeAndSpansNodes(t *testing.T) {
	c := MustCluster(16, 4, V100Profile()) // nodeBits = 2
	cases := []struct {
		ind     Indicator
		spans   bool
		members int
	}{
		{Indicator{1}, true, 1},
		{Indicator{2}, true, 1},
		{Indicator{3}, false, 2},
		{Indicator{4}, false, 2},
		{Indicator{3, 4}, false, 4},
		{Indicator{1, 2}, true, 1},
		{Indicator{2, 3}, true, 2},
		{Indicator{1, 3, 4}, true, 4},
		{Indicator{1, 2, 3, 4}, true, 4},
	}
	for _, tc := range cases {
		if got := c.SpansNodes(tc.ind); got != tc.spans {
			t.Errorf("SpansNodes(%v) = %v, want %v", tc.ind, got, tc.spans)
		}
		if got := c.membersPerNode(tc.ind); got != tc.members {
			t.Errorf("membersPerNode(%v) = %d, want %d", tc.ind, got, tc.members)
		}
	}
	// Single-node machine: nothing ever spans nodes.
	c1 := MustCluster(8, 8, V100Profile())
	for _, ind := range []Indicator{{1}, {1, 2}, {1, 2, 3}} {
		if c1.SpansNodes(ind) {
			t.Errorf("single node: SpansNodes(%v) = true", ind)
		}
	}
}

func TestP2PTimeAcrossTiers(t *testing.T) {
	c := superpod32(t)
	const bytes = 1 << 20
	cases := []struct {
		src, dst int
		want     float64
	}{
		{0, 1, bytes/600e9 + 4e-6},   // same NVLink island
		{0, 3, bytes/600e9 + 4e-6},   // still inside the island
		{0, 4, bytes/100e9 + 8e-6},   // across the node fabric
		{0, 16, bytes/25e9 + 12e-6},  // across the spine
		{7, 31, bytes/25e9 + 12e-6},  // spine again, different pair
		{8, 12, bytes/100e9 + 8e-6},  // fabric inside the second node
		{17, 18, bytes/600e9 + 4e-6}, // island inside the second spine half
	}
	for _, tc := range cases {
		if got := c.P2PTime(tc.src, tc.dst, bytes); got != tc.want {
			t.Errorf("P2PTime(%d, %d) = %v, want %v", tc.src, tc.dst, got, tc.want)
		}
	}
	if got := c.P2PTime(5, 5, bytes); got != 0 {
		t.Errorf("P2PTime to self = %v, want 0", got)
	}
}

func TestComputeTimeHeterogeneousClasses(t *testing.T) {
	mixed := MustCluster(8, 4, MixedA100V100Profile())
	v100 := MustCluster(8, 4, V100Profile())
	// The V100 class is the slowest member in every term, so the mixed
	// machine's SPMD step time must equal the pure-V100 machine's exactly.
	for _, tc := range []struct{ flops, bytes float64 }{
		{1e9, 1e6}, {1e12, 0}, {0, 1e9}, {3.7e11, 2.2e8},
	} {
		if got, want := mixed.ComputeTime(tc.flops, tc.bytes), v100.ComputeTime(tc.flops, tc.bytes); got != want {
			t.Errorf("ComputeTime(%g, %g) = %v, want V100-identical %v", tc.flops, tc.bytes, got, want)
		}
	}
	// A class that is slowest only on memory bandwidth must still win the
	// max for memory-bound steps.
	p := V100Profile()
	p.Classes = []ComputeClass{
		{Name: "fast-hbm", FLOPs: 10e12, MemBW: 2000e9, KernelOverhead: 1e-6},
		{Name: "slow-hbm", FLOPs: 100e12, MemBW: 100e9, KernelOverhead: 1e-6},
	}
	c := MustCluster(8, 4, p)
	memBound := c.ComputeTime(0, 1e9)
	if want := 1e9/100e9 + 1e-6; memBound != want {
		t.Errorf("memory-bound step = %v, want slow-hbm's %v", memBound, want)
	}
	flopBound := c.ComputeTime(1e15, 0)
	if want := 1e15/10e12 + 1e-6; flopBound != want {
		t.Errorf("flop-bound step = %v, want fast-hbm's %v", flopBound, want)
	}
	if c.ComputeTime(0, 0) != 0 {
		t.Error("zero work should cost zero even with classes")
	}
}

func TestNewClusterValidatesLinksAndClasses(t *testing.T) {
	bad := []struct {
		name string
		prof func() Profile
	}{
		{"rest tier not last", func() Profile {
			p := V100Profile()
			p.Links = []LinkTier{{Name: "a", Bits: -1, Bandwidth: 1e9}, {Name: "b", Bits: 1, Bandwidth: 1e9}}
			return p
		}},
		{"zero bandwidth tier", func() Profile {
			p := V100Profile()
			p.Links = []LinkTier{{Name: "a", Bits: 2, Bandwidth: 0}}
			return p
		}},
		{"negative latency tier", func() Profile {
			p := V100Profile()
			p.Links = []LinkTier{{Name: "a", Bits: 2, Bandwidth: 1e9, Latency: -1e-6}}
			return p
		}},
		{"NaN bandwidth tier", func() Profile {
			p := V100Profile()
			p.Links = []LinkTier{{Name: "a", Bits: 2, Bandwidth: math.NaN()}}
			return p
		}},
		{"infinite bandwidth tier", func() Profile {
			p := V100Profile()
			p.Links = []LinkTier{{Name: "a", Bits: -1, Bandwidth: math.Inf(1)}}
			return p
		}},
		{"NaN latency tier", func() Profile {
			p := V100Profile()
			p.Links = []LinkTier{{Name: "a", Bits: 2, Bandwidth: 1e9, Latency: math.NaN()}}
			return p
		}},
		{"infinite latency tier", func() Profile {
			p := V100Profile()
			p.Links = []LinkTier{{Name: "a", Bits: -1, Bandwidth: 1e9, Latency: math.Inf(1)}}
			return p
		}},
		{"negative bit count", func() Profile {
			p := V100Profile()
			p.Links = []LinkTier{{Name: "a", Bits: -2, Bandwidth: 1e9}}
			return p
		}},
		{"zero-FLOPs class", func() Profile {
			p := V100Profile()
			p.Classes = []ComputeClass{{Name: "x", FLOPs: 0, MemBW: 1e9}}
			return p
		}},
		{"zero-MemBW class", func() Profile {
			p := V100Profile()
			p.Classes = []ComputeClass{{Name: "x", FLOPs: 1e12, MemBW: 0}}
			return p
		}},
		{"negative-overhead class", func() Profile {
			p := V100Profile()
			p.Classes = []ComputeClass{{Name: "x", FLOPs: 1e12, MemBW: 1e9, KernelOverhead: -1}}
			return p
		}},
		{"NaN-FLOPs class", func() Profile {
			p := V100Profile()
			p.Classes = []ComputeClass{{Name: "x", FLOPs: math.NaN(), MemBW: 1e9}}
			return p
		}},
		{"zero profile", func() Profile { return Profile{} }},
		{"negative intra bandwidth", func() Profile {
			p := V100Profile()
			p.IntraBW = -300e9
			return p
		}},
		{"zero inter bandwidth", func() Profile {
			p := V100Profile()
			p.InterBW = 0
			return p
		}},
		{"NaN intra latency", func() Profile {
			p := V100Profile()
			p.IntraLatency = math.NaN()
			return p
		}},
		{"infinite inter latency", func() Profile {
			p := V100Profile()
			p.InterLatency = math.Inf(1)
			return p
		}},
		{"zero element bytes", func() Profile {
			p := V100Profile()
			p.ElementBytes = 0
			return p
		}},
		{"infinite element bytes", func() Profile {
			p := V100Profile()
			p.ElementBytes = math.Inf(1)
			return p
		}},
		{"zero FLOPs", func() Profile {
			p := V100Profile()
			p.FLOPs = 0
			return p
		}},
		{"NaN MemBW", func() Profile {
			p := V100Profile()
			p.MemBW = math.NaN()
			return p
		}},
		{"negative kernel overhead", func() Profile {
			p := V100Profile()
			p.KernelOverhead = -8e-6
			return p
		}},
		{"infinite kernel overhead", func() Profile {
			p := V100Profile()
			p.KernelOverhead = math.Inf(1)
			return p
		}},
		{"zero torus bandwidth", func() Profile {
			p := TPUv4Profile()
			p.TorusBW = 0
			return p
		}},
	}
	for _, tc := range bad {
		if _, err := NewCluster(8, 4, tc.prof()); err == nil {
			t.Errorf("%s: NewCluster accepted an invalid profile", tc.name)
		}
	}
}

// TestNewClusterBuiltinProfiles pins that the validation accepts every
// built-in profile at every size from one device to MaxDevices, and that
// MaxDevices is where the sizes stop.
func TestNewClusterBuiltinProfiles(t *testing.T) {
	for _, p := range Profiles() {
		for n := 1; n <= MaxDevices; n *= 2 {
			if _, err := NewCluster(n, 4, p); err != nil {
				t.Errorf("%s at %d devices: %v", p.Name, n, err)
			}
		}
		if _, err := NewCluster(2*MaxDevices, 4, p); err == nil {
			t.Errorf("%s: NewCluster accepted %d devices", p.Name, 2*MaxDevices)
		}
	}
}

func TestParseLinksSpec(t *testing.T) {
	tiers, err := ParseLinksSpec("nvlink:4:300e9:5e-6, fabric:rest:25e9:15e-6")
	if err != nil {
		t.Fatal(err)
	}
	want := []LinkTier{
		{Name: "nvlink", Bits: 2, Bandwidth: 300e9, Latency: 5e-6},
		{Name: "fabric", Bits: -1, Bandwidth: 25e9, Latency: 15e-6},
	}
	if len(tiers) != len(want) {
		t.Fatalf("got %d tiers, want %d", len(tiers), len(want))
	}
	for i := range want {
		if tiers[i] != want[i] {
			t.Errorf("tier %d = %+v, want %+v", i, tiers[i], want[i])
		}
	}

	for _, bad := range []string{
		"",
		"nvlink:4:300e9",            // missing field
		"nvlink:3:300e9:5e-6",       // width not a power of two
		"nvlink:1:300e9:5e-6",       // width below 2
		"nvlink:four:300e9:5e-6",    // width not a number
		"nvlink:4:zero:5e-6",        // bad bandwidth
		"nvlink:4:0:5e-6",           // zero bandwidth
		"nvlink:4:300e9:-5e-6",      // negative latency
		"nvlink:4:300e9:oops",       // bad latency
		"a:4:1e9:0,b:4:1e9:0:extra", // malformed second tier

		// Non-finite values parse as floats; NaN fails every comparison.
		"a:4:NaN:5e-6,b:rest:25e9:15e-6",
		"a:4:300e9:5e-6,b:rest:+Inf:15e-6",
		"a:4:300e9:5e-6,b:rest:25e9:Inf",
		"a:4:300e9:NaN",
		"a:4:-Inf:5e-6",
	} {
		if _, err := ParseLinksSpec(bad); err == nil {
			t.Errorf("ParseLinksSpec(%q) accepted a bad spec", bad)
		}
	}

	// "rest" before the last tier parses, but cluster construction rejects it.
	tiers, err = ParseLinksSpec("a:rest:1e9:0,b:4:1e9:0")
	if err != nil {
		t.Fatal(err)
	}
	p := V100Profile()
	p.Links = tiers
	if _, err := NewCluster(16, 4, p); err == nil {
		t.Error("NewCluster accepted a mid-list \"rest\" tier")
	}
}

func TestLinkTierFromWidth(t *testing.T) {
	tier, err := LinkTierFromWidth("x", 8, 1e9, 2e-6)
	if err != nil || tier.Bits != 3 {
		t.Fatalf("width 8 → %+v, %v; want 3 bits", tier, err)
	}
	tier, err = LinkTierFromWidth("x", -1, 1e9, 2e-6)
	if err != nil || tier.Bits != -1 {
		t.Fatalf("width -1 → %+v, %v; want Bits -1", tier, err)
	}
	for _, w := range []int{0, 1, 3, 6, -2} {
		if _, err := LinkTierFromWidth("x", w, 1e9, 2e-6); err == nil {
			t.Errorf("width %d accepted", w)
		}
	}
}

func TestProfileByName(t *testing.T) {
	for _, name := range ProfileNames() {
		p, err := ProfileByName(name)
		if err != nil {
			t.Errorf("ProfileByName(%q): %v", name, err)
		}
		if p.Name != name {
			t.Errorf("ProfileByName(%q).Name = %q", name, p.Name)
		}
	}
	if _, err := ProfileByName("h100-moonbase"); err == nil ||
		!strings.Contains(err.Error(), "unknown profile") {
		t.Errorf("unknown profile error = %v", err)
	}
}

func TestParseTopology(t *testing.T) {
	if topo, err := ParseTopology("switch"); err != nil || topo != Switch {
		t.Errorf("switch → %v, %v", topo, err)
	}
	if topo, err := ParseTopology("torus-2d"); err != nil || topo != Torus2D {
		t.Errorf("torus-2d → %v, %v", topo, err)
	}
	if _, err := ParseTopology("hypercube"); err == nil {
		t.Error("hypercube accepted")
	}
}

// TestTorusIgnoresTiers pins the Torus2D short-circuit: under a torus every
// ring rides a dedicated neighbor link regardless of the tier hierarchy.
func TestTorusIgnoresTiers(t *testing.T) {
	p := TPUv4Profile()
	p.Links = []LinkTier{{Name: "weird", Bits: -1, Bandwidth: 1, Latency: 1}}
	c := MustCluster(16, 4, p)
	bw, lat := c.linkFor(Indicator{1, 2})
	if bw != p.TorusBW || lat != p.TorusLatency {
		t.Errorf("torus linkFor = %g, %g; want torus link %g, %g", bw, lat, p.TorusBW, p.TorusLatency)
	}
	if got, want := c.P2PTime(0, 15, 1e6), 1e6/p.TorusBW+p.TorusLatency; got != want {
		t.Errorf("torus P2PTime = %v, want %v", got, want)
	}
}

// TestSuperPodAllReduceMonotone sanity-checks that widening a group past a
// tier boundary never makes the modeled collective faster.
func TestSuperPodAllReduceMonotone(t *testing.T) {
	c := superpod32(t)
	const bytes = 64 << 20
	prev := 0.0
	for _, ind := range []Indicator{{5}, {4, 5}, {3, 4, 5}, {2, 3, 4, 5}, {1, 2, 3, 4, 5}} {
		tm := c.AllReduceTime(ind, bytes)
		if math.IsNaN(tm) || tm <= prev {
			t.Fatalf("AllReduceTime(%v) = %v, not greater than previous %v", ind, tm, prev)
		}
		prev = tm
	}
}
