package dc

import (
	"testing"

	"hitlist6/internal/ip6"
	"hitlist6/internal/tga"
	"hitlist6/internal/tga/tgatest"
)

func clusterSeeds(p ip6.Prefix, offsets ...uint64) []ip6.Addr {
	out := make([]ip6.Addr, len(offsets))
	for i, o := range offsets {
		out[i] = p.NthAddr(o)
	}
	return out
}

func TestFindClusters(t *testing.T) {
	p := ip6.MustParsePrefix("2001:db9::/64")
	// A dense run of 10 within gaps ≤ 64, then a far-away pair.
	seeds := clusterSeeds(p, 0, 10, 30, 31, 60, 100, 140, 180, 200, 240, 1<<30, 1<<30+1)
	cfg := DefaultConfig()
	clusters := FindClusters(seeds, cfg)
	if len(clusters) != 1 {
		t.Fatalf("clusters: %+v", clusters)
	}
	c := clusters[0]
	if c.Seeds != 10 || c.First != p.NthAddr(0) || c.Last != p.NthAddr(240) {
		t.Errorf("cluster: %+v", c)
	}
	if c.Span() != 241 {
		t.Errorf("span: %d", c.Span())
	}
}

func TestFindClustersRespectsGapAndSize(t *testing.T) {
	p := ip6.MustParsePrefix("2001:db9::/64")
	cfg := Config{MinClusterSize: 3, MaxGap: 10, MaxFill: 100}
	// Two runs split by a big gap; second run too small.
	seeds := clusterSeeds(p, 1, 5, 9, 1000, 1001)
	clusters := FindClusters(seeds, cfg)
	if len(clusters) != 1 || clusters[0].Seeds != 3 {
		t.Fatalf("clusters: %+v", clusters)
	}
	// Clusters never span /64 boundaries.
	mixed := append(clusterSeeds(p, 1, 2, 3),
		clusterSeeds(ip6.MustParsePrefix("2001:db9:0:1::/64"), 4, 5, 6)...)
	clusters = FindClusters(mixed, cfg)
	if len(clusters) != 2 {
		t.Fatalf("cross-prefix clusters: %+v", clusters)
	}
}

func TestGenerateFillsGaps(t *testing.T) {
	p := ip6.MustParsePrefix("2001:db9::/64")
	var offsets []uint64
	for i := uint64(0); i < 10; i++ {
		offsets = append(offsets, i*10)
	}
	seeds := clusterSeeds(p, offsets...) // 0,10,...,90 → span 91, 81 gaps
	g := New(DefaultConfig())
	if g.Name() != "DC" {
		t.Error("name")
	}
	out := tga.Generate(g, seeds, 1000)
	if len(out) != 81 {
		t.Fatalf("generated %d, want 81", len(out))
	}
	seedSet := ip6.SetOf(seeds...)
	for _, a := range out {
		if seedSet.Has(a) {
			t.Fatalf("generated seed %v", a)
		}
		if !p.Contains(a) {
			t.Fatalf("candidate %v outside /64", a)
		}
	}
	// Budget respected.
	out = tga.Generate(g, seeds, 5)
	if len(out) != 5 {
		t.Errorf("budget: %d", len(out))
	}
	// No seeds → nothing.
	if tga.Generate(g, nil, 100) != nil {
		t.Error("no-seed generation")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := ip6.MustParsePrefix("2001:db9::/64")
	var offsets []uint64
	for i := uint64(0); i < 12; i++ {
		offsets = append(offsets, i*7)
	}
	seeds := clusterSeeds(p, offsets...)
	a := tga.Generate(New(DefaultConfig()), seeds, 50)
	b := tga.Generate(New(DefaultConfig()), seeds, 50)
	if len(a) != len(b) {
		t.Fatal("non-deterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("order differs")
		}
	}
}

// TestIncrementalModelMatchesScratch pins the incremental model: one
// generator fed growing epoch-delta views emits what a fresh one does.
func TestIncrementalModelMatchesScratch(t *testing.T) {
	tgatest.CheckIncrementalModel(t, func() tga.ViewStreamer { return New(DefaultConfig()) }, 400)
}
