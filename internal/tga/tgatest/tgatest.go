// Package tgatest holds the checks every target generation algorithm
// must pass, shared by the generator packages' tests.
package tgatest

import (
	"reflect"
	"testing"

	"hitlist6/internal/ip6"
	"hitlist6/internal/tga"
)

// IncrementalPool is a seed set every generator emits from: a dense run
// with gaps of 2 (a distance cluster) and a consecutive run that spreads
// over many shards.
func IncrementalPool() []ip6.Addr {
	var pool []ip6.Addr
	p1 := ip6.MustParsePrefix("2001:db9:1::/64")
	for i := uint64(0); i < 24; i += 2 {
		pool = append(pool, p1.NthAddr(i))
	}
	p2 := ip6.MustParsePrefix("2a02:db8:7::/64")
	for i := uint64(0); i < 48; i++ {
		pool = append(pool, p2.NthAddr(i+1))
	}
	return pool
}

// EmitView collects g's emission over v at budget.
func EmitView(g tga.ViewStreamer, v *tga.SeedView, budget int) []ip6.Addr {
	var out []ip6.Addr
	g.EmitView(v, budget, func(a ip6.Addr) bool { out = append(out, a); return true })
	return out
}

// CheckIncrementalModel grows IncrementalPool shard by shard across
// rounds through epoch-delta frozen views and checks, every round, that
// one persistent generator's emission is byte-identical to a fresh
// generator's (mk) on the same view — and to tga.Generate over the flat
// slice.
func CheckIncrementalModel(t testing.TB, mk func() tga.ViewStreamer, budget int) {
	t.Helper()
	pool := IncrementalPool()
	const rounds = 4
	inc := mk()
	set := ip6.NewShardedSet()
	var prev *ip6.SortedShardSet
	var got []ip6.Addr
	for r := 0; r < rounds; r++ {
		for _, a := range pool[r*len(pool)/rounds : (r+1)*len(pool)/rounds] {
			set.Add(a)
		}
		frozen, _, shared := ip6.FreezeDelta(set, prev)
		if r > 0 && shared == 0 {
			t.Fatalf("round %d: delta freeze shared no shards", r)
		}
		prev = frozen
		v := tga.NewSeedView(frozen)
		got = EmitView(inc, v, budget)
		want := EmitView(mk(), v, budget)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: incremental emission diverges from scratch (%d vs %d candidates)",
				r, len(got), len(want))
		}
		flat := tga.Generate(mk(), set.Merge().Sorted(), budget)
		if !reflect.DeepEqual(got, flat) {
			t.Fatalf("round %d: view emission diverges from flat Generate (%d vs %d candidates)",
				r, len(got), len(flat))
		}
	}
	if len(got) == 0 {
		t.Fatal("final round emitted nothing — test exercised no candidates")
	}
}
