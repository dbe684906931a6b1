package dc

import (
	"reflect"
	"testing"

	"hitlist6/internal/ip6"
	"hitlist6/internal/tga"
)

// TestIncrementalModelMatchesScratch grows the seed set shard by shard
// across rounds through epoch-delta frozen views and checks, every
// round, that the persistent incremental model's emission is
// byte-identical to a fresh model built from scratch on the same view —
// and to the stateless Generate shim over the flat slice.
func TestIncrementalModelMatchesScratch(t *testing.T) {
	var pool []ip6.Addr
	p1 := ip6.MustParsePrefix("2001:db9:1::/64")
	for i := uint64(0); i < 24; i += 2 { // dense run, gaps of 2
		pool = append(pool, p1.NthAddr(i))
	}
	p2 := ip6.MustParsePrefix("2a02:db8:7::/64")
	for i := uint64(0); i < 48; i++ { // consecutive run across many shards
		pool = append(pool, p2.NthAddr(i+1))
	}

	const budget = 400
	const rounds = 4
	collect := func(g *Generator, v *tga.SeedView) []ip6.Addr {
		var out []ip6.Addr
		g.EmitView(v, budget, func(a ip6.Addr) bool { out = append(out, a); return true })
		return out
	}

	inc := New(DefaultConfig())
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
		got = collect(inc, v)
		want := collect(New(DefaultConfig()), v)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: incremental emission diverges from scratch (%d vs %d candidates)",
				r, len(got), len(want))
		}
		flat := New(DefaultConfig()).Generate(set.Merge().Sorted(), budget)
		if !reflect.DeepEqual(got, flat) {
			t.Fatalf("round %d: view emission diverges from flat Generate (%d vs %d candidates)",
				r, len(got), len(flat))
		}
	}
	if len(got) == 0 {
		t.Fatal("final round emitted nothing — test exercised no candidates")
	}
}
