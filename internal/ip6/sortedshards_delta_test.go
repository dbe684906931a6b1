package ip6

import (
	"testing"

	"hitlist6/internal/rng"
)

// freezeFull is FreezeDelta with no previous generation.
func freezeFull(s *ShardedSet) *SortedShardSet {
	out, _, _ := FreezeDelta(s, nil)
	return out
}

// sameBacking reports whether two non-empty shard slices share a backing
// array (the copy-on-publish sharing FreezeDelta promises).
func sameBacking(a, b []Addr) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// requireEqualFrozen pins got against an independently built full freeze
// of the same ShardedSet: identical per-shard contents in order.
func requireEqualFrozen(t *testing.T, got, want *SortedShardSet) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len %d, want %d", got.Len(), want.Len())
	}
	for sh := 0; sh < AddrShards; sh++ {
		a, b := got.Shard(sh), want.Shard(sh)
		if len(a) != len(b) {
			t.Fatalf("shard %d: len %d, want %d", sh, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("shard %d[%d]: %v, want %v", sh, i, a[i], b[i])
			}
		}
	}
}

// TestFreezeDelta covers the sharing contract: unchanged shards are
// pointer-shared with the previous generation, mutated shards are
// re-frozen, and the result is always content-identical to a full
// freeze.
func TestFreezeDelta(t *testing.T) {
	r := rng.NewStream(9, "freeze-delta")
	s := NewShardedSet()
	for i := 0; i < 4000; i++ {
		s.Add(AddrFromUint64s(0x2001_0db8_0000_0000|r.Uint64()>>32, r.Uint64()))
	}
	for sh := 0; sh < AddrShards; sh++ {
		if s.ShardLen(sh) == 0 {
			t.Fatalf("setup: shard %d empty, sharing check needs non-empty shards", sh)
		}
	}
	gen0 := freezeFull(s)

	// No mutation: every shard shared, none re-frozen, slices literally
	// the same arrays.
	gen1, refrozen, shared := FreezeDelta(s, gen0)
	if refrozen != 0 || shared != AddrShards {
		t.Fatalf("clean delta: refrozen=%d shared=%d, want 0/%d", refrozen, shared, AddrShards)
	}
	requireEqualFrozen(t, gen1, freezeFull(s))
	for sh := 0; sh < AddrShards; sh++ {
		if !sameBacking(gen1.Shard(sh), gen0.Shard(sh)) {
			t.Fatalf("clean delta: shard %d not pointer-shared", sh)
		}
	}

	// Re-adding an existing member is membership-invariant and must not
	// dirty its shard.
	var member Addr
	s.WalkShard(0, func(a Addr) bool { member = a; return false })
	s.Add(member)
	gen2, refrozen, shared := FreezeDelta(s, gen1)
	if refrozen != 0 || shared != AddrShards {
		t.Fatalf("re-add delta: refrozen=%d shared=%d, want 0/%d", refrozen, shared, AddrShards)
	}
	_ = gen2

	// Mutate exactly 3 shards; only those re-freeze.
	dirty := map[int]bool{}
	for i := uint64(0); len(dirty) < 3; i++ {
		a := AddrFromUint64s(0x2001_0db8_ffff_0000, i)
		sh := ShardOf(a)
		if sh > 2 { // constrain churn to shards 0..2
			continue
		}
		if s.Add(a) {
			dirty[sh] = true
		}
	}
	gen3, refrozen, shared := FreezeDelta(s, gen1)
	if refrozen != 3 || shared != AddrShards-3 {
		t.Fatalf("dirty delta: refrozen=%d shared=%d, want 3/%d", refrozen, shared, AddrShards-3)
	}
	requireEqualFrozen(t, gen3, freezeFull(s))
	for sh := 0; sh < AddrShards; sh++ {
		if dirty[sh] == sameBacking(gen3.Shard(sh), gen1.Shard(sh)) {
			t.Fatalf("shard %d: dirty=%v but sharing=%v", sh, dirty[sh], !dirty[sh])
		}
	}

	// nil prev and a prev frozen from a different set object both degrade
	// to a full freeze.
	for name, prev := range map[string]*SortedShardSet{
		"nil":     nil,
		"foreign": freezeFull(NewShardedSet()),
	} {
		got, refrozen, shared := FreezeDelta(s, prev)
		if refrozen != AddrShards || shared != 0 {
			t.Fatalf("%s prev: refrozen=%d shared=%d, want %d/0", name, refrozen, shared, AddrShards)
		}
		requireEqualFrozen(t, got, freezeFull(s))
	}
}

// TestSetShardEpoch pins the content-aware SetShard: replacing a shard
// with an equal set (including nil≡empty) must not advance the epoch,
// while a genuine change must.
func TestSetShardEpoch(t *testing.T) {
	s := NewShardedSet()
	a := AddrFromUint64s(0x2001_0db8, 1)
	sh := ShardOf(a)

	e0 := s.ShardEpoch(sh)
	s.SetShard(sh, NewSet(0)) // empty ≡ nil: no change
	if s.ShardEpoch(sh) != e0 {
		t.Fatal("empty-for-nil SetShard bumped the epoch")
	}
	other := NewSet(1)
	other.Add(a)
	s.SetShard(sh, other)
	if s.ShardEpoch(sh) == e0 {
		t.Fatal("content change did not bump the epoch")
	}
	e1 := s.ShardEpoch(sh)
	same := NewSet(1)
	same.Add(a)
	s.SetShard(sh, same) // different object, same content
	if s.ShardEpoch(sh) != e1 {
		t.Fatal("equal-content SetShard bumped the epoch")
	}
}
