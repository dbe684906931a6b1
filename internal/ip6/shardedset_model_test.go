package ip6

import (
	"errors"
	"fmt"
	"testing"

	"hitlist6/internal/rng"
)

// modelForm is one ShardedSet under test plus what the model checks
// remember about it between steps.
type modelForm struct {
	name   string
	set    *ShardedSet
	frozen *SortedShardSet
	epochs [AddrShards]uint64
}

// TestSpillSetMatchesShardedSet drives the unbounded form and two
// budgeted forms (budget 1: every insert spills; budget 3: shards mix a
// delta with runs) through one random sequence of Add, AddToShard,
// AddAllToShard, SetShard and Compact calls. After every step each form
// must agree with a plain map model on Has, Len, ShardLen, WalkShard
// membership, Merge and both ascending cursors; an epoch-delta freeze
// chained from the previous step must equal a full freeze; and a shard
// whose epoch did not move must not have changed members.
func TestSpillSetMatchesShardedSet(t *testing.T) {
	r := rng.NewStream(17, "sharded-model")
	pool := randAddrs(19, 240, false)
	byShard := make([][]Addr, AddrShards)
	for _, a := range pool {
		byShard[ShardOf(a)] = append(byShard[ShardOf(a)], a)
	}
	pick := func() Addr { return pool[r.Intn(len(pool))] }
	pickSet := func(sh int) Set { // 0-4 members; empty clears via SetShard
		out := NewSet(0)
		for n := r.Intn(5) - 1; n >= 0 && len(byShard[sh]) > 0; n-- {
			out.Add(byShard[sh][r.Intn(len(byShard[sh]))])
		}
		return out
	}

	forms := []*modelForm{{name: "unbounded", set: NewShardedSet()}}
	for _, budget := range []int{1, 3} {
		set, err := NewSpillSet(t.TempDir(), budget)
		if err != nil {
			t.Fatal(err)
		}
		defer set.Close()
		forms = append(forms, &modelForm{name: fmt.Sprintf("budget-%d", budget), set: set})
	}
	model := make([]Set, AddrShards)
	for sh := range model {
		model[sh] = NewSet(0)
	}

	for step := 0; step < 600; step++ {
		var changed [AddrShards]bool
		switch op := r.Intn(20); {
		case op < 8: // Add / AddToShard
			a := pick()
			sh := ShardOf(a)
			want := model[sh].Add(a)
			changed[sh] = want
			for _, f := range forms {
				var got bool
				if op < 4 {
					got = f.set.Add(a)
				} else {
					got = f.set.AddToShard(sh, a)
				}
				if got != want {
					t.Fatalf("step %d %s: insert %v reported %v, want %v", step, f.name, a, got, want)
				}
			}
		case op < 14: // AddAllToShard
			sh := r.Intn(AddrShards)
			batch := pickSet(sh)
			before := len(model[sh])
			model[sh].AddAll(batch)
			changed[sh] = len(model[sh]) != before
			for _, f := range forms {
				f.set.AddAllToShard(sh, batch)
			}
		case op < 17: // SetShard
			sh := r.Intn(AddrShards)
			repl := pickSet(sh)
			changed[sh] = !model[sh].Equal(repl)
			model[sh] = repl.Clone()
			for _, f := range forms {
				f.set.SetShard(sh, repl.Clone())
			}
		default:
			for _, f := range forms {
				if err := f.set.Compact(); err != nil {
					t.Fatalf("step %d %s: Compact: %v", step, f.name, err)
				}
			}
		}
		for _, f := range forms {
			checkAgainstModel(t, step, f, model, &changed)
		}
	}
	for _, f := range forms[1:] {
		if f.set.FrozenRuns() == 0 {
			t.Fatalf("%s form froze no runs — spilling never happened", f.name)
		}
	}
}

// checkAgainstModel compares one form with the map model after a step.
func checkAgainstModel(t *testing.T, step int, f *modelForm, model []Set, changed *[AddrShards]bool) {
	t.Helper()
	s := f.set
	total := 0
	var all []Addr
	for sh := 0; sh < AddrShards; sh++ {
		want := model[sh]
		total += len(want)
		if got := s.ShardLen(sh); got != len(want) {
			t.Fatalf("step %d %s: ShardLen(%d) = %d, want %d", step, f.name, sh, got, len(want))
		}
		walked := NewSet(len(want))
		s.WalkShard(sh, func(a Addr) bool {
			if !walked.Add(a) {
				t.Fatalf("step %d %s: WalkShard(%d) yielded %v twice", step, f.name, sh, a)
			}
			return true
		})
		if !walked.Equal(want) {
			t.Fatalf("step %d %s: WalkShard(%d) members differ from the model", step, f.name, sh)
		}
		sorted := want.Sorted()
		requireCursor(t, s.ShardCursor(sh), sorted)
		all = append(all, sorted...)
		for a := range want {
			if !s.Has(a) || !s.HasInShard(sh, a) {
				t.Fatalf("step %d %s: member %v missing", step, f.name, a)
			}
		}
		// An unchanged epoch promises unchanged members.
		if e := s.ShardEpoch(sh); e == f.epochs[sh] && changed[sh] {
			t.Fatalf("step %d %s: shard %d changed but its epoch stayed %d", step, f.name, sh, e)
		}
		f.epochs[sh] = s.ShardEpoch(sh)
	}
	if got := s.Len(); got != total {
		t.Fatalf("step %d %s: Len %d, want %d", step, f.name, got, total)
	}
	if merged := s.Merge(); len(merged) != total || !merged.Equal(SetOf(all...)) {
		t.Fatalf("step %d %s: Merge differs from the model", step, f.name)
	}
	SortAddrs(all)
	requireCursor(t, s.Cursor(), all)
	// A non-member probe per step keeps Has honest on absent addresses.
	miss := AddrFromUint64s(0x3fff_0000_0000_0000, uint64(step))
	if s.Has(miss) {
		t.Fatalf("step %d %s: Has(%v) true for a non-member", step, f.name, miss)
	}
	delta, _, _ := FreezeDelta(s, f.frozen)
	requireEqualFrozen(t, delta, freezeFull(s))
	f.frozen = delta
	if err := s.Err(); err != nil {
		t.Fatalf("step %d %s: %v", step, f.name, err)
	}
}

// requireCursor drains cur and pins it against want, in order.
func requireCursor(t *testing.T, cur Cursor, want []Addr) {
	t.Helper()
	got := drainCursor(t, cur)
	if len(got) != len(want) {
		t.Fatalf("cursor yielded %d addrs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("cursor[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestSpillImportRejectsMalformed feeds ImportShardSorted input that
// breaks its contract — descending, duplicated, or holding another
// shard's address — on the unbounded and a budget-1 set. Each must fail
// with ErrMalformedImport and leave the shard empty; a well-formed
// import afterwards loads every address.
func TestSpillImportRejectsMalformed(t *testing.T) {
	var shard0, shard1 []Addr
	for i := uint64(0); len(shard0) < 600 || len(shard1) == 0; i++ {
		a := AddrFromUint64s(0x2001_0db8_0000_0000, i*0x9e3779b97f4a7c15)
		switch ShardOf(a) {
		case 0:
			shard0 = append(shard0, a)
		case 1:
			shard1 = append(shard1, a)
		}
	}
	shard0 = shard0[:600]
	SortAddrs(shard0)
	descending := make([]Addr, len(shard0))
	for i, a := range shard0 {
		descending[len(shard0)-1-i] = a
	}
	dup := append(append([]Addr{}, shard0[:10]...), shard0[9:20]...)
	cases := map[string][]Addr{
		"descending":  descending,
		"duplicate":   dup,
		"wrong shard": {shard1[0]},
		"mixed":       append(append([]Addr{}, shard0[:5]...), shard1[0]),
	}
	budgeted, err := NewSpillSet(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer budgeted.Close()
	for _, set := range []*ShardedSet{NewShardedSet(), budgeted} {
		for name, in := range cases {
			err := set.ImportShardSorted(0, sliceCursor(in))
			if !errors.Is(err, ErrMalformedImport) {
				t.Fatalf("%s: err = %v, want ErrMalformedImport", name, err)
			}
			if set.Len() != 0 || set.ShardLen(0) != 0 {
				t.Fatalf("%s: rejected import left Len %d", name, set.Len())
			}
		}
		if err := set.ImportShardSorted(0, sliceCursor(shard0)); err != nil {
			t.Fatalf("well-formed import: %v", err)
		}
		if set.Len() != len(shard0) {
			t.Fatalf("well-formed import: Len %d, want %d", set.Len(), len(shard0))
		}
		for _, a := range shard0 {
			if !set.Has(a) {
				t.Fatalf("well-formed import lost %v", a)
			}
		}
		requireCursor(t, set.ShardCursor(0), shard0)
		if err := set.ImportShardSorted(0, sliceCursor(shard0)); err == nil {
			t.Fatal("import into a non-empty shard succeeded")
		}
	}
	if budgeted.FrozenRuns() != 0 {
		t.Fatalf("import counted %d frozen runs; a reload is not a spill", budgeted.FrozenRuns())
	}
}
