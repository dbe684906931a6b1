package ip6

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"hitlist6/internal/rng"
)

// AddrShards is the canonical shard count used by every hash-sharded
// address structure in the repository. It is a constant — not a knob — so
// that shard-indexed data from independent components (the scan engine's
// batches, the service's digest accumulators, the GFW tracker) always
// agrees on which shard an address belongs to, and so that merged outputs
// are bit-identical regardless of worker count or batch size.
const AddrShards = 64

// shardSalt namespaces the shard hash away from the simulation's other
// Mix draws.
const shardSalt = 0x5aa4d_06d1

// ShardOf returns the canonical shard index of an address, in
// [0, AddrShards).
func ShardOf(a Addr) int {
	return int(rng.Mix(a.Hi(), a.Lo(), shardSalt) % AddrShards)
}

// ShardedSet is an address set partitioned into AddrShards disjoint
// shards by ShardOf. It exists for parallel accumulation: each shard may
// be written by at most one goroutine at a time (the scan engine
// guarantees this by processing each shard sequentially), so no locking
// is needed, and merging in canonical shard order is deterministic by
// construction. Whole-set views (Len, Merge, Cursor, Compact) run only
// outside per-shard sweeps.
//
// Each shard holds a resident delta Set plus zero or more frozen sorted
// runs in a scratch RunFile. NewShardedSet builds the unbounded form: no
// run file, every shard is its delta, and an insert is one map probe and
// one insert. NewSpillSet builds the budgeted form: when a shard's delta
// reaches the budget it freezes — sorted, written as a run, cleared — so
// resident memory stays bounded by AddrShards × budget addresses
// whatever the cardinality. Inserts check the runs first, so delta and
// runs are mutually disjoint and Len is a plain counter sum. The freeze
// trigger is shard-local, so where an address lives depends only on the
// shard's own insert sequence, and every observation (Has, Len, Merge,
// WalkShard membership, the cursors) is deterministic under the
// per-shard contract.
//
// The zero value is not ready for use; call NewShardedSet or NewSpillSet.
//
// Each shard carries a mutation epoch: a counter bumped whenever the
// shard's membership actually changes. Consumers that derive per-shard
// artifacts (frozen sorted indexes, checkpoint payloads) record the
// epochs they built against and later rebuild only the shards whose
// epoch advanced. The invariant is one-directional per set object:
// an unchanged epoch guarantees unchanged membership; a bumped epoch
// merely permits a change. Freezes, compaction and rotation are
// membership-invariant and do not advance it.
//
// Disk errors are sticky: the failing operation degrades (Has reports
// false, an insert keeps its delta resident) and Err returns the first
// error for the owner to surface at its next checkpoint.
type ShardedSet struct {
	shards [AddrShards]setShard
	epochs [AddrShards]uint64

	// Budgeted form only; rf is nil and budget 0 on the unbounded form.
	rf     *RunFile
	dir    string
	budget int

	frozen atomic.Int64 // runs frozen over the set's lifetime (telemetry)
	failed atomic.Bool  // latch: stop freezing after the first disk error

	errMu    sync.Mutex
	firstErr error
}

type setShard struct {
	delta   Set
	runs    []*Run
	ondisk  int // addresses in runs (disjoint from delta)
	scratch []byte
}

// NewShardedSet returns an empty set with an unbounded budget: fully
// resident, never frozen. Shard maps are allocated lazily on first
// insert.
func NewShardedSet() *ShardedSet { return &ShardedSet{} }

// NewSpillSet returns an empty set whose scratch run file lives in dir
// ("" = system temp). budget is the per-shard resident address count
// that triggers a freeze; values < 1 are clamped to 1 (every insert
// spills — maximal disk pressure, used by the larger-than-memory tests).
func NewSpillSet(dir string, budget int) (*ShardedSet, error) {
	rf, err := OpenRunFile(dir, "ip6-spill-*.runs")
	if err != nil {
		return nil, err
	}
	return &ShardedSet{rf: rf, dir: dir, budget: max(budget, 1)}, nil
}

// Close releases the scratch file; it does nothing on the unbounded form.
func (s *ShardedSet) Close() error {
	if s.rf == nil {
		return nil
	}
	return s.rf.Close()
}

// Err returns the first disk error any operation hit, or nil.
func (s *ShardedSet) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.firstErr
}

// FrozenRuns reports how many runs have been frozen over the set's
// lifetime (compaction does not reset it) — the "did we actually spill"
// signal for tests and telemetry.
func (s *ShardedSet) FrozenRuns() int64 { return s.frozen.Load() }

// SpilledBytes reports the scratch file's current size.
func (s *ShardedSet) SpilledBytes() int64 {
	if s.rf == nil {
		return 0
	}
	return s.rf.Size()
}

func (s *ShardedSet) fail(err error) {
	s.failed.Store(true)
	s.errMu.Lock()
	if s.firstErr == nil {
		s.firstErr = err
	}
	s.errMu.Unlock()
}

// Add inserts a into its canonical shard; it reports whether a was newly
// added. Not safe for concurrent use — use AddToShard from per-shard
// workers instead.
func (s *ShardedSet) Add(a Addr) bool { return s.AddToShard(ShardOf(a), a) }

// AddToShard inserts a into shard i, reporting whether a was newly
// added. The caller must ensure ShardOf(a) == i (the scan engine's
// batches satisfy this) and that no other goroutine touches shard i
// concurrently.
func (s *ShardedSet) AddToShard(i int, a Addr) bool {
	sh := &s.shards[i]
	if len(sh.runs) > 0 && s.inRuns(i, a) {
		return false
	}
	if sh.delta == nil {
		sh.delta = NewSet(0)
	}
	if !sh.delta.Add(a) {
		return false
	}
	s.epochs[i]++
	s.maybeFreeze(i)
	return true
}

// AddAllToShard inserts every member of set into shard i, under the same
// contract as AddToShard.
func (s *ShardedSet) AddAllToShard(i int, set Set) {
	if len(set) == 0 {
		return
	}
	if s.rf != nil {
		for a := range set {
			s.AddToShard(i, a)
		}
		return
	}
	sh := &s.shards[i]
	if sh.delta == nil {
		sh.delta = NewSet(len(set))
	}
	before := len(sh.delta)
	sh.delta.AddAll(set)
	if len(sh.delta) != before {
		s.epochs[i]++
	}
}

// SetShard replaces shard i with set (taking ownership, no copy). Every
// member of set must hash to shard i. The shard's epoch advances only
// when the replacement actually changes membership — wholesale
// replacement with equal content (the digest finalizer installs a fresh
// per-scan responder set every scan, usually identical to the last) must
// not invalidate artifacts frozen from the old content. The shard's runs
// are dropped; an over-budget set freezes at once.
func (s *ShardedSet) SetShard(i int, set Set) {
	sh := &s.shards[i]
	if len(sh.runs) > 0 || !sh.delta.Equal(set) {
		s.epochs[i]++
	}
	sh.delta, sh.runs, sh.ondisk = set, nil, 0
	s.maybeFreeze(i)
}

// maybeFreeze freezes shard i once its delta reaches the budget. The
// failed latch stops freeze attempts after a disk error: without it
// every over-budget insert would re-sort and re-write the whole delta
// against a dead disk. Membership stays correct (the delta just grows
// resident) and the sticky error surfaces via Err.
func (s *ShardedSet) maybeFreeze(i int) {
	if s.budget > 0 && len(s.shards[i].delta) >= s.budget && !s.failed.Load() {
		s.freeze(i)
	}
}

// freeze spills shard i's delta as a sorted run and clears it.
func (s *ShardedSet) freeze(i int) {
	sh := &s.shards[i]
	run, err := s.rf.WriteRun(sh.delta.Sorted())
	if err != nil {
		// Keep the delta resident: membership stays correct, the error
		// surfaces via Err.
		s.fail(err)
		return
	}
	sh.runs = append(sh.runs, &run)
	sh.ondisk += run.count
	sh.delta = NewSet(0)
	s.frozen.Add(1)
}

// ShardEpoch returns shard i's mutation epoch.
func (s *ShardedSet) ShardEpoch(i int) uint64 { return s.epochs[i] }

// Shard returns shard i's resident delta — the whole shard on the
// unbounded form; it may be nil when empty. Treat as read-only unless the
// per-shard writing contract is honored.
func (s *ShardedSet) Shard(i int) Set { return s.shards[i].delta }

// Has reports membership.
func (s *ShardedSet) Has(a Addr) bool { return s.HasInShard(ShardOf(a), a) }

// HasInShard reports membership of a in shard i, skipping the shard hash
// when the caller already knows it.
func (s *ShardedSet) HasInShard(i int, a Addr) bool {
	if s.shards[i].delta.Has(a) {
		return true
	}
	return len(s.shards[i].runs) > 0 && s.inRuns(i, a)
}

// inRuns reports whether a is in one of shard i's frozen runs.
func (s *ShardedSet) inRuns(i int, a Addr) bool {
	sh := &s.shards[i]
	// Newest runs first: recent inserts are the likelier probes.
	for j := len(sh.runs) - 1; j >= 0; j-- {
		ok, err := sh.runs[j].Has(s.rf, a, &sh.scratch)
		if err != nil {
			s.fail(err)
			return false
		}
		if ok {
			return true
		}
	}
	return false
}

// ShardLen returns the cardinality of shard i.
func (s *ShardedSet) ShardLen(i int) int { return len(s.shards[i].delta) + s.shards[i].ondisk }

// Len returns the total cardinality across shards.
func (s *ShardedSet) Len() int {
	n := 0
	for i := range s.shards {
		n += s.ShardLen(i)
	}
	return n
}

// Merge returns a new flat Set holding every member, built in canonical
// shard order. Its output is not memory-bounded; larger-than-memory
// consumers should stream WalkShard or a cursor instead.
func (s *ShardedSet) Merge() Set {
	out := NewSet(s.Len())
	for i := range s.shards {
		s.WalkShard(i, func(a Addr) bool {
			out[a] = struct{}{}
			return true
		})
	}
	return out
}

// WalkShard visits every member of shard i in unspecified order (delta
// first, then runs in freeze order); fn returning false stops the walk.
func (s *ShardedSet) WalkShard(i int, fn func(Addr) bool) {
	sh := &s.shards[i]
	for a := range sh.delta {
		if !fn(a) {
			return
		}
	}
	for _, r := range sh.runs {
		next := s.rf.cursor(r)
		for {
			a, ok, err := next()
			if err != nil {
				s.fail(err)
				return
			}
			if !ok {
				break
			}
			if !fn(a) {
				return
			}
		}
	}
}

// ShardCursor returns a pull cursor over shard i's members in ascending
// address order: a sorted copy of the delta, k-way merged with the
// frozen runs through bounded read buffers. Reading changes nothing; the
// shard must not be mutated while the cursor is in use. Disk errors are
// sticky (Err) and returned through the cursor.
func (s *ShardedSet) ShardCursor(i int) Cursor {
	sh := &s.shards[i]
	delta := sliceCursor(sh.delta.Sorted())
	if len(sh.runs) == 0 {
		return delta
	}
	curs := []Cursor{delta}
	for _, r := range sh.runs {
		curs = append(curs, s.rf.cursor(r))
	}
	next := MergeCursors(curs)
	return func() (Addr, bool, error) {
		a, ok, err := next()
		if err != nil {
			s.fail(err)
		}
		return a, ok, err
	}
}

// Cursor returns a pull cursor over the whole set in ascending address
// order — the shard cursors merged — byte-identical to a sorted
// materialization without building one. The set must not be mutated
// while the cursor is in use.
func (s *ShardedSet) Cursor() Cursor {
	var curs []Cursor
	for i := range s.shards {
		if s.ShardLen(i) > 0 {
			curs = append(curs, s.ShardCursor(i))
		}
	}
	return MergeCursors(curs)
}

// ErrMalformedImport reports ImportShardSorted input that is not
// strictly ascending or holds an address of another shard.
var ErrMalformedImport = errors.New("ip6: malformed shard import")

// ImportShardSorted bulk-loads the empty shard i from a cursor that must
// yield strictly ascending addresses, each hashing to shard i — the
// checkpoint-restore path, not an insert path. Input breaking that
// contract returns an error wrapping ErrMalformedImport and leaves the
// shard empty. On the unbounded form the addresses land in the delta; on
// the budgeted form they land as one frozen run without counting toward
// FrozenRuns (a reload is not a spill), and because the run writer
// claims the scratch file's tail, imports must run serially across
// shards.
func (s *ShardedSet) ImportShardSorted(i int, next Cursor) error {
	sh := &s.shards[i]
	if s.ShardLen(i) != 0 {
		return fmt.Errorf("ip6: importing into non-empty shard %d", i)
	}
	var w *runWriter
	if s.rf != nil {
		w = s.rf.newRunWriter()
	} else {
		sh.delta = NewSet(0)
	}
	var prev Addr
	n := 0
	err := next.Drain(func(a Addr) error {
		switch {
		case n > 0 && !prev.Less(a):
			return fmt.Errorf("%w: shard %d: %v after %v", ErrMalformedImport, i, a, prev)
		case ShardOf(a) != i:
			return fmt.Errorf("%w: shard %d: %v belongs to shard %d", ErrMalformedImport, i, a, ShardOf(a))
		}
		prev = a
		n++
		if w != nil {
			return w.append(a)
		}
		sh.delta[a] = struct{}{}
		return nil
	})
	if err == nil && w != nil {
		var run Run
		if run, err = w.finish(); err == nil && run.count > 0 {
			sh.runs, sh.ondisk = []*Run{&run}, run.count
		}
	}
	if err != nil {
		sh.delta = nil
		return err
	}
	if n > 0 {
		s.epochs[i]++
	}
	return nil
}

// rotateMinDead is the dead-space floor below which Compact keeps
// appending instead of rewriting into a fresh file.
const rotateMinDead = 4 << 20

// Compact merges every shard's runs into at most one, bounding point
// lookups at one fence search per shard; it does nothing on the
// unbounded form. Deltas stay resident (they are under budget by
// construction). The run file is append-only, so superseded runs
// accumulate as dead bytes; once dead space exceeds the live data (and a
// small floor), Compact rewrites the live runs into a fresh scratch file
// and drops the old one — bounding scratch disk at roughly 2× the set's
// size instead of growing with every merge. Compact must run outside
// per-shard sweeps (single goroutine).
func (s *ShardedSet) Compact() error {
	if s.rf == nil {
		return nil
	}
	var live int64
	for i := range s.shards {
		live += int64(s.shards[i].ondisk) * AddrBytes
	}
	if dead := s.rf.Size() - live; dead > live && dead > rotateMinDead {
		// Rotation merges every shard (fan-in 1 included) into the fresh
		// file, so it subsumes the in-place pass.
		if err := s.rotate(); err != nil {
			s.fail(err)
			return err
		}
		return s.Err()
	}
	for i := range s.shards {
		sh := &s.shards[i]
		if len(sh.runs) < 2 {
			continue
		}
		run, err := mergeInto(s.rf, s.rf, sh.runs)
		if err != nil {
			s.fail(err)
			return err
		}
		sh.runs = sh.runs[:0]
		if run.count > 0 {
			sh.runs = append(sh.runs, &run)
		}
		sh.ondisk = run.count
	}
	return s.Err()
}

// mergeInto merges runs (read from src) into one new run appended to dst.
func mergeInto(dst, src *RunFile, runs []*Run) (Run, error) {
	w := dst.newRunWriter()
	if err := MergeRuns(src, runs, w.append); err != nil {
		return Run{}, err
	}
	return w.finish()
}

// rotate rewrites every shard's live runs into a fresh scratch file and
// removes the old one. Shard state swaps only after every merge
// succeeded, so a mid-rotation failure leaves the set fully on the old
// file (the fresh one is dropped) — never split across both.
func (s *ShardedSet) rotate() error {
	fresh, err := OpenRunFile(s.dir, "ip6-spill-*.runs")
	if err != nil {
		return err
	}
	var staged [AddrShards]*Run
	for i := range s.shards {
		if len(s.shards[i].runs) == 0 {
			continue
		}
		run, err := mergeInto(fresh, s.rf, s.shards[i].runs)
		if err != nil {
			fresh.Close()
			return err
		}
		if run.count > 0 {
			staged[i] = &run
		}
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.runs = sh.runs[:0]
		sh.ondisk = 0
		if staged[i] != nil {
			sh.runs = append(sh.runs, staged[i])
			sh.ondisk = staged[i].count
		}
	}
	old := s.rf
	s.rf = fresh
	return old.Close()
}
