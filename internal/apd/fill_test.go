package apd

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/rng"
)

// serialFill is the reference routing: one pass over the candidates in
// order, appending each slot to its shard.
func serialFill(candidates []ip6.Prefix, day int) (addrs [ip6.AddrShards][]ip6.Addr, refs [ip6.AddrShards][]slotRef, err error) {
	for i, p := range candidates {
		if p.Bits()+4 > 128 {
			return addrs, refs, fmt.Errorf("apd: candidate %v too long to subdivide", p)
		}
		for v := byte(0); v < 16; v++ {
			a := SlotAddr(p, v, day)
			sh := ip6.ShardOf(a)
			addrs[sh] = append(addrs[sh], a)
			refs[sh] = append(refs[sh], slotRef{cand: int32(i), v: v})
		}
	}
	return addrs, refs, nil
}

// fillCandidates draws n candidate prefixes of mixed lengths.
func fillCandidates(n int, seed uint64) []ip6.Prefix {
	r := rng.NewStream(seed, "fill-candidates")
	base := ip6.MustParsePrefix("2001:db8::/32")
	lens := []int{32, 48, 64, 96, 120, 124}
	out := make([]ip6.Prefix, n)
	for i := range out {
		out[i] = ip6.PrefixFrom(base.RandomAddr(r), lens[r.Intn(len(lens))])
	}
	return out
}

// TestSlotFillMatchesSerial pins the parallel fill to the serial routing:
// every shard's addrs/refs sequence must be identical at any worker
// count, for empty, tiny (fewer candidates than pieces) and large rounds,
// and a queue reused across rounds must not carry slots over. The
// parallel bitmap pass must match a per-candidate reference too.
func TestSlotFillMatchesSerial(t *testing.T) {
	protos := []netmodel.Protocol{netmodel.ICMP, netmodel.TCP80}
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var q slotQueue
			for round, n := range []int{5000, 3, 1, 0, 5000} {
				day := 7 * round
				cands := fillCandidates(n, uint64(round))
				if err := q.fill(cands, day, procs); err != nil {
					t.Fatal(err)
				}
				addrs, refs, _ := serialFill(cands, day)
				total := 0
				for sh := 0; sh < ip6.AddrShards; sh++ {
					if !slices.Equal(q.addrs[sh], addrs[sh]) || !slices.Equal(q.refs[sh], refs[sh]) {
						t.Fatalf("round %d (%d candidates): shard %d differs from the serial fill", round, n, sh)
					}
					total += q.ShardLen(sh)
				}
				if total != 16*n {
					t.Fatalf("round %d: %d slots queued, want %d", round, total, 16*n)
				}

				// Responsive sets: ICMP answers at even addresses, TCP/80
				// at addresses ≡ 1 mod 3.
				resp := map[netmodel.Protocol]*ip6.ShardedSet{
					netmodel.ICMP: ip6.NewShardedSet(), netmodel.TCP80: ip6.NewShardedSet(),
				}
				want := make([]uint16, n)
				for i, p := range cands {
					for v := byte(0); v < 16; v++ {
						a := SlotAddr(p, v, day)
						icmp, tcp := a.Lo()%2 == 0, a.Lo()%3 == 1
						if icmp {
							resp[netmodel.ICMP].Add(a)
						}
						if tcp {
							resp[netmodel.TCP80].Add(a)
						}
						if icmp || tcp {
							want[i] |= 1 << v
						}
					}
				}
				if got := q.bitmaps(n, resp, protos, procs); !slices.Equal(got, want) {
					t.Fatalf("round %d: parallel bitmaps differ from the per-candidate reference", round)
				}
			}

			// A too-long candidate fails with the serial path's error.
			bad := fillCandidates(40, 99)
			bad[17] = ip6.MustParsePrefix("2001:db8::1/128")
			bad[30] = ip6.MustParsePrefix("2001:db8::/126")
			_, _, wantErr := serialFill(bad, 1)
			err := q.fill(bad, 1, procs)
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("too-long candidate: got %v, want %v", err, wantErr)
			}
		})
	}
}
