package netmodel

import (
	"fmt"
	"reflect"
	"testing"

	"hitlist6/internal/ip6"
)

// resolveWorld is testWorld plus the two lifetimes a hoisted resolution
// must honor per day: an alias rule alive only on days [100, 200) and a
// host silent during an outage on days [100, 180).
func resolveWorld(t testing.TB, sealed bool) *Network {
	t.Helper()
	net := testWorld(t)
	net.AddAlias(&AliasRule{
		Prefix: ip6.MustParsePrefix("2600:9000:42::/48"), AS: net.AS.ByASN(64501),
		Protos: ProtoSetOf(ICMP, TCP80, UDP53), Backends: 3, WindowJitter: true,
		BornDay: 100, DeathDay: 200, FP: FPLinuxLB, DNS: DNSOpenResolver, MTU: 1500,
	})
	net.AddHost(&Host{
		Addr: ip6.MustParseAddr("2001:4d00::77"), Protos: ProtoSetOf(ICMP, TCP443, UDP53),
		BornDay: 0, DeathDay: Forever, UptimePermille: 1000, FP: FPBSD, DNS: DNSProxy, MTU: 1500,
		DownFrom: 100, DownTo: 180,
	})
	if sealed {
		net.Seal()
	}
	return net
}

// TestProbeResolvedMatchesProbe pins the split probe path to the one-call
// one: on twin worlds, Resolve + ProbeResolved must give the same
// Response as Probe for every probe kind, leave the same probe count and
// the same name-server log, sealed or not. The sequence poisons PMTU
// caches with Packet Too Big and reads them back, so the shared mutable
// state is covered too.
func TestProbeResolvedMatchesProbe(t *testing.T) {
	lifetime := ip6.MustParsePrefix("2600:9000:42::/48")
	for _, sealed := range []bool{false, true} {
		t.Run(fmt.Sprintf("sealed=%v", sealed), func(t *testing.T) {
			direct, split := resolveWorld(t, sealed), resolveWorld(t, sealed)
			targets := append(probeSample(direct),
				ip6.MustParseAddr("2001:4d00::77"),
				lifetime.NthAddr(5), lifetime.NthAddr(1<<40), lifetime.NthAddr(3<<60))

			var fragmented, injected, ruleDays, outageDays int
			for _, day := range []int{0, 99, 100, 150, 179, 180, 199, 200, 350} {
				for _, target := range targets {
					r := split.Resolve(target, day)
					if r.Target != target || r.Day != day || r.shard != ip6.ShardOf(target) {
						t.Fatalf("Resolve(%v, %d) = %+v", target, day, r)
					}
					if lifetime.Contains(target) {
						if (r.rule != nil) != (day >= 100 && day < 200) {
							t.Fatalf("day %d: lifetime rule active=%v", day, r.rule != nil)
						}
						ruleDays++
					}
					if r.host != nil && r.host.Addr == ip6.MustParseAddr("2001:4d00::77") && day >= 100 && day < 180 {
						outageDays++
					}
					probes := []Probe{
						{Kind: EchoRequest, Target: target, Day: day, Size: 1300},
						{Kind: TCPSYN, Target: target, Day: day, Port: 80},
						{Kind: TCPSYN, Target: target, Day: day, Port: 443},
						{Kind: TCPSYN, Target: target, Day: day, Port: 22},
						{Kind: QUICInitial, Target: target, Day: day, Port: 443},
						dnsProbe(t, target, day, "www.google.com"),
						dnsProbe(t, target, day, "x1.hitlist-exp.example"),
						{Kind: PacketTooBig, Target: target, Day: day, MTU: 1280},
						{Kind: EchoRequest, Target: target, Day: day, Size: 1300},
						{Kind: ProbeKind(99), Target: target, Day: day},
					}
					for i := range probes {
						want := direct.Probe(probes[i])
						got := split.ProbeResolved(&probes[i], &r)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("day %d target %v probe %d (kind %d): ProbeResolved %+v, Probe %+v",
								day, target, i, probes[i].Kind, got, want)
						}
						if got, want := split.ProbeCount(), direct.ProbeCount(); got != want {
							t.Fatalf("probe count %d, want %d", got, want)
						}
						if want.Fragmented {
							fragmented++
						}
						injected += want.InjectedCount
					}
				}
			}
			if !reflect.DeepEqual(split.NSLogSnapshot(), direct.NSLogSnapshot()) {
				t.Error("name-server logs differ")
			}
			if fragmented == 0 || injected == 0 || ruleDays == 0 || outageDays == 0 {
				t.Errorf("coverage: fragmented=%d injected=%d ruleDays=%d outageDays=%d, want all > 0",
					fragmented, injected, ruleDays, outageDays)
			}
		})
	}
}
