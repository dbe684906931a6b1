package serve

import (
	"encoding/json"
	"net/http/httptest"
	"testing"

	"hitlist6/internal/dnswire"
	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
)

func mustAddr(t testing.TB, s string) ip6.Addr {
	t.Helper()
	a, err := ip6.ParseAddr(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func sortedOf(addrs ...ip6.Addr) *ip6.SortedShardSet {
	s := ip6.NewShardedSet()
	for _, a := range addrs {
		s.Add(a)
	}
	out, _, _ := ip6.FreezeDelta(s, nil)
	return out
}

// testSnapshot builds a small snapshot with one address per dimension.
func testSnapshot(t testing.TB) (*Snapshot, map[string]ip6.Addr) {
	t.Helper()
	addrs := map[string]ip6.Addr{
		"live":    mustAddr(t, "2001:db8::1"),
		"icmp":    mustAddr(t, "2001:db8::1"),
		"udp53":   mustAddr(t, "2001:db8::53"),
		"alias":   mustAddr(t, "2001:db8:aaaa::17"),
		"gfw":     mustAddr(t, "2001:db8:cafe::2"),
		"nothing": mustAddr(t, "2001:db8::dead"),
	}
	var perProto [netmodel.NumProtocols]*ip6.SortedShardSet
	perProto[netmodel.ICMP] = sortedOf(addrs["live"])
	perProto[netmodel.UDP53] = sortedOf(addrs["udp53"])
	snap := NewSnapshot(
		1000,
		sortedOf(addrs["live"], addrs["udp53"]),
		perProto,
		[]ip6.Prefix{ip6.MustParsePrefix("2001:db8:aaaa::/48")},
		sortedOf(addrs["gfw"]),
	)
	return snap, addrs
}

func respond(t testing.TB, r *DNSResponder, sc *Scratch, name string, qtype dnswire.Type) *dnswire.Message {
	t.Helper()
	wire, err := dnswire.NewQuery(99, name, qtype).Encode()
	if err != nil {
		t.Fatal(err)
	}
	reply := r.Respond(wire, nil, sc)
	if reply == nil {
		t.Fatalf("Respond(%q) dropped the query", name)
	}
	m, err := dnswire.Decode(reply)
	if err != nil {
		t.Fatalf("Respond(%q) reply does not decode: %v", name, err)
	}
	if m.Header.ID != 99 || !m.Header.Response {
		t.Fatalf("Respond(%q) header = %+v", name, m.Header)
	}
	return m
}

func TestDNSResponder(t *testing.T) {
	snap, addrs := testSnapshot(t)
	h := NewHandle()
	h.Publish(snap)
	r := NewDNSResponder(h, "hitlist6.test")
	var sc Scratch

	// Hits on every dataset.
	for _, c := range []struct {
		dataset string
		addr    ip6.Addr
		ttl     uint32
	}{
		{"live", addrs["live"], ServeTTL},
		{"live", addrs["udp53"], ServeTTL},
		{"icmp", addrs["live"], ServeTTL},
		{"udp53", addrs["udp53"], ServeTTL},
		{"alias", addrs["alias"], 48},
		{"gfw", addrs["gfw"], ServeTTL},
	} {
		m := respond(t, r, &sc, r.QueryName(c.addr, c.dataset), dnswire.TypeA)
		if m.Header.RCode != dnswire.RCodeNoError || len(m.Answers) != 1 {
			t.Fatalf("%s/%v: rcode=%v answers=%d", c.dataset, c.addr, m.Header.RCode, len(m.Answers))
		}
		ans := m.Answers[0]
		if ans.Type != dnswire.TypeA || ans.A != listedA || ans.TTL != c.ttl {
			t.Fatalf("%s/%v: answer = %+v", c.dataset, c.addr, ans)
		}
	}

	// Misses: unlisted address, wrong dataset, unknown dataset, bad key.
	for _, name := range []string{
		r.QueryName(addrs["nothing"], "live"),
		r.QueryName(addrs["udp53"], "icmp"),
		r.QueryName(addrs["live"], "alias"),
		r.QueryName(addrs["live"], "bogus"),
		"not-hex.live.hitlist6.test",
		"live.hitlist6.test",
	} {
		if m := respond(t, r, &sc, name, dnswire.TypeA); m.Header.RCode != dnswire.RCodeNXDomain {
			t.Fatalf("%q: rcode = %v, want NXDOMAIN", name, m.Header.RCode)
		}
	}

	// Listed but a type we do not serve: NOERROR, no data.
	if m := respond(t, r, &sc, r.QueryName(addrs["live"], "live"), dnswire.TypeTXT); m.Header.RCode != dnswire.RCodeNoError || len(m.Answers) != 0 {
		t.Fatalf("TXT: got rcode=%v answers=%d", m.Header.RCode, len(m.Answers))
	}
	// Outside our zone: REFUSED.
	if m := respond(t, r, &sc, "example.com", dnswire.TypeA); m.Header.RCode != dnswire.RCodeRefused {
		t.Fatalf("foreign zone: rcode = %v, want REFUSED", m.Header.RCode)
	}
	// Apex: authoritative NOERROR.
	if m := respond(t, r, &sc, "hitlist6.test", dnswire.TypeA); m.Header.RCode != dnswire.RCodeNoError || !m.Header.Authoritative {
		t.Fatalf("apex: %+v", m.Header)
	}
}

func TestDNSResponderNoSnapshot(t *testing.T) {
	r := NewDNSResponder(NewHandle(), "hitlist6.test")
	var sc Scratch
	m := respond(t, r, &sc, "20010db8000000000000000000000001.live.hitlist6.test", dnswire.TypeA)
	if m.Header.RCode != dnswire.RCodeServFail {
		t.Fatalf("rcode = %v, want SERVFAIL before first publish", m.Header.RCode)
	}
}

func TestSnapshotLookup(t *testing.T) {
	snap, addrs := testSnapshot(t)
	h := NewHandle()
	h.Publish(snap)

	ans, ok := h.Lookup(addrs["live"])
	if !ok || !ans.Live || !ans.Protos.Has(netmodel.ICMP) || ans.Protos.Has(netmodel.UDP53) || ans.Aliased || ans.Injected {
		t.Fatalf("live answer = %+v ok=%v", ans, ok)
	}
	if ans.Day != 1000 || ans.Generation != snap.Generation {
		t.Fatalf("stamps = %+v", ans)
	}
	ans, _ = h.Lookup(addrs["alias"])
	if ans.Live || !ans.Aliased || ans.AliasPrefix.Bits() != 48 {
		t.Fatalf("alias answer = %+v", ans)
	}
	ans, _ = h.Lookup(addrs["gfw"])
	if !ans.Injected || ans.Live {
		t.Fatalf("gfw answer = %+v", ans)
	}
	if _, ok := NewHandle().Lookup(addrs["live"]); ok {
		t.Fatal("empty handle reported ok")
	}
}

func TestHTTPHandler(t *testing.T) {
	snap, addrs := testSnapshot(t)
	h := NewHandle()
	h.Publish(snap)
	mux := NewHTTPHandler(h)

	get := func(url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		return rec
	}

	rec := get("/v1/query?addr=" + addrs["live"].String())
	if rec.Code != 200 {
		t.Fatalf("query status = %d: %s", rec.Code, rec.Body)
	}
	var ans HTTPAnswer
	if err := json.Unmarshal(rec.Body.Bytes(), &ans); err != nil {
		t.Fatal(err)
	}
	if !ans.Live || !ans.Protocols["icmp"] || ans.Protocols["udp53"] || ans.Aliased || ans.GFWInjected || ans.Day != 1000 {
		t.Fatalf("answer = %+v", ans)
	}
	rec = get("/v1/query?addr=" + addrs["alias"].String())
	var alias HTTPAnswer
	if err := json.Unmarshal(rec.Body.Bytes(), &alias); err != nil {
		t.Fatal(err)
	}
	if !alias.Aliased || alias.AliasPrefix != "2001:db8:aaaa::/48" {
		t.Fatalf("alias answer = %+v", alias)
	}
	if rec := get("/v1/query?addr=junk"); rec.Code != 400 {
		t.Fatalf("bad addr status = %d", rec.Code)
	}
	rec = get("/v1/snapshot")
	var info HTTPSnapshotInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Day != 1000 || info.LiveAddrs != 2 || info.AliasedPrefixes != 1 || info.GFWAddrs != 1 || info.Protocols["icmp"] != 1 {
		t.Fatalf("snapshot info = %+v", info)
	}
	if rec := get("/healthz"); rec.Code != 200 {
		t.Fatalf("healthz = %d", rec.Code)
	}
	if rec := NewHTTPHandler(NewHandle()); true {
		w := httptest.NewRecorder()
		rec.ServeHTTP(w, httptest.NewRequest("GET", "/healthz", nil))
		if w.Code != 503 {
			t.Fatalf("empty healthz = %d", w.Code)
		}
	}
}
